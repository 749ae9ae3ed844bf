"""Seeded defect: a reshape view shipped inside a pickled result."""

import pickle


def pack(grid):
    flat = grid.reshape(-1)
    return pickle.dumps(flat)
