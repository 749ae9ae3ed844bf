"""Seeded defect: checkpoint manifest appended in place."""

import json


def record_entry(path, entry):
    with open(path, mode="a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
