"""Seeded defect: array mutated in place after being checkpointed."""


class Publisher:
    def __init__(self, store):
        self.store = store

    def exchange(self, name, buf):
        self.store.save("state", name, buf)
        buf[0] = 0.0
        return buf
