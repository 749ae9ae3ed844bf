#!/usr/bin/env python
"""flocheck demo: catch an unseeded-RNG bug in a toy drop policy.

A reproduction lives and dies by determinism: the same seed must produce
the same figure.  The toy `JitterDropPolicy` below sneaks two classic
determinism bugs into an otherwise plausible link policy:

  * it jitters its drop decisions with the process-global `random.random()`
    (unseeded, shared across the whole interpreter), and
  * it timestamps admissions with `time.time()` (wall clock), so two runs
    of the same scenario can never be bit-identical.

The demo materialises the buggy module as if it lived under `repro.net`,
runs the flocheck engine over it, and prints the diagnostics -- the same
output `python -m repro check` would give, including the fix hints.

Run:  python examples/check_demo.py
"""

import tempfile
import textwrap
from pathlib import Path

from repro.check import Checker

BUGGY_POLICY = textwrap.dedent('''\
    """A toy link policy with determinism bugs flocheck should catch."""

    import random
    import time


    class JitterDropPolicy:
        """Drops a fraction of arrivals, jittered to avoid phase effects."""

        def __init__(self, drop_fraction=0.1):
            self.drop_fraction = drop_fraction
            self.admitted_at = []

        def admit(self, packet):
            # BUG: process-global RNG -- unseeded, shared, irreproducible.
            if random.random() < self.drop_fraction:
                return False
            # BUG: wall-clock read inside the simulation.
            self.admitted_at.append(time.time())
            return True
''')


def main():
    with tempfile.TemporaryDirectory() as tmp:
        # Lay the buggy module out as repro/net/jitter_policy.py so the
        # determinism rule (scoped to the simulation layers) applies.
        root = Path(tmp) / "repro"
        (root / "net").mkdir(parents=True)
        (root / "__init__.py").write_text("")
        (root / "net" / "__init__.py").write_text("")
        (root / "net" / "jitter_policy.py").write_text(BUGGY_POLICY)

        report = Checker(root).run()

        print(f"modules checked: {report.modules_checked}")
        print(f"findings: {len(report.findings)}\n")
        for diag in report.findings:
            print(diag.format())
            print()

        if report.ok:
            print("clean tree -- the demo should have found bugs!")
        else:
            print("flocheck caught the determinism bugs; seed an explicit")
            print("random.Random(seed) and read time from the engine clock.")
    return 0 if not report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
