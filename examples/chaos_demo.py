#!/usr/bin/env python
"""Chaos-campaign demo: an adaptive shrew, a broken SLO, a minimal repro.

The chaos engine (:mod:`repro.chaos`) samples campaigns — compositions of
infrastructure faults and *adaptive* adversaries — and judges each run
against resilience SLOs.  This demo walks the whole loop by hand:

1. build a campaign with a link flap, a router restart, and an adaptive
   shrew squad that re-phases its bursts whenever FLoc throttles it;
2. run it against the shipped SLO catalog — FLoc holds the floor, the
   campaign passes (the paper's Section IV-B strategy-independence claim
   in action: re-timing does not move an attacker's MTD);
3. raise the legitimate-share floor to an unachievable level, making the
   same campaign *violate* its floor SLO;
4. delta-debug the failing campaign down to a 1-minimal reproducer —
   every remaining fault, squad, and mutation is individually necessary —
   and write it as a replay artifact;
5. re-execute the artifact and verify it still fails byte-identically.

Run:  python examples/chaos_demo.py
"""

import tempfile
from pathlib import Path

from repro.chaos import (
    AttackerSpec,
    CampaignSpec,
    FaultSpec,
    default_slo,
    replay_artifact,
    run_campaign,
    shrink_campaign,
    with_slo,
    write_artifact,
)


def mutations(campaign: CampaignSpec) -> int:
    """How many attacker mutations a campaign switches on."""
    return sum(len(squad.mutations) for squad in campaign.attackers)


# -- 1. a hand-written campaign: two faults + one adaptive shrew squad --
spec = CampaignSpec(
    seed=2024,
    simulator="packet",
    warmup_ticks=300,
    window_ticks=150,
    n_windows=8,
    faults=(
        FaultSpec(kind="link_flap", tick=500, duration=90),
        FaultSpec(kind="router_restart", tick=700),
    ),
    attackers=(
        AttackerSpec(
            kind="shrew",
            bots=3,
            rate_mbps=2.0,
            period_ticks=20,
            mutations=("rephase", "rerandomize"),
        ),
    ),
    slo=default_slo("packet"),
)
spec.validate()

# -- 2. run it: FLoc keeps the legitimate share above the floor ---------
print("== campaign under the shipped SLO catalog ==")
result = run_campaign(spec)
for slo, verdict, detail in result.report.rows():
    print(f"  {slo:9s} {verdict:9s} {detail}")
print(f"  -> ok={result.ok}, run digest {result.digest[:16]}…")

# -- 3. the same campaign with an unachievable floor --------------------
print("\n== same campaign, floor raised to 0.97 ==")
broken = with_slo(spec, floor=0.97)
failing = run_campaign(broken, verify_replay=False)
violated = failing.report.violated()
assert violated is not None, "expected the floor SLO to break"
print(f"  violated: {violated.slo} — {violated.detail}")

# -- 4. shrink to a minimal reproducer ----------------------------------
print("\n== delta-debugging to a minimal reproducer ==")
shrunk = shrink_campaign(broken, violated.slo, log=lambda m: print(f"  {m}"))
print(
    f"  {shrunk.trials} trial(s): {len(spec.faults)} fault(s) -> "
    f"{len(shrunk.minimal.faults)}, "
    f"{mutations(spec)} mutation(s) -> {mutations(shrunk.minimal)}"
)

# -- 5. write the artifact, replay it, verify ---------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = write_artifact(shrunk, Path(tmp) / "reproducer.json")
    print(f"\n== replaying {path.name} ==")
    outcome = replay_artifact(path)
    print(f"  {outcome.summary()}")
    assert outcome.ok, "the artifact must reproduce bit-identically"
print("\nthe reproducer is minimal: removing any remaining component "
      "makes the violation disappear")
