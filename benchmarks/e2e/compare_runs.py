"""Compare two ``--out`` files: the parent commit's runs and a change's.

The rule is the one in the choosing-metrics guide.  Runs are paired by
position (run the two commits alternately, swapping which goes first),
and the two runs of a pair must have the same ``--seed``.  For each
(workload, end-to-end metric):

``improved``
    at least ten pairs, the change wins at least nine tenths of them
    (ties count for neither side), and the medians differ by more than
    the distance between the parent's quartiles;
``regressed``
    the change's median is worse than the parent's by more than the
    metric's bound from ``BENCHMARK.json``;
``unresolved``
    the parent's own quartile spread exceeds the bound, so neither of
    the above can be told apart from noise — unless every run of the
    change reads worse than every run of the parent, which is a
    regression whatever the spread;
``within-bound``
    anything else.

``legit_share`` is not judged that way.  It is a simulated statistic that
repeats bit for bit for a seed, so it is compared within each pair, as is
the ``result_digest``: ``identical`` if every pair agrees, ``changed`` —
the change altered behaviour, not speed — if any does not.

Exit code 1 if anything regressed or changed.  Runs made with ``--quick``
or ``--reps`` are refused.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Optional, Sequence

#: The pairing rule's minimum number of pairs and share of wins.
MIN_PAIRS = 10
WIN_SHARE = 0.9

#: Metrics compared within each same-seed pair, and the relative
#: difference they may show.  Their bound in ``BENCHMARK.json`` cannot say
#: this: the benchmark driver varies the seed from run to run, so that
#: bound has to cover the spread between seeds.
EXACT = {"legit_share": 1e-12}


def same(a: float, b: float, tolerance: float) -> bool:
    return abs(a - b) <= tolerance * max(abs(a), abs(b))


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of
    ``parent``; negative when it is better."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    exact: Optional[float] = None,
) -> Dict[str, Any]:
    """Medians, quartiles and the verdict for one (workload, metric);
    with ``exact``, the verdict is whether every pair agrees to that
    relative tolerance."""
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if worsening(a, b, better) < 0)
    median_a = statistics.median(parent)
    median_b = statistics.median(change)
    q_a = quartiles(parent)
    iqr_a = q_a[2] - q_a[0]
    worse = worsening(median_a, median_b, better)
    spread = iqr_a / abs(median_a) if median_a else 0.0
    all_worse = all(
        worsening(a, b, better) > 0 for a in parent for b in change
    )
    if exact is not None:
        name = (
            "identical" if all(same(a, b, exact) for a, b in pairs)
            else "changed"
        )
    elif (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and worse < 0
        and abs(median_b - median_a) > iqr_a
    ):
        name = "improved"
    elif worse > bound and (spread <= bound or all_worse):
        name = "regressed"
    elif spread > bound:
        name = "unresolved"
    else:
        name = "within-bound"
    return {
        "verdict": name,
        "pairs": len(pairs),
        "wins": wins,
        "parent_median": median_a,
        "parent_quartiles": q_a,
        "change_median": median_b,
        "change_quartiles": quartiles(change),
        "worsening": worse,
        "parent_spread": spread,
    }


def _runs(path: str) -> List[Dict[str, Any]]:
    """The runs of one result file, in the order they were made."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != 1 or "runs" not in document:
        raise SystemExit(f"{path} is not an e2e benchmark result file")
    if any(run["quick"] for run in document["runs"]):
        raise SystemExit(
            f"{path} holds a --quick/--reps run; such numbers are never "
            "compared"
        )
    return document["runs"]


def main(parent_path: str, change_path: str, spec: Dict[str, Any]) -> int:
    """Print the table; exit 1 if anything regressed or changed."""
    parent, change = _runs(parent_path), _runs(change_path)
    if [run["seed"] for run in parent] != [run["seed"] for run in change]:
        raise SystemExit(
            "the two files must hold the same number of runs with the same "
            "seeds in the same order: run k of one is paired with run k of "
            "the other"
        )
    print(f"{'workload':<22}{'metric':<14}{'parent q1/med/q3':>34}"
          f"{'change q1/med/q3':>34}{'worse':>8}{'bound':>7}  verdict")
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = [
            (a["workloads"][workload], b["workloads"][workload])
            for a, b in zip(parent, change)
            if workload in a["workloads"] and workload in b["workloads"]
        ]
        if not pairs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            exact = EXACT.get(name)
            row = verdict(
                [a["end_to_end"][name] for a, _ in pairs],
                [b["end_to_end"][name] for _, b in pairs],
                metric["better"], metric["bound"], exact,
            )
            qa, qb = row["parent_quartiles"], row["change_quartiles"]
            limit = f"{metric['bound']:.0%}" if exact is None else f"{exact:g}"
            print(
                f"{workload:<22}{name:<14}"
                f"{qa[0]:>12.5g}{row['parent_median']:>11.5g}{qa[2]:>11.5g}"
                f"{qb[0]:>12.5g}{row['change_median']:>11.5g}{qb[2]:>11.5g}"
                f"{row['worsening']:>8.1%}{limit:>7}  "
                f"{row['verdict']} ({row['wins']}/{row['pairs']} pairs won)"
            )
            bad += row["verdict"] in ("regressed", "changed")
        differ = sum(a["result_digest"] != b["result_digest"] for a, b in pairs)
        print(f"{workload:<22}result_digest differs in {differ} of "
              f"{len(pairs)} pairs: {'changed' if differ else 'identical'}")
        bad += bool(differ)
    return 1 if bad else 0
