"""``BENCHMARK.json`` and what a (tiny) run of the command prints."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare_runs

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_spec_names_and_counts():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25  # the driver's ceiling
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_spec_workloads_are_the_registered_ones():
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 for w in SPEC["workloads"])


def run_command(*extra):
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *extra],
        cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=120, check=False,
    )
    return done.returncode, done.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    code, lines = run_command(
        "--workload", workload, "--seed", "2",
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), "--quick",
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 + trace
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("quick" in line for line in lines)


def test_out_file_collects_runs_and_quick_runs_are_never_compared(tmp_path):
    out = tmp_path / "runs.json"
    for _ in range(2):
        code, _ = run_command(
            "--workload", "tree_flood_droptail", "--quick", "--out", str(out)
        )
        assert code == 0
    document = json.loads(out.read_text())
    assert len(document["runs"]) == 2 and document["runs"][0]["quick"] is True
    with pytest.raises(SystemExit):
        compare_runs.main(str(out), str(out), SPEC)


def test_unknown_workload_is_refused():
    code, _ = run_command("--workload", "nope")
    assert code != 0


def test_another_run_length_is_refused():
    code, _ = run_command(
        "--workload", "tree_flood_droptail", "--quick",
        "--seconds", str(SPEC["run_seconds"] + 1),
    )
    assert code != 0


def result_file(path, seeds, legit_share, digest="d"):
    """A result file with one run per seed of one workload."""
    values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    runs = [
        {
            "seed": seed,
            "quick": False,
            "workloads": {
                "tree_flood_floc": {
                    "end_to_end": {**values, "legit_share": legit_share[i]},
                    "result_digest": digest,
                }
            },
        }
        for i, seed in enumerate(seeds)
    ]
    path.write_text(json.dumps({"schema": 1, "runs": runs}))
    return str(path)


def test_compare_pairs_by_seed_and_wants_simulated_results_identical(
    tmp_path, capsys
):
    seeds = list(range(1, 11))
    shares = [0.90 + 0.01 * i for i in range(10)]  # the seeds spread 10 %
    parent = result_file(tmp_path / "parent.json", seeds, shares)
    assert compare_runs.main(parent, parent, SPEC) == 0
    assert "identical" in capsys.readouterr().out
    # one seed's share moves by far less than the seeds differ
    moved = result_file(
        tmp_path / "moved.json", seeds, [shares[0] - 1e-6] + shares[1:]
    )
    assert compare_runs.main(parent, moved, SPEC) == 1
    assert "changed" in capsys.readouterr().out
    other = result_file(tmp_path / "other.json", seeds, shares, digest="e")
    assert compare_runs.main(parent, other, SPEC) == 1
    reordered = result_file(tmp_path / "reordered.json", seeds[::-1], shares)
    with pytest.raises(SystemExit):
        compare_runs.main(parent, reordered, SPEC)


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [1.0, 1.4, 0.7, 1.3, 0.8, 1.0, 1.5, 0.6, 1.0, 1.2]

    def name(a, b, better="lower", bound=0.1):
        return compare_runs.verdict(a, b, better, bound)["verdict"]

    assert name(parent, faster) == "improved"
    assert name(parent, slower) == "regressed"
    assert name(parent, parent) == "within-bound"
    assert name(parent[:5], faster[:5]) == "within-bound"  # too few pairs
    assert name(noisy, parent) == "unresolved"
    assert name(noisy, [v * 3 for v in noisy]) == "regressed"
    # higher-is-better metrics flip the direction
    assert name(parent, slower, better="higher") == "improved"
    assert name(parent, faster, better="higher") == "regressed"
    assert compare_runs.worsening(2.0, 2.2, "lower") == pytest.approx(0.1)
    assert compare_runs.worsening(2.0, 2.2, "higher") == pytest.approx(-0.1)
