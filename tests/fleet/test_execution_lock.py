"""Execution lock: what ``repro run`` / ``repro chaos`` write, byte for byte.

The digests below were recorded from the *serial* path at the commit
before serial execution became the scheduler's in-process executor
(``ccad110``: ``SupervisedRunner`` threading one shared telemetry through
every unit).  Both executors of the one scheduler — in-process (no
``--workers``) and a spawn pool of two — must reproduce every one of
them: the figure/sweep CSV, ``metrics.prom``, ``series.csv``,
``events.jsonl`` and ``metrics.json`` minus its wall-clock ``profile``
section (key order included: the export preserves label insertion
order, so the digest does too).

The chaos sweep's first campaign fields an adaptive squad with the
``churn`` mutation — a rotated path identifier under a stale capability,
5,600 forged packets — so its telemetry (not its run digests: the
sweep CSV is the ``ccad110`` one) moved when the router began to
authenticate before it allocates or records.  Those four pins were
recorded at ``16d0649``, the commit before that change, with each
campaign's policy behind :class:`tests.sketch.churn.PreVerified`;
the last test keeps that filter a byte-for-byte no-op.
"""

import hashlib
import json

import pytest

from repro.cli import main

from ..sketch.churn import PreVerified

FIG06 = ["run", "fig06", "--scale", "0.03", "--seconds", "2", "--warmup", "1",
         "--seed", "3"]
CHAOS = ["chaos", "--seed", "2024", "--campaigns", "2", "--simulator",
         "packet", "--no-shrink"]

PINNED = {
    "fig06": {
        "fig06.csv":
            "a010652d9b00b36d5b07f780b971ece397d26abc1dd6cd00eee2cd07c63fd6d9",
        "metrics.prom":
            "405c03d75e252dc39ff9b26c5bd091707560039e2dae9270e40f7411c5794eb4",
        "series.csv":
            "a487c7b8bf0a05467ffbfa93ec3ddecb61bbd162748138fe126afb7bc0c30c2f",
        "events.jsonl":
            "1acfb531424c7a233a295bd6be2e089c2efd214d183752fe98eee158f2365f7d",
        "metrics.json":
            "f2fd2913607ae1cbfac7d859b8ad3ef29b5acfd620114120304bcf652caf345e",
    },
    "chaos": {
        "chaos.csv":
            "128b529491e9c9bade49e5b2fe2a08e107997e357d0dbb5bb27956031512ec62",
        "metrics.prom":
            "b785f4c1a5c0ba17c444502bd97162ac8c1ad398811a553b5ba209abf1799aa8",
        "series.csv":
            "07f881014221fb800c12d1027ff511ce1d9aec660c7020ab7db6dd198bc128e4",
        "events.jsonl":
            "009b9a9d00620bba3603785440ae0802aa00ed492172758dc8ae5e5b3d656e68",
        "metrics.json":
            "9d790aa365c534d11b09e780a83f14eccc39a2450fe5cd26530207d337384fa3",
    },
}

EXECUTORS = pytest.mark.parametrize(
    "executor", [[], ["--workers", "2"]], ids=["in-process", "workers-2"]
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_and_digest(tmp_path, argv, table):
    csv_dir, tel_dir = tmp_path / "csv", tmp_path / "tel"
    code = main(
        argv + ["--csv", str(csv_dir), "--telemetry", "jsonl",
                "--telemetry-dir", str(tel_dir)]
    )
    assert code == 0
    digests = {table: _sha((csv_dir / table).read_bytes())}
    for name in ("metrics.prom", "series.csv", "events.jsonl"):
        digests[name] = _sha((tel_dir / name).read_bytes())
    payload = json.loads((tel_dir / "metrics.json").read_text())
    payload.pop("profile", None)
    digests["metrics.json"] = _sha(json.dumps(payload).encode())
    return digests


@EXECUTORS
def test_fig06_outputs_match_the_pinned_serial_run(tmp_path, capsys, executor):
    digests = _run_and_digest(tmp_path, FIG06 + executor, "fig06.csv")
    assert digests == PINNED["fig06"]


@EXECUTORS
def test_chaos_outputs_match_the_pinned_serial_sweep(tmp_path, capsys, executor):
    argv = CHAOS + ["--artifact-dir", str(tmp_path / "art")] + executor
    digests = _run_and_digest(tmp_path, argv, "chaos.csv")
    assert digests == PINNED["chaos"]


def test_chaos_outputs_are_the_same_behind_a_capability_filter(
    tmp_path, capsys, monkeypatch
):
    from repro.chaos import campaign

    router = campaign.FLocPolicy
    monkeypatch.setattr(
        campaign, "FLocPolicy", lambda config: PreVerified(router(config))
    )
    argv = CHAOS + ["--artifact-dir", str(tmp_path / "art")]
    digests = _run_and_digest(tmp_path, argv, "chaos.csv")
    assert digests == PINNED["chaos"]
