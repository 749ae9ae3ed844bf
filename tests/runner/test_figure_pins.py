"""Figure lock: the CSV ``repro run FIG --csv DIR`` writes, byte for byte.

One small run per figure, in this process through :func:`repro.cli.main`,
with the flags below.  A changed grid value, unit order, row order or
number fails its pin.  fig06 is pinned with its telemetry in
``tests/fleet/test_execution_lock.py`` and Figs. 13-15 in
``tests/paper/test_fig13_15_internet.py``.
"""

import hashlib

import pytest

from repro.cli import main

FLAGS = ["--scale", "0.03", "--seconds", "2", "--warmup", "1", "--seed", "3"]

CSV_SHA256 = {
    "fig02": "d47599494228a683e6f0a27c1914258a4c92ccffa2f48b20b02a6597417e9773",
    "fig03": "241013727e88eb8ddeac9adedd14c6d812fcb45dec8a481baf511704c8027767",
    "fig04": "49580818606d8ab2ad3d7b659cb54a160dffba330989b1e843801e2a77c660dc",
    "fig07": "ea221c851d31da8919f219a442b2578c25f6fae877ac18b4789f68af4f3a27ca",
    "fig08": "544febf1a5041e1d5ea87acd406db1c0aef69dd6b6c02863b18e16b847e0f1cd",
    "fig09": "af60ec52cd447eec37ba29418b0d0f00ea437d4519002c9830db3da0280eb7d7",
    "fig10": "2c3f6bbd1df73ce51ed376470360b576dcac4283d3e801cc8028581404fcd079",
    "fig11": "c435b215154e3f396dd2cc217fc11b75c14d0ddff97a55c31f9cd799cad96f52",
    "faults": "36e73c4249da41705a8f2e281744fbc629b5e913800898f6b97714490eb40a4f",
}

#: sha256 of what ``repro list`` prints
LIST_SHA256 = "5bd8c721e8b0ce7501994fe0e09d909d86287bc2f946ffcee1d186fc857252a3"


@pytest.mark.parametrize("figure", sorted(CSV_SHA256))
def test_figure_csv_matches_pin(figure, tmp_path, capsys):
    assert main(["run", figure, *FLAGS, "--csv", str(tmp_path)]) == 0
    data = (tmp_path / f"{figure}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == CSV_SHA256[figure]


def test_list_output_matches_pin(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LIST_SHA256
