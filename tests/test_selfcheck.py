"""``repro selfcheck``: its helpers and its refusal of a used directory.

The checks themselves run minutes of simulation and are exercised by
running the command; these tests start no simulation.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.selfcheck import CheckFailed, _trace_lanes, gate, run, same


@pytest.fixture
def trees(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "sub").mkdir(parents=True)
        (tmp_path / side / "top.csv").write_bytes(b"x,y\n1,2\n")
        (tmp_path / side / "sub" / "deep.bin").write_bytes(bytes(range(64)))
    return tmp_path


class TestSame:
    def test_identical_trees_pass(self, trees):
        same(trees, "a", "b")

    def test_identical_files_pass(self, trees):
        same(trees, "a/top.csv", "b/top.csv")

    def test_flipped_byte_names_the_relative_path(self, trees):
        path = trees / "b" / "sub" / "deep.bin"
        data = bytearray(path.read_bytes())
        data[17] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CheckFailed, match="sub/deep.bin differs"):
            same(trees, "a", "b")
        with pytest.raises(CheckFailed, match="differ"):
            same(trees, "a/sub/deep.bin", "b/sub/deep.bin")

    def test_file_on_one_side_only_fails(self, trees):
        (trees / "a" / "sub" / "extra.json").write_text("{}")
        with pytest.raises(CheckFailed, match="sub/extra.json is only in a"):
            same(trees, "a", "b")

    def test_missing_side_fails(self, trees):
        with pytest.raises(CheckFailed, match="c is missing"):
            same(trees, "a", "c")


class TestGate:
    def test_passes_at_exactly_the_bound(self):
        assert 4.0 * 1.25 + 1.0 == 6.0
        assert "limit 6.00s" in gate(4.0, 6.0)

    def test_fails_just_above_the_bound(self):
        with pytest.raises(CheckFailed, match="overhead over budget"):
            gate(4.0, math.nextafter(6.0, 7.0))


class TestRun:
    def test_returns_seconds_and_stdout_and_logs(self, tmp_path):
        seconds, out = run(tmp_path, ["-c", "print('hello')"])
        assert out == "hello\n"
        assert seconds > 0
        log = (tmp_path / "selfcheck.log").read_text()
        assert "$ python -c print('hello')" in log and "exit 0" in log

    def test_nonzero_exit_names_the_command(self, tmp_path):
        with pytest.raises(CheckFailed, match="`python -c exit\\(3\\)` exited 3"):
            run(tmp_path, ["-c", "exit(3)"])


class TestCommand:
    def test_non_empty_dir_exits_2(self, tmp_path, capsys):
        (tmp_path / "left-over.csv").write_text("")
        assert main(["selfcheck", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not an empty directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["left-over.csv"]

    def test_a_file_in_its_place_exits_2(self, tmp_path, capsys):
        (tmp_path / "out").write_text("")
        assert main(["selfcheck", str(tmp_path / "out")]) == 2

    def test_takes_no_options(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["selfcheck", str(tmp_path), "--quick"])

    def test_import_repro_stays_light(self):
        # CI's smoke job asserts the multiprocessing half of this
        code = (
            "import repro, sys; "
            "assert 'multiprocessing' not in sys.modules; "
            "assert 'repro.selfcheck' not in sys.modules"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestTraceLanes:
    def event(self, lane):
        return {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
                "args": {"name": lane}}

    def test_main_and_worker_lanes_pass(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(
            {"traceEvents": [self.event("main"), self.event("w0")]}
        ))
        assert _trace_lanes(path) == ["main", "w0"]

    @pytest.mark.parametrize("payload", [
        {"traceEvents": []},
        {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "name": "span"}]},
        {"traceEvents": [{"ph": "M", "pid": 1, "tid": 1,
                          "name": "thread_name", "args": {"name": "main"}}]},
        {"events": []},
    ])
    def test_malformed_or_workerless_trace_fails(self, tmp_path, payload):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckFailed, match="trace.json"):
            _trace_lanes(path)
