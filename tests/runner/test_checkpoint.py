"""CheckpointStore: atomicity, integrity, job fingerprinting."""

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.runner import CheckpointStore


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        obj = {"rows": [(1, 2.5), (2, 3.5)], "label": "x"}
        store.save("unit", "fig08:floc@0.4", obj)
        assert store.has("unit", "fig08:floc@0.4")
        assert store.load("unit", "fig08:floc@0.4") == obj

    def test_kinds_are_separate_namespaces(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("unit", "a", 1)
        store.save("salvage", "a", 2)
        assert store.load("unit", "a") == 1
        assert store.load("salvage", "a") == 2
        assert store.names("unit") == ["a"]
        assert store.names("salvage") == ["a"]

    def test_missing_entry_raises_keyerror(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert not store.has("unit", "nope")
        with pytest.raises(KeyError):
            store.load("unit", "nope")

    def test_reopen_sees_entries(self, tmp_path):
        CheckpointStore(str(tmp_path)).save("unit", "a", [1, 2])
        assert CheckpointStore(str(tmp_path)).load("unit", "a") == [1, 2]

    def test_unknown_kind_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(CheckpointError):
            store.save("junk", "a", 1)
        with pytest.raises(CheckpointError):
            store.names("junk")

    def test_mid_run_state_kind_refused(self, tmp_path):
        # units run from build to finish in one call: there is no
        # mid-run simulator state to store
        with pytest.raises(CheckpointError, match="unknown checkpoint kind"):
            CheckpointStore(str(tmp_path)).save("state", "a", 1)

    def test_unpicklable_object_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(CheckpointError, match="not picklable"):
            store.save("unit", "a", lambda: None)


class TestIntegrity:
    def test_corrupt_file_detected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("unit", "a", {"x": 1})
        entry = store._manifest["entries"]["unit/a"]
        with open(tmp_path / entry["file"], "ab") as fh:
            fh.write(b"garbage")
        with pytest.raises(CheckpointError, match="corrupt"):
            CheckpointStore(str(tmp_path)).load("unit", "a")

    def test_vanished_file_detected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("unit", "a", {"x": 1})
        entry = store._manifest["entries"]["unit/a"]
        os.unlink(tmp_path / entry["file"])
        reopened = CheckpointStore(str(tmp_path))
        assert not reopened.has("unit", "a")
        with pytest.raises(CheckpointError, match="vanished"):
            reopened.load("unit", "a")

    def test_unmanifested_file_ignored(self, tmp_path):
        # a torn write leaves a file the manifest never mentions
        (tmp_path / "unit-orphan-00000000.pkl").write_bytes(b"partial")
        store = CheckpointStore(str(tmp_path))
        assert store.names("unit") == []

    def test_malformed_manifest_raises(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            CheckpointStore(str(tmp_path))

    def test_no_temp_files_left_behind(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for i in range(5):
            store.save("unit", f"u{i}", list(range(i)))
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []

    def test_manifest_records_sha_and_size(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("unit", "a", "payload")
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        entry = manifest["entries"]["unit/a"]
        assert len(entry["sha256"]) == 64
        assert entry["bytes"] > 0


class TestJobFingerprint:
    def test_first_use_stores_fingerprint(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.check_job({"figure": "fig08", "seed": 1})
        assert store.job == {"figure": "fig08", "seed": 1}

    def test_same_fingerprint_accepted(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.check_job({"figure": "fig08", "seed": 1})
        CheckpointStore(str(tmp_path)).check_job({"figure": "fig08", "seed": 1})

    def test_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.check_job({"figure": "fig08", "seed": 1})
        with pytest.raises(CheckpointError, match="different job"):
            CheckpointStore(str(tmp_path)).check_job(
                {"figure": "fig08", "seed": 2}
            )

    def test_reset_clears_everything(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.check_job({"figure": "fig08"})
        store.save("unit", "a", 1)
        store.reset()
        assert store.job is None
        assert store.names("unit") == []
        assert not store.has("unit", "a")
