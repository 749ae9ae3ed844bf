"""Checkpoint and buffer-aliasing safety of the fluid step.

The step's lookup tables (per-AS floors, the legit index and its
per-legit constants, the survival pass's level lists and pair table,
the current plan's allocations, fair shares and flag bars) are derived
state:
a pickle must not carry them (its size is held in
``test_fluid_memory.py``), a state dict written without them must load,
and a run resumed from a mid-run pickle must end byte-identical to one
that never stopped.  The buffers a tick fills and reads back
(``_SCRATCH``) are neither state nor derived tables: a pickle leaves
them out, loading makes them anew, and the one every tick shares is
read-only.  And nothing the step hands out (``_last_admitted``,
``_flagged``) may be written again by a later tick.  A checkpoint of the
per-flow simulator, which has no class partition, is refused rather
than resumed.
"""

import pickle

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.inet.scenarios import build_internet_scenario
from repro.inet.simulator import _DERIVED, _SCRATCH, FluidSimulator
from repro.runner import CheckpointStore
from repro.runner.resumable import FluidRun, run_checkpointed

from .fluid_oracle import FluidSimulator as PerFlowSimulator

TICKS = 90
WARMUP = 30
STOP_AT = 47  # between two regroupings, inside the measured window
SEED = 7


def _scenario():
    return build_internet_scenario(
        n_as=120, n_legit_sources=240, n_legit_ases=30, n_bots=2_000,
        target_capacity=150.0, attack_rate=2.0, seed=SEED,
    )


def _state_bytes(sim):
    return b"".join(
        np.ascontiguousarray(a).tobytes()
        for a in (sim._acc, sim.w, sim._rate_ewma, sim._flagged,
                  sim._last_admitted)
    )


def _run_straight(strategy):
    sim = FluidSimulator(_scenario(), strategy=strategy, seed=SEED)
    result = sim.run(ticks=TICKS, warmup=WARMUP, record_series=True)
    return result, _state_bytes(sim)


class TestDerivedState:
    def test_pickle_carries_no_derived_table(self):
        sim = FluidSimulator(_scenario(), strategy="floc", seed=SEED)
        sim.begin_run(ticks=TICKS, warmup=WARMUP)
        for _ in range(STOP_AT):
            sim.step_run()
        assert not set(_DERIVED) & set(sim.__getstate__())
        for name in _DERIVED:
            assert hasattr(sim, name)  # ... but the live object has them

    def test_state_dict_without_derived_tables_loads(self):
        sim = FluidSimulator(_scenario(), strategy="floc", seed=SEED)
        sim.begin_run(ticks=TICKS, warmup=WARMUP)
        for _ in range(STOP_AT):
            sim.step_run()
        state = {
            k: v for k, v in pickle.loads(pickle.dumps(sim.__dict__)).items()
            if k not in _DERIVED
        }
        revived = FluidSimulator.__new__(FluidSimulator)
        revived.__setstate__(state)
        for name in _DERIVED:
            got, want = getattr(revived, name), getattr(sim, name)
            if name == "_levels":
                assert len(got) == len(want)
                for (g_nodes, g_par), (w_nodes, w_par) in zip(got, want):
                    assert np.array_equal(g_nodes, w_nodes)
                    assert np.array_equal(g_par, w_par)
            else:
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tobytes() == want.tobytes(), name


class TestScratch:
    """The per-tick buffers kept across ticks are neither state nor
    derived tables: a pickle leaves them out, loading makes them anew,
    and the one every tick shares cannot be written."""

    def test_pickle_carries_no_scratch(self):
        sim = FluidSimulator(_scenario(), strategy="floc", seed=SEED)
        sim.begin_run(ticks=TICKS, warmup=WARMUP)
        for _ in range(STOP_AT):
            sim.step_run()
        assert not set(_SCRATCH) & set(_DERIVED)
        assert not set(_SCRATCH) & set(sim.__getstate__())
        revived = pickle.loads(pickle.dumps(sim))
        for name in _SCRATCH:
            got, want = getattr(revived, name), getattr(sim, name)
            assert got is not want
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name

    def test_shared_no_clog_answer_is_read_only(self):
        # bots at the default rate: no uplink clogs
        scenario = build_internet_scenario(
            n_as=120, n_legit_sources=240, n_legit_ases=30, n_bots=2_000,
            target_capacity=150.0, seed=SEED,
        )
        sim = FluidSimulator(scenario, strategy="floc", seed=SEED)
        own_s = sim._loads_by_slot(sim._send_rates())
        assert not sim._clogs(own_s)
        surv = sim._slot_survival(own_s)
        assert surv is sim._slot_survival(own_s)
        assert surv.tobytes() == np.ones_like(own_s).tobytes()
        with pytest.raises(ValueError):
            surv[0] = 0.5
        with pytest.raises(ValueError):
            surv *= 0.5


class TestResume:
    @pytest.mark.parametrize("strategy", ["nd", "ff", "floc"])
    def test_serial_resume_from_mid_run_pickle_is_identical(self, strategy):
        want_result, want_state = _run_straight(strategy)
        sim = FluidSimulator(_scenario(), strategy=strategy, seed=SEED)
        sim.begin_run(ticks=TICKS, warmup=WARMUP, record_series=True)
        for _ in range(STOP_AT):
            sim.step_run()
        sim = pickle.loads(pickle.dumps(sim))
        while sim.step_run():
            pass
        assert pickle.dumps(sim.finish_run()) == pickle.dumps(want_result)
        assert _state_bytes(sim) == want_state


class TestHandedOutArrays:
    @pytest.mark.parametrize("strategy", ["nd", "ff", "floc"])
    def test_later_ticks_never_write_what_a_tick_handed_out(self, strategy):
        """The ``_last_admitted`` a tick hook sees at tick t+1 is what
        tick t returned, and every array a tick published stays as it was
        for as long as someone holds it."""
        scenario = _scenario()
        if strategy == "nd":
            # under capacity _admit_nd returns its argument: the step's
            # own arrivals array is then the one that is handed out
            scenario.target_capacity = 1e9
        sim = FluidSimulator(scenario, strategy=strategy, seed=SEED)
        held = []  # (name, tick, the live array, a copy taken on publication)
        seen_by_hook = []

        def hook(host, tick):
            if tick:
                _, _, _, copy = held[-2]
                assert host._last_admitted.tobytes() == copy.tobytes()
                seen_by_hook.append(tick)

        sim.add_tick_hook(hook)
        sim.begin_run(ticks=60, warmup=10)
        tick = 0
        more = True
        while more:
            more = sim.step_run()
            held.append(
                ("admitted", tick, sim._last_admitted, sim._last_admitted.copy())
            )
            held.append(("flagged", tick, sim._flagged, sim._flagged.copy()))
            tick += 1
        assert seen_by_hook == list(range(1, 60))
        for name, at, live, copy in held:
            assert live.tobytes() == copy.tobytes(), (name, at)
        admitted = [live for name, _, live, _ in held if name == "admitted"]
        assert len({id(a) for a in admitted}) == len(admitted)


class TestPerFlowCheckpoint:
    def test_mid_run_per_flow_checkpoint_fails_and_does_not_resume(
        self, tmp_path
    ):
        parent = PerFlowSimulator(_scenario(), strategy="floc", seed=SEED)
        run = FluidRun(parent, ticks=TICKS, warmup=WARMUP)
        run.advance(STOP_AT)
        # a checkpoint the per-flow simulator wrote names this class
        parent.__class__ = FluidSimulator
        store = CheckpointStore(str(tmp_path))
        store.save("state", "unit", run)
        built = []
        with pytest.raises(CheckpointError, match="flow_class"):
            run_checkpointed(
                store, "unit", build=lambda: built.append(run),
                finalize=lambda done: done,
            )
        assert built == []
        assert store.has("state", "unit")
