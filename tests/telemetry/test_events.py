"""Decision-trace events, the drop-cause taxonomy, and the profiler."""

import pickle

import pytest

from repro.errors import ConfigError
from repro.telemetry import DROP_CAUSES, TickProfiler, TraceLog, precedence


class TestDropCauses:
    def test_pipeline_order(self):
        # §V admission pipeline: capability checks, then preferential
        # drop of identified attack flows, then the congestion-mode
        # stages, with queue overflow as the terminal resort
        assert DROP_CAUSES == (
            "spoofed",
            "blocked",
            "preferential",
            "token",
            "random",
            "overflow",
            "dead_link",
        )
        ranks = [precedence(cause) for cause in DROP_CAUSES]
        assert ranks == sorted(ranks)

    def test_precedence_relations(self):
        assert precedence("spoofed") < precedence("preferential")
        assert precedence("preferential") < precedence("token")
        assert precedence("token") < precedence("overflow")

    def test_unknown_cause_raises(self):
        with pytest.raises(ConfigError):
            precedence("cosmic_ray")


class TestTraceLog:
    def test_emit_and_filter(self):
        log = TraceLog()
        log.emit(3, "drop", "policy", cause="token")
        log.emit(3, "mtd_block", "policy", unit="(1, 2)")
        log.emit(4, "drop", "policy", cause="overflow")
        assert log.emitted_total == 3
        assert log.counts_by_kind == {"drop": 2, "mtd_block": 1}
        assert [e.tick for e in log.events("drop")] == [3, 4]

    def test_bounded_with_exact_totals(self):
        log = TraceLog(max_events=4)
        for tick in range(10):
            log.emit(tick, "drop", "policy", cause="token")
        assert len(log) == 4
        assert log.emitted_total == 10
        assert log.evicted_total == 6
        assert [e.tick for e in log.events()] == [6, 7, 8, 9]

    def test_to_dict_folds_tuples_and_sets(self):
        log = TraceLog()
        event = log.emit(
            2, "mtd_identify", "policy", path_id=(4, 2, 1), flows={3, 1}
        )
        d = event.to_dict()
        assert d["tick"] == 2
        assert d["path_id"] == [4, 2, 1]
        assert d["flows"] == [1, 3]

    def test_events_pickle(self):
        log = TraceLog()
        log.emit(1, "drop", "policy", cause="token")
        clone = pickle.loads(pickle.dumps(log))
        assert clone.emitted_total == 1
        assert clone.events()[0].data == {"cause": "token"}


class TestTickProfiler:
    def test_lap_accumulates_and_chains(self):
        prof = TickProfiler()
        t0 = prof.start()
        t1 = prof.lap("policy", t0)
        prof.lap("forwarding", t1)
        prof.tick_done()
        assert set(prof.totals_seconds) == {"policy", "forwarding"}
        assert all(v >= 0.0 for v in prof.totals_seconds.values())
        assert prof.ticks_profiled == 1
        fractions = prof.breakdown()
        assert fractions and abs(sum(fractions.values()) - 1.0) < 1e-9

    def test_engine_laps_split_link_processing_by_policy(self):
        # the packet engine charges links that run an admission policy to
        # "admission" and every other link to "forwarding"
        from repro.core.config import FLocConfig
        from repro.core.router import FLocPolicy
        from repro.telemetry import Telemetry, use
        from repro.traffic.scenarios import build_tree_scenario

        tel = Telemetry(mode="metrics", profile=True)
        with use(tel):
            scenario = build_tree_scenario(
                scale_factor=0.03, attack_kind="cbr", seed=3
            )
            scenario.attach_policy(FLocPolicy(FLocConfig()))
            scenario.engine.run(200)
        laps = tel.profiler.totals_seconds
        assert set(laps) == {
            "arrivals", "policy", "delivery", "sources",
            "admission", "forwarding",
        }
        assert laps["admission"] > 0.0 and laps["forwarding"] > 0.0
        assert tel.profiler.ticks_profiled == 200

    @pytest.mark.parametrize("profile", [False, True])
    def test_one_link_loop_reads_the_clock_only_when_profiled(
        self, monkeypatch, profile
    ):
        # profiled and unprofiled ticks share one phase-3 loop; the laps in
        # it must cost nothing — not one clock read — with the profiler off
        import time
        import types

        from repro.net.policy import DropTailPolicy
        from repro.telemetry import Telemetry, profiler, use
        from repro.traffic.scenarios import build_tree_scenario

        reads = []

        def perf_counter():
            reads.append(1)
            return time.perf_counter()

        monkeypatch.setattr(
            profiler, "time", types.SimpleNamespace(perf_counter=perf_counter)
        )
        tel = Telemetry(mode="metrics", profile=profile)
        with use(tel):
            scenario = build_tree_scenario(
                scale_factor=0.03, attack_kind="cbr", seed=3
            )
            scenario.attach_policy(DropTailPolicy())
            scenario.engine.run(100)
        if not profile:
            assert reads == []
            return
        # per tick: start, arrivals, policy, delivery, sources, the closing
        # forwarding lap, and two laps around each link that runs a policy
        # (one here, active on every tick once the flood reaches it)
        assert 6 * 100 < len(reads) <= 8 * 100
        assert tel.profiler.totals_seconds["admission"] > 0.0

    def test_pickle_erases_wall_clock_state(self):
        # checkpoints and digests must never observe host speed
        prof = TickProfiler()
        t0 = prof.start()
        prof.lap("policy", t0)
        prof.tick_done()
        clone = pickle.loads(pickle.dumps(prof))
        assert clone.totals_seconds == {}
        assert clone.ticks_profiled == 0
