"""Per-rule fixtures: each rule id detects its hazard and nothing else."""

import textwrap
from pathlib import Path

from tests.check.flocheck.engine import SourceModule
from tests.check.flocheck.rules import get_rule


def module_from(source, module="repro.net.fixture"):
    relpath = module.replace(".", "/") + ".py"
    return SourceModule(
        Path("/fixture.py"), relpath, module, textwrap.dedent(source)
    )


def findings(rule_id, source, module="repro.net.fixture"):
    rule = get_rule(rule_id)
    mod = module_from(source, module)
    assert rule.applies_to(mod), f"{rule_id} does not apply to {module}"
    return list(rule.check(mod))


class TestFLC001Determinism:
    def test_wall_clock_read_flagged(self):
        found = findings(
            "FLC001",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert len(found) == 1
        assert "time.time" in found[0].message

    def test_global_random_flagged(self):
        found = findings(
            "FLC001",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        assert len(found) == 1
        assert "process-global RNG" in found[0].message

    def test_legacy_numpy_flagged_through_alias(self):
        found = findings(
            "FLC001",
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """,
        )
        assert len(found) == 1
        assert "legacy numpy.random" in found[0].message

    def test_seeded_constructions_clean(self):
        found = findings(
            "FLC001",
            """
            import random
            import numpy as np

            def make(seed):
                return random.Random(seed), np.random.default_rng(seed)
            """,
        )
        assert found == []

    def test_runner_layer_out_of_scope(self):
        # injected clocks in repro.runner are legitimate by design
        rule = get_rule("FLC001")
        mod = module_from("import time\nnow = time.monotonic()",
                          module="repro.runner.fixture")
        assert not rule.applies_to(mod)


class TestFLC002PickleSafety:
    def test_lambda_into_checkpointed_flagged(self):
        # a task built around a lambda: the spawn pool pickles it
        found = findings(
            "FLC002",
            """
            def job(run_fleet, Task, store):
                return run_fleet([Task("u", lambda ctx: 1)], store)
            """,
            module="repro.runner.fixture",
        )
        assert len(found) == 1
        assert "checkpoint sink run_fleet" in found[0].message

    def test_lambda_into_supervisor_constructor_flagged(self):
        found = findings(
            "FLC002",
            """
            def make(run_fleet, tasks):
                return run_fleet(tasks, log=lambda m: None)
            """,
            module="repro.cli",
        )
        assert len(found) == 1

    def test_defaulted_lambda_attribute_flagged(self):
        found = findings(
            "FLC002",
            """
            class Runner:
                def __init__(self, log=None):
                    self._log = log or (lambda message: None)
            """,
            module="repro.runner.fixture",
        )
        assert len(found) == 1
        assert "instance attribute" in found[0].message

    def test_named_function_clean(self):
        found = findings(
            "FLC002",
            """
            def _unit(ctx):
                return 1

            def job(run_fleet, Task, store):
                return run_fleet([Task("u", _unit)], store)
            """,
            module="repro.runner.fixture",
        )
        assert found == []

    def test_local_lambda_outside_sinks_clean(self):
        # job-builder dicts and sort keys never reach pickled state
        found = findings(
            "FLC002",
            """
            def build(settings):
                jobs = {"fig02": lambda: settings}
                return sorted(jobs, key=lambda name: name)
            """,
            module="repro.runner.fixture",
        )
        assert found == []

    def test_attribute_lambda_outside_runner_layer_clean(self):
        found = findings(
            "FLC002",
            """
            class Model:
                def __init__(self):
                    self.fn = lambda x: x
            """,
            module="repro.tcp.fixture",
        )
        assert found == []


class TestFLC003FloatEquality:
    def test_rate_equality_flagged(self):
        found = findings(
            "FLC003",
            """
            def check(rate, target_rate):
                return rate == target_rate
            """,
        )
        assert len(found) == 1

    def test_float_literal_equality_flagged(self):
        found = findings(
            "FLC003",
            """
            def check(x):
                return x != 0.5
            """,
        )
        assert len(found) == 1

    def test_sentinel_comparison_clean(self):
        found = findings(
            "FLC003",
            """
            INFINITE_MTD = float("inf")

            def check(mtd):
                return mtd == INFINITE_MTD
            """,
        )
        assert found == []

    def test_integer_comparison_clean(self):
        found = findings(
            "FLC003",
            """
            def check(count, kind):
                return count == 5 and kind == "DATA"
            """,
        )
        assert found == []


class TestFLC004Units:
    def test_mixed_dimension_addition_flagged(self):
        found = findings(
            "FLC004",
            """
            def total(warmup_seconds, measure_ticks):
                return warmup_seconds + measure_ticks
            """,
        )
        assert len(found) == 1
        assert "time[s]" in found[0].message
        assert "time[tick]" in found[0].message

    def test_rate_comparison_across_units_flagged(self):
        found = findings(
            "FLC004",
            """
            def over(attack_rate_mbps, capacity_pkts_per_tick):
                return attack_rate_mbps > capacity_pkts_per_tick
            """,
        )
        assert len(found) == 1

    def test_same_dimension_clean(self):
        found = findings(
            "FLC004",
            """
            def total(warmup_seconds, measure_seconds):
                return warmup_seconds + measure_seconds
            """,
        )
        assert found == []

    def test_multiplication_clean(self):
        # mult/div legitimately combine dimensions (Mbps * seconds = volume)
        found = findings(
            "FLC004",
            """
            def volume(rate_mbps, window_seconds):
                return rate_mbps * window_seconds
            """,
        )
        assert found == []


class TestFLC005MutableDefaults:
    def test_list_default_flagged(self):
        found = findings(
            "FLC005",
            """
            def record(value, history=[]):
                history.append(value)
                return history
            """,
        )
        assert len(found) == 1

    def test_numpy_buffer_default_flagged(self):
        found = findings(
            "FLC005",
            """
            import numpy as np

            def simulate(n, buf=np.zeros(16)):
                return buf[:n]
            """,
        )
        assert len(found) == 1

    def test_none_and_tuple_defaults_clean(self):
        found = findings(
            "FLC005",
            """
            def simulate(n, buf=None, modes=("cbr", "shrew")):
                return buf, modes, n
            """,
        )
        assert found == []


class TestFLC007SpawnSafety:
    def test_lambda_into_fleet_sink_flagged(self):
        found = findings(
            "FLC007",
            """
            def dispatch(tasks, store, run_fleet):
                return run_fleet([lambda ctx: 1], store)
            """,
            module="repro.fleet.fixture",
        )
        assert len(found) == 1
        assert "pickle" in found[0].message

    def test_lambda_process_target_flagged(self):
        found = findings(
            "FLC007",
            """
            def spawn(ctx):
                return ctx.Process(target=lambda: None)
            """,
            module="repro.fleet.fixture",
        )
        assert len(found) == 1

    def test_fork_context_flagged(self):
        found = findings(
            "FLC007",
            """
            from multiprocessing import get_context

            def pool():
                return get_context("fork")
            """,
            module="repro.fleet.fixture",
        )
        assert len(found) == 1
        assert "spawn" in found[0].hint

    def test_spawn_context_clean(self):
        found = findings(
            "FLC007",
            """
            from multiprocessing import get_context

            def pool():
                return get_context("spawn")
            """,
            module="repro.fleet.fixture",
        )
        assert found == []

    def test_module_global_mutation_flagged(self):
        found = findings(
            "FLC007",
            """
            RESULTS = {}

            def record(name, value):
                RESULTS[name] = value
            """,
            module="repro.fleet.fixture",
        )
        assert len(found) == 1
        assert "RESULTS" in found[0].message

    def test_global_rebind_flagged(self):
        found = findings(
            "FLC007",
            """
            SEEN = []

            def reset():
                global SEEN
                SEEN = []
            """,
            module="repro.fleet.fixture",
        )
        assert len(found) == 1

    def test_mutator_method_on_global_flagged(self):
        found = findings(
            "FLC007",
            """
            PENDING = []

            def enqueue_local(item):
                PENDING.append(item)
            """,
            module="repro.fleet.fixture",
        )
        assert len(found) == 1
        assert ".append()" in found[0].message

    def test_local_shadow_is_clean(self):
        found = findings(
            "FLC007",
            """
            PENDING = []

            def drain():
                PENDING = []
                PENDING.append(1)
                return PENDING
            """,
            module="repro.fleet.fixture",
        )
        assert found == []

    def test_instance_state_is_clean(self):
        found = findings(
            "FLC007",
            """
            class Run:
                def __init__(self):
                    self.pending = []

                def enqueue_local(self, item):
                    self.pending.append(item)
            """,
            module="repro.fleet.fixture",
        )
        assert found == []

    def test_out_of_scope_module_skipped(self):
        rule = get_rule("FLC007")
        mod = module_from(
            """
            CACHE = {}

            def put(k, v):
                CACHE[k] = v
            """,
            module="repro.net.fixture",
        )
        assert not rule.applies_to(mod)


class TestFLC001TraceScope:
    def test_wall_clock_in_trace_package_flagged(self):
        found = findings(
            "FLC001",
            """
            import time

            def stamp():
                return time.time()
            """,
            module="repro.trace.fixture",
        )
        assert len(found) == 1

    def test_trace_clock_module_is_the_carve_out(self):
        found = findings(
            "FLC001",
            """
            import time

            def wall_now():
                return time.time()
            """,
            module="repro.trace.clock",
        )
        assert found == []


class TestFLC012SpanHygiene:
    def test_bare_span_expression_flagged(self):
        found = findings(
            "FLC012",
            """
            def go(tracer):
                tracer.span("unit")
            """,
        )
        assert len(found) == 1
        assert "immediately dropped" in found[0].message

    def test_unclosed_local_assignment_flagged(self):
        found = findings(
            "FLC012",
            """
            def go(tracer):
                span = tracer.span("unit")
                span.event("x")
            """,
        )
        assert len(found) == 1
        assert "'span' is never closed" in found[0].message

    def test_with_closure_clean(self):
        found = findings(
            "FLC012",
            """
            def go(tracer):
                with tracer.span("unit"):
                    pass
            """,
        )
        assert found == []

    def test_try_finally_end_clean(self):
        found = findings(
            "FLC012",
            """
            def go(tracer):
                span = tracer.span("unit")
                try:
                    work()
                finally:
                    span.end(status="done")
            """,
        )
        assert found == []

    def test_stored_handle_clean(self):
        # the fleet pool pattern: open here, closed in another sweep
        found = findings(
            "FLC012",
            """
            def dispatch(self, tracer, name):
                self.task_spans[name] = tracer.span(name)

            def hold(self, tracer):
                span = tracer.span("job")
                self.job_span = span
            """,
        )
        assert found == []

    def test_returned_handle_clean(self):
        found = findings(
            "FLC012",
            """
            def open_span(tracer, name):
                return tracer.span(name)
            """,
        )
        assert found == []

    def test_factory_receiver_flagged(self):
        found = findings(
            "FLC012",
            """
            from repro.trace import current_tracer

            def go():
                current_tracer().span("unit")
            """,
        )
        assert len(found) == 1

    def test_unrelated_span_attribute_ignored(self):
        # .span on a non-tracer receiver is a different domain entirely
        found = findings(
            "FLC012",
            """
            def go(window):
                window.span("x")
            """,
        )
        assert found == []

    def test_pickle_call_in_trace_package_flagged(self):
        found = findings(
            "FLC012",
            """
            import pickle

            def snapshot(spans):
                return pickle.dumps(spans)
            """,
            module="repro.trace.fixture",
        )
        assert len(found) == 1
        assert "must never be pickled" in found[0].message

    def test_pickle_call_outside_trace_package_ignored(self):
        found = findings(
            "FLC012",
            """
            import pickle

            def snapshot(obj):
                return pickle.dumps(obj)
            """,
            module="repro.fleet.fixture",
        )
        assert found == []

    def test_nonempty_getstate_in_trace_package_flagged(self):
        found = findings(
            "FLC012",
            """
            class Sink:
                def __getstate__(self):
                    return {"spans": self.spans}
            """,
            module="repro.trace.fixture",
        )
        assert len(found) == 1
        assert "__getstate__" in found[0].message

    def test_empty_getstate_shapes_clean(self):
        found = findings(
            "FLC012",
            """
            class A:
                def __getstate__(self):
                    return {}

            class B:
                def __getstate__(self):
                    return dict()

            class C:
                def __getstate__(self):
                    return None
            """,
            module="repro.trace.fixture",
        )
        assert found == []
