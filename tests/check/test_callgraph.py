"""Symbol table, call-graph resolution, and spawn reachability."""

import textwrap

from repro.check.callgraph import (
    CallGraph,
    SymbolTable,
    module_aliases,
    spawn_entrypoints,
)
from repro.check.engine import SourceModule


def module(name, source, relpath=None):
    relpath = relpath or name.replace(".", "/") + ".py"
    return SourceModule(
        path=None, relpath=relpath, module=name,
        text=textwrap.dedent(source),
    )


class TestModuleAliases:
    def test_single_dot_relative(self):
        mod = module(
            "repro.inet.jobs",
            "from .shard import BarrierExchange\n",
        )
        assert module_aliases(mod)["BarrierExchange"] == (
            "repro.inet.shard.BarrierExchange"
        )

    def test_double_dot_relative(self):
        mod = module(
            "repro.fleet.worker",
            "from ..runner.checkpoint import CheckpointStore\n",
        )
        assert module_aliases(mod)["CheckpointStore"] == (
            "repro.runner.checkpoint.CheckpointStore"
        )

    def test_package_init_anchors_at_itself(self):
        mod = module(
            "repro.fleet",
            "from .pool import run_fleet\n",
            relpath="repro/fleet/__init__.py",
        )
        assert module_aliases(mod)["run_fleet"] == (
            "repro.fleet.pool.run_fleet"
        )

    def test_absolute_imports_still_present(self):
        mod = module("repro.x", "import numpy as np\n")
        assert module_aliases(mod)["np"] == "numpy"


FLEET = {
    "repro.fleet.worker": """\
        from ..stats.registry import record


        def worker_main(config):
            record("start", config)
            _helper()


        def _helper():
            return 1
        """,
    "repro.runner.figures": """\
        class ShardUnitTask:
            def run(self, ctx):
                self._go(ctx)

            def _go(self, ctx):
                return ctx
        """,
    "repro.stats.registry": """\
        def record(name, value):
            return (name, value)


        def unreached():
            return None
        """,
}


def build_table():
    return SymbolTable.build(
        module(name, src) for name, src in FLEET.items()
    )


class TestSymbolTable:
    def test_indexes_functions_and_methods(self):
        table = build_table()
        assert "repro.fleet.worker.worker_main" in table.functions
        assert "repro.runner.figures.ShardUnitTask.run" in table.functions
        assert table.functions["repro.runner.figures.ShardUnitTask.run"].is_method

    def test_by_simple_name(self):
        table = build_table()
        assert table.by_name["record"] == ["repro.stats.registry.record"]


class TestCallGraph:
    def test_from_import_edge(self):
        graph = CallGraph(build_table())
        assert "repro.stats.registry.record" in graph.callees(
            "repro.fleet.worker.worker_main"
        )

    def test_module_local_edge(self):
        graph = CallGraph(build_table())
        assert "repro.fleet.worker._helper" in graph.callees(
            "repro.fleet.worker.worker_main"
        )

    def test_self_method_edge(self):
        graph = CallGraph(build_table())
        assert "repro.runner.figures.ShardUnitTask._go" in graph.callees(
            "repro.runner.figures.ShardUnitTask.run"
        )

    def test_attribute_call_over_approximates(self):
        mods = dict(FLEET)
        mods["repro.fleet.pool"] = """\
            def dispatch(task, ctx):
                task.run(ctx)
            """
        table = SymbolTable.build(
            module(name, src) for name, src in mods.items()
        )
        graph = CallGraph(table)
        # `task.run` is dynamic: edges to every known `run`
        assert "repro.runner.figures.ShardUnitTask.run" in graph.callees(
            "repro.fleet.pool.dispatch"
        )

    def test_reachable_and_chain(self):
        graph = CallGraph(build_table())
        roots = ["repro.fleet.worker.worker_main"]
        reached = graph.reachable(roots)
        assert "repro.stats.registry.record" in reached
        assert "repro.stats.registry.unreached" not in reached
        chain = graph.chain(roots, "repro.stats.registry.record")
        assert chain == [
            "repro.fleet.worker.worker_main",
            "repro.stats.registry.record",
        ]

    def test_chain_missing_target_is_empty(self):
        graph = CallGraph(build_table())
        assert graph.chain(
            ["repro.fleet.worker.worker_main"],
            "repro.stats.registry.unreached",
        ) == []


class TestSpawnEntrypoints:
    def test_worker_mains_and_job_runs(self):
        roots = spawn_entrypoints(build_table())
        assert roots == [
            "repro.fleet.worker.worker_main",
            "repro.runner.figures.ShardUnitTask.run",
        ]

    def test_helpers_are_not_roots(self):
        roots = spawn_entrypoints(build_table())
        assert "repro.fleet.worker._helper" not in roots
