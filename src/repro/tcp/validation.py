"""Validation of the packet-level TCP substrate against the analytic model.

FLoc's entire parameterisation (Eqs. IV.1-IV.3, the MTD reference, the
Section V-B.1 estimator) assumes the classic TCP model: window uniform on
``[W/2, W]``, throughput ``(3/4) W / RTT``, one drop per congestion epoch,
and the inverse square-root law ``rate ~ (1/RTT) * sqrt(2/p)``.  This
module runs controlled single-bottleneck experiments on the packet engine
and reports model-vs-measured ratios, so the substrate's fidelity is a
*measured* quantity (see ``tests/tcp/test_validation.py`` and the
``test_model_validation`` benchmark) rather than an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..net.engine import Engine
from ..net.topology import Topology
from .source import TcpSource
from . import model

#: bottleneck capacity, packets/tick
CAPACITY = 10.0
#: routers on every flow's path; the bottleneck leaves the first
HOPS = 3


@dataclass
class ValidationPoint:
    """One controlled experiment: n flows through a known bottleneck."""

    n_flows: int
    capacity: float  # packets/tick at the bottleneck
    rtt_ticks: float  # propagation RTT
    measured_rate: float  # aggregate serviced packets/tick
    measured_drop_rate: float  # drops/tick at the bottleneck
    model_drop_rate: float  # Eq. from Section V-B.1 at the same operating point
    estimated_flows: float  # Section V-B.1 inversion from measured values

    @property
    def utilization(self) -> float:
        return self.measured_rate / self.capacity

    @property
    def drop_rate_ratio(self) -> float:
        """measured / model drop rate; 1.0 = perfect agreement."""
        if self.model_drop_rate <= 0:
            return float("inf")
        return self.measured_drop_rate / self.model_drop_rate

    @property
    def flow_count_ratio(self) -> float:
        """estimated / true flow count; 1.0 = perfect estimator."""
        return self.estimated_flows / self.n_flows


def run_validation_point(
    n_flows: int,
    warmup_ticks: int = 800,
    measure_ticks: int = 2_000,
    seed: int = 1,
) -> ValidationPoint:
    """Run ``n_flows`` persistent TCP flows through one drop-tail bottleneck.

    The bottleneck (``CAPACITY`` packets/tick, the first of ``HOPS``
    routers) buffers one bandwidth-delay product, the regime the analytic
    model describes.
    """
    topo = Topology()
    nodes = [f"r{i}" for i in range(HOPS)] + ["srv"]
    for i in range(n_flows):
        topo.add_duplex_link(f"h{i}", nodes[0], capacity=None)
    for a, b in zip(nodes, nodes[1:]):
        topo.add_duplex_link(a, b, capacity=None)
    rtt = 2.0 * (HOPS + 1)
    buffer = max(8, int(CAPACITY * rtt))
    topo.add_link(nodes[0], nodes[1], capacity=CAPACITY, buffer=buffer)

    engine = Engine(topo, seed=seed)
    for i in range(n_flows):
        flow = engine.open_flow(f"h{i}", "srv", path_id=(1,))
        engine.add_source(TcpSource(flow, start_tick=(7 * i) % 100))
    monitor = engine.add_monitor(nodes[0], nodes[1])
    engine.run(warmup_ticks)
    base_serviced = monitor.total_serviced
    base_dropped = monitor.total_dropped
    engine.run(measure_ticks)

    measured_rate = (monitor.total_serviced - base_serviced) / measure_ticks
    measured_drops = (monitor.total_dropped - base_dropped) / measure_ticks

    # model operating point: n flows fairly share the *measured* service
    # rate at the effective RTT (propagation + standing queue delay)
    queue_delay = len(topo.link(nodes[0], nodes[1]).queue) / CAPACITY
    effective_rtt = rtt + queue_delay
    w = model.peak_window(max(measured_rate, 1e-9), effective_rtt, n_flows)
    model_drops = model.drop_rate(measured_rate, w)
    estimated = (
        model.flows_from_drop_rate(measured_rate, effective_rtt,
                                   measured_drops)
        if measured_drops > 0
        else 0.0
    )
    return ValidationPoint(
        n_flows=n_flows,
        capacity=CAPACITY,
        rtt_ticks=rtt,
        measured_rate=measured_rate,
        measured_drop_rate=measured_drops,
        model_drop_rate=model_drops,
        estimated_flows=estimated,
    )


def run_validation_sweep(
    flow_counts=(4, 8, 16, 32), seed: int = 1
) -> List[ValidationPoint]:
    """Validation points across flow counts (drop rates spanning decades)."""
    return [run_validation_point(n, seed=seed) for n in flow_counts]
