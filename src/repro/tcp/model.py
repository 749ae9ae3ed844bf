"""Analytic TCP flow model (paper Sections IV-A and V-B.1).

The FLoc router derives its token-bucket parameters from the idealized
persistent-TCP model: a source's congestion window is uniform on
``[W/2, W]`` where ``W`` is the peak window, so

* the average window is ``3W/4`` and a flow's bandwidth is
  ``bw = (3/4) W / RTT``,
* a flow experiences one drop per congestion epoch of ``W/2`` RTTs, i.e.
  its *mean time to drop* is ``MTD = (W/2) RTT``,
* with ``n`` flows fairly sharing a guaranteed bandwidth ``C``, the peak
  window is ``W = 4 C RTT / (3 n)``.

From these follow the paper's equations:

* Eq. (IV.1)  token generation period
  ``T = (W/2) RTT / n = (2/3) C RTT^2 / n^2``,
* Eq. (IV.2)  base bucket size ``N = C T = (2/3) C^2 RTT^2 / n^2``,
* Eq. (IV.3)  increased bucket size
  ``N' = (1 + eps * sigma/mu) N = (1 + 2 / (3 sqrt(n))) N`` for i.i.d.
  flows with ``eps = sqrt(12)`` (bounds peak aggregate requests with
  probability 99.77 %),
* worst case (fully synchronised flows) bucket ``N_sync = (4/3) N``,
* Section V-B.1: the drop *ratio* of a path's aggregate is
  ``gamma = 8 / (3 W (W + 2))`` and the drop *rate* is
  ``delta = gamma * C``, which lets a router estimate the number of
  competing TCP flows from observable quantities only.

All times are in the caller's unit (ticks or seconds) as long as bandwidth
uses the matching unit (packets per tick or per second).
"""

from __future__ import annotations

import math

from ..errors import ConfigError

#: Increase factor for the i.i.d. bucket (paper: sqrt(12) bounds the peak
#: aggregate token request with probability 99.77 %).
EPSILON = math.sqrt(12.0)


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")


# ----------------------------------------------------------------------
# single-flow model
# ----------------------------------------------------------------------
def mean_window(peak_window: float) -> float:
    """Average congestion window for a peak window ``W`` (uniform model)."""
    _require_positive(peak_window=peak_window)
    return 0.75 * peak_window


def window_std(peak_window: float) -> float:
    """Standard deviation of the window, uniform on ``[W/2, W]``."""
    _require_positive(peak_window=peak_window)
    return (peak_window / 2.0) / math.sqrt(12.0)


def flow_bandwidth(peak_window: float, rtt: float) -> float:
    """Long-run bandwidth of one flow: ``(3/4) W / RTT``."""
    _require_positive(peak_window=peak_window, rtt=rtt)
    return mean_window(peak_window) / rtt


def peak_window(bandwidth: float, rtt: float, n_flows: float = 1.0) -> float:
    """Peak window when ``n`` flows fairly share bandwidth ``C``.

    Inverse of :func:`flow_bandwidth` applied to the per-flow share:
    ``W = 4 C RTT / (3 n)``.
    """
    _require_positive(bandwidth=bandwidth, rtt=rtt, n_flows=n_flows)
    return 4.0 * bandwidth * rtt / (3.0 * n_flows)


def mtd(peak_window_size: float, rtt: float) -> float:
    """Mean time to drop of one flow: one drop per ``(W/2) RTT``."""
    _require_positive(peak_window_size=peak_window_size, rtt=rtt)
    return 0.5 * peak_window_size * rtt


# ----------------------------------------------------------------------
# token-bucket parameters (Eqs. IV.1-IV.3)
# ----------------------------------------------------------------------
def token_period(bandwidth: float, rtt: float, n_flows: float) -> float:
    """Eq. (IV.1): ``T = MTD(f) / n = (2/3) C RTT^2 / n^2``."""
    _require_positive(bandwidth=bandwidth, rtt=rtt, n_flows=n_flows)
    return (2.0 / 3.0) * bandwidth * rtt * rtt / (n_flows * n_flows)


def bucket_size(bandwidth: float, rtt: float, n_flows: float) -> float:
    """Eq. (IV.2): ``N = C T = (2/3) C^2 RTT^2 / n^2``."""
    return bandwidth * token_period(bandwidth, rtt, n_flows)


def increased_bucket_size(bandwidth: float, rtt: float, n_flows: float) -> float:
    """Eq. (IV.3): the i.i.d.-flow bucket ``N' = (1 + 2/(3 sqrt(n))) N``.

    Derivation: for ``n`` i.i.d. windows uniform on ``[W/2, W]``,
    ``sigma_S = window_std(W) * sqrt(n)`` and ``mu_S = n * (3/4) W``, so
    ``eps * sigma_S / mu_S = 2 / (3 sqrt(n))`` with ``eps = sqrt(12)``.
    """
    base = bucket_size(bandwidth, rtt, n_flows)
    return (1.0 + 2.0 / (3.0 * math.sqrt(n_flows))) * base


# ----------------------------------------------------------------------
# drop-ratio model (Section V-B.1)
# ----------------------------------------------------------------------
def drop_ratio(peak_window_size: float) -> float:
    """Aggregate drop ratio ``gamma = 8 / (3 W (W + 2))``.

    One drop per congestion epoch; an epoch delivers
    ``sum_{w=W/2}^{W} w ~= (3/8) W (W + 2)`` packets.
    """
    _require_positive(peak_window_size=peak_window_size)
    return 8.0 / (3.0 * peak_window_size * (peak_window_size + 2.0))


def drop_rate(bandwidth: float, peak_window_size: float) -> float:
    """Aggregate drop rate ``delta = gamma * C`` (drops per time unit)."""
    _require_positive(bandwidth=bandwidth)
    return drop_ratio(peak_window_size) * bandwidth


def window_from_drop_ratio(gamma: float) -> float:
    """Invert :func:`drop_ratio`: ``W`` such that ``8/(3 W (W+2)) = gamma``.

    Solves ``W^2 + 2 W - 8/(3 gamma) = 0`` for the positive root.
    """
    _require_positive(gamma=gamma)
    return -1.0 + math.sqrt(1.0 + 8.0 / (3.0 * gamma))


def flows_from_drop_rate(bandwidth: float, rtt: float, delta: float) -> float:
    """Estimate the number of competing TCP flows from observables.

    Given the serviced bandwidth ``C``, path RTT and measured drop rate
    ``delta`` of a path aggregate, recover ``W`` from
    ``delta = 8 C / (3 W (W + 2))`` and then
    ``n = 4 C RTT / (3 W)``.  This is the router-side flow-count
    estimator of Section V-B.1 (no per-flow state needed).
    """
    _require_positive(bandwidth=bandwidth, rtt=rtt, delta=delta)
    gamma = delta / bandwidth
    w = window_from_drop_ratio(gamma)
    return 4.0 * bandwidth * rtt / (3.0 * w)
