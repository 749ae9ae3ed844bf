"""Substrate fidelity: the packet engine vs the paper's analytic model.

Not a paper figure — this is the calibration table a reproduction should
publish: how closely does the simulated TCP behaviour match the model
FLoc's equations assume?
"""

from repro.analysis.report import format_table
from repro.tcp.validation import run_validation_sweep


def test_model_validation():
    sweep = run_validation_sweep(flow_counts=(4, 8, 16, 32))
    print(
        format_table(
            ["flows", "utilization", "drop rate (meas)", "drop rate (model)",
             "meas/model", "estimated flows"],
            [
                [p.n_flows, p.utilization, p.measured_drop_rate,
                 p.model_drop_rate, p.drop_rate_ratio, p.estimated_flows]
                for p in sweep
            ],
            title="SUBSTRATE: packet engine vs analytic TCP model",
        )
    )
    for point in sweep:
        assert point.utilization > 0.9
        assert 0.3 < point.drop_rate_ratio < 8.0
        assert 0.3 < point.flow_count_ratio < 3.0
    # convergence toward the model with multiplexing
    ratios = [p.drop_rate_ratio for p in sweep]
    assert ratios[-1] < ratios[0]
