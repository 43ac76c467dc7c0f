"""Canned results for every ``repro.experiments.report`` section.

``CASES[key]`` is ``(good, violations)``: ``good`` satisfies every claim
of the section; ``violations[i]`` differs from it just enough to make
claim ``i`` false.  No simulation runs here — these are the artefact
modules' own result types, filled in by hand.
"""

import math
from dataclasses import replace

from repro.experiments.ablations import AblationRow
from repro.experiments.afct_comparison import MixResult
from repro.experiments.cc_comparison import (CcComparisonResult, CcDynamics,
                                             CcMinBuffer)
from repro.experiments.common import ShortFlowResult
from repro.experiments.long_flow_sweep import MinBufferPoint, SweepResult
from repro.experiments.model_comparison import ComparisonRow
from repro.experiments.multibottleneck import MultiBottleneckResult
from repro.experiments.production_network import ProductionRow
from repro.experiments.short_flow_sweep import ShortFlowPoint
from repro.experiments.single_flow import SingleFlowTrace
from repro.experiments.utilization_table import TableRow
from repro.experiments.window_distribution import WindowDistributionResult
from repro.metrics.windows import GaussianFit
from repro.runner import TrialOutcome
from repro.sim import TimeSeries


def stub_sections(monkeypatch, **overrides):
    """Replace every section's compute function by one that returns its
    canned result (``overrides``: key -> result instead of the good one).

    Returns the list the stubs append their ``(key, params)`` calls to.
    """
    from repro.experiments import report

    calls = []
    for key, section in report.SECTIONS.items():
        def run(_key=key, _result=overrides.get(key, CASES[key][0]), **params):
            calls.append((_key, params))
            return _result
        monkeypatch.setitem(report.SECTIONS, key, section._replace(run=run))
    return calls


def _swap(rows, index, **changes):
    """``rows`` with ``rows[index]`` replaced by a changed copy."""
    rows = list(rows)
    rows[index] = replace(rows[index], **changes)
    return rows


# -- Figures 2-5 -------------------------------------------------------
def _trace(fraction, utilization, model, min_queue):
    series = TimeSeries("w")
    for t in range(5):
        series.append(40.0 + t, 100.0 + 10 * t)
    return SingleFlowTrace(
        buffer_fraction=fraction, buffer_packets=int(125 * fraction),
        pipe_packets=125.0, cwnd=series, queue=series,
        utilization=utilization, model_utilization=model,
        min_queue=min_queue, max_queue=125.0 * fraction)


_FIG2 = [_trace(0.25, 0.890, 0.8920, 0.0), _trace(0.5, 0.960, 0.9635, 0.0),
         _trace(1.0, 1.0, 1.0, 0.0), _trace(2.0, 1.0, 1.0, 120.0)]

# -- Figure 6 ----------------------------------------------------------
_DIST = WindowDistributionResult(
    n_flows=100, fit=GaussianFit(mean=450.0, std=20.0, ks_distance=0.03,
                                 n_samples=1000),
    sync_index=0.01, histogram=([400.0, 450.0, 500.0], [480, 520]),
    utilization=0.97)
_FIG6 = (_DIST, [(4, 0.8), (16, 0.5), (64, 0.2)])


# -- Figure 7 ----------------------------------------------------------
def _sweep(*cells):
    """cells: (n, target, buffer or nan); the model is 400/sqrt(n)."""
    points = [MinBufferPoint(n, target, b, b / (400 / math.sqrt(n)),
                             400 / math.sqrt(n)) for n, target, b in cells]
    return SweepResult(pipe_packets=400.0, points=points)


_FIG7 = _sweep((16, 0.98, 120.0), (16, 0.995, 200.0),
               (100, 0.98, 50.0), (100, 0.995, math.nan))
FIG7_OFF_GRID = _sweep((16, 0.98, math.nan), (16, 0.995, math.nan),
                       (100, 0.98, math.nan), (100, 0.995, math.nan))

# -- Figure 8 ----------------------------------------------------------
def _drops(load, buffer, drop_rate):
    return ShortFlowResult(load, buffer, 0.30, 400, drop_rate, 0.8, 0.9, 10)


def _fig8(points=None, by_load=None, by_rtt=None):
    """Figure 8 with the sweep points or a contrast replaced."""
    return (_POINTS if points is None else points,
            {0.5: _drops(0.5, 10, 0.010), 0.9: _drops(0.9, 10, 0.050)}
            if by_load is None else by_load,
            {1: _drops(0.8, 30, 0.002), 4: _drops(0.8, 30, 0.004)}
            if by_rtt is None else by_rtt)


_POINTS = [ShortFlowPoint(rate, 0.8, 0.30, buffer, 44.3, 0.33)
           for rate, buffer in ((10e6, 30.0), (20e6, 40.0), (40e6, 40.0))]

# -- Figure 9 ----------------------------------------------------------
_SMALL = MixResult(buffer_packets=57, afct=0.30, p99_fct=0.9,
                   n_short_completed=500, utilization=0.95, mean_queue=15.0,
                   short_flows_with_loss=3)
_LARGE = MixResult(buffer_packets=400, afct=0.50, p99_fct=1.2,
                   n_short_completed=500, utilization=0.99, mean_queue=150.0,
                   short_flows_with_loss=0)
FIG9_NO_SHORT_FLOWS = (replace(_SMALL, afct=math.nan, p99_fct=math.nan,
                               n_short_completed=0), _LARGE)

# -- Table 10 ----------------------------------------------------------
_TABLE10 = [TableRow(36, 0.5, 33, 0.990, 0.90, 0.91),
            TableRow(36, 1.0, 67, 0.999, 0.96, 0.97),
            TableRow(36, 2.0, 133, 1.0, 0.995, 0.996),
            TableRow(36, 3.0, 200, 1.0, 0.999, 0.999)]

# -- Table 11 ----------------------------------------------------------
_TABLE11 = [ProductionRow(b, b / 58.0, u, u * 20e6, 0.999)
            for b, u in ((500, 0.999), (85, 0.990), (65, 0.985), (46, 0.975))]

# -- Ablations ---------------------------------------------------------
_ABLATIONS = {
    "queue": [AblationRow("drop-tail", 0.96, 0.04), AblationRow("RED", 0.95, 0.03)],
    "delack": [AblationRow("ack-every-segment", 0.96, 0.04),
               AblationRow("delayed-ack", 0.94, 0.03)],
    "rtt": [AblationRow("homogeneous", 0.90, 0.04, sync_index=0.5),
            AblationRow("spread", 0.96, 0.04, sync_index=0.01)],
    "cc": [AblationRow("tahoe", 0.95, 0.04, extra=900.0),
           AblationRow("reno", 0.96, 0.04, extra=800.0),
           AblationRow("newreno", 0.97, 0.04, extra=700.0)],
    "pacing": [AblationRow("unpaced", 0.70, 0.06, extra=1500.0),
               AblationRow("paced", 0.88, 0.02, extra=300.0)],
    "sack": [AblationRow("reno", 0.96, 0.04, extra=1200.0),
             AblationRow("reno+sack", 0.98, 0.04, extra=600.0)],
    "ecn": [AblationRow("RED (drop)", 0.96, 0.03, extra=800.0),
            AblationRow("RED + ECN (mark)", 0.955, 0.001, extra=90.0)],
    "access": [AblationRow("access 10x", 0.70, 0.010, extra=0.40),
               AblationRow("access 1x", 0.70, 0.004, extra=0.38)],
}


def _ablated(suite, index, **changes):
    return {**_ABLATIONS, suite: _swap(_ABLATIONS[suite], index, **changes)}


# -- Extensions --------------------------------------------------------
_MODELS = [ComparisonRow(16, 56.0, 0.8, 800.0, 100.0),
           ComparisonRow(256, 10.0, 0.8, 700.0, 25.0)]
_MULTI = MultiBottleneckResult(
    hop_utilizations=[0.97, 0.96], e2e_throughput_share=0.03,
    e2e_progress=300.0, cross_progress=4000.0, fairness_within_cross=0.9)


# -- Congestion-control zoo --------------------------------------------
def _zoo_min(cc, n, buffer, paced=False, ceiling=1.0):
    """cc's min buffer at n on a pipe of 100 pkts; grid floor 0.25x."""
    unit = 100 / math.sqrt(n)
    return CcMinBuffer(cc, n, paced, ceiling, buffer, buffer / unit, unit,
                       grid_floor=round(0.25 * unit))


def _zoo(*min_buffers, failed=()):
    dynamics = [CcDynamics(p.cc, p.n_flows, round(p.model_packets), 0.95,
                           0.01, 0.1, 40, 0.013) for p in min_buffers]
    return CcComparisonResult(100.0, dynamics, list(min_buffers), list(failed))


_RENO = [_zoo_min("reno", 8, 65.2), _zoo_min("reno", 16, 37.3)]
_BBR = [_zoo_min("bbr", 8, 9.0, True, 0.84), _zoo_min("bbr", 16, 6.9, True, 0.93)]
_ZOO = _zoo(*_RENO, *_BBR)
#: No Reno to hold the rule or the paced CCs to: both claims are a NO.
ZOO_NO_RENO = _zoo(*_BBR)
#: bbr's reference cell at n = 16 failed: that minimum is unknown.
ZOO_FAILED = _zoo(*_RENO, _BBR[0],
                  _zoo_min("bbr", 16, math.nan, True, math.nan),
                  failed=[TrialOutcome(
                      key="bbr-16-25", error="InvariantViolation: synthetic drop",
                      params=dict(cc="bbr", n_flows=16, buffer_packets=25,
                                  seed=1))])


CASES = {
    "fig2": (_FIG2, [
        _swap(_FIG2, 1, utilization=0.945),
        _swap(_FIG2, 1, min_queue=3.0),
        _swap(_FIG2, 3, min_queue=8.0),
        _swap(_FIG2, 2, utilization=0.995),
        _swap(_FIG2, 1, utilization=0.985, model_utilization=0.98),
        _swap(_FIG2, 2, utilization=0.99),
        _swap(_FIG2, 2, min_queue=3.0),
    ]),
    "fig6": (_FIG6, [
        (replace(_DIST, fit=replace(_DIST.fit, ks_distance=0.09)), _FIG6[1]),
        (replace(_DIST, sync_index=0.15), _FIG6[1]),
        (_DIST, [(4, 0.2), (64, 0.8)]),
        (_DIST, [(4, 0.25), (64, 0.1)]),
    ]),
    "fig7": (_FIG7, [
        _sweep((16, 0.98, 120.0), (16, 0.995, 200.0), (100, 0.98, 120.0)),
        _sweep((16, 0.98, 150.0), (100, 0.98, 140.0)),
        _sweep((16, 0.98, 120.0), (16, 0.995, 100.0), (100, 0.98, 50.0)),
    ]),
    "fig8": (_fig8(), [
        _fig8(_swap(_POINTS, 2, min_buffer_packets=math.nan)),
        _fig8(_swap(_swap(_POINTS, 0, min_buffer_packets=10.0), 2,
                    min_buffer_packets=60.0)),
        _fig8(_swap(_swap(_POINTS, 0, min_buffer_packets=60.0), 2,
                    min_buffer_packets=80.0)),
        _fig8(by_load={0.5: _drops(0.5, 10, 0.050), 0.9: _drops(0.9, 10, 0.050)}),
        _fig8(by_rtt={1: _drops(0.8, 30, 0.002), 4: _drops(0.8, 30, 0.030)}),
    ]),
    "fig9": ((_SMALL, _LARGE), [
        (replace(_SMALL, afct=0.60), _LARGE),
        (replace(_SMALL, afct=0.48), _LARGE),
        (replace(_SMALL, utilization=0.90), _LARGE),
        (_SMALL, replace(_LARGE, mean_queue=25.0)),
    ]),
    "table10": (_TABLE10, [
        _swap(_TABLE10, 2, sim=0.980),
        _swap(_TABLE10, 0, sim=0.980),
        _swap(_TABLE10, 1, sim=0.930),
        _swap(_TABLE10, 1, sim=0.945),
        _swap(_TABLE10, 2, sim=0.988),
    ]),
    "table11": (_TABLE11, [
        _swap(_TABLE11, 0, utilization=0.985),
        _swap(_TABLE11, 2, utilization=0.998),
        [replace(row, utilization=0.999) for row in _TABLE11],
    ]),
    "ablations": (_ABLATIONS, [
        _ablated("queue", 1, utilization=0.85),
        _ablated("delack", 1, utilization=0.80),
        _ablated("rtt", 0, sync_index=0.005),
        _ablated("rtt", 1, sync_index=0.2),
        _ablated("cc", 1, utilization=0.92),
        _ablated("cc", 2, utilization=0.65),
        _ablated("pacing", 1, utilization=0.73),
        _ablated("pacing", 1, loss_rate=0.07),
        _ablated("sack", 1, utilization=0.94),
        _ablated("sack", 1, extra=1300.0),
        _ablated("ecn", 1, loss_rate=0.02),
        _ablated("ecn", 1, utilization=0.90),
        _ablated("access", 1, loss_rate=0.02),
    ]),
    "models": (_MODELS, [
        _swap(_MODELS, 0, fluid_desync=60.0),
        _swap(_MODELS, 0, fluid_sync=30.0),
        _swap(_MODELS, 1, gaussian=4.0),
        _swap(_MODELS, 1, fluid_sync=100.0),
        _swap(_MODELS, 1, fluid_desync=6.0),
    ]),
    "multibottleneck": (_MULTI, [
        replace(_MULTI, hop_utilizations=[0.97, 0.85]),
        replace(_MULTI, e2e_progress=5000.0),
    ]),
    "zoo": (_ZOO, [
        _zoo(_RENO[0], _zoo_min("reno", 16, 55.0), *_BBR),
        _zoo(*_RENO, _BBR[0], _zoo_min("bbr", 16, 40.0, True, 0.93)),
    ]),
}
