"""Discrete-event simulation engine.

This subpackage is the ns-2 replacement at the scheduling layer: a
monotonic virtual clock, a binary-heap event queue, cancellable timers,
independent seeded random-number streams, and time-series probes.

Public classes
--------------
:class:`~repro.sim.engine.Simulator`
    The event loop.  Everything in :mod:`repro.net`, :mod:`repro.tcp`,
    and :mod:`repro.traffic` schedules callbacks through it.
:class:`~repro.sim.engine.Event`
    A handle to a scheduled callback; supports cancellation.
:class:`~repro.sim.engine.Timer`
    A restartable one-shot timer with an in-place reschedule fast path
    (no heap churn when the deadline only moves later).
:class:`~repro.sim.random.RngStreams`
    A registry of named, independently-seeded ``random.Random`` streams so
    that e.g. flow start times and packet-size draws never perturb each
    other across runs.
:class:`~repro.sim.trace.TimeSeries` / :class:`~repro.sim.trace.Probe`
    Lightweight trace recording used by the metrics layer.
"""

from repro.sim.engine import Event, Simulator, Timer
from repro.sim.random import RngStreams
from repro.sim.trace import Probe, TimeSeries

__all__ = [
    "Simulator",
    "Event",
    "Timer",
    "RngStreams",
    "TimeSeries",
    "Probe",
]
