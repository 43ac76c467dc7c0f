"""Declarative fault timelines installed onto a simulator.

A :class:`FaultSchedule` is a list of :class:`FaultEvent` objects, each
naming a *target* ("bottleneck", "reverse", "left", "right", or any key
the caller supplies) that is resolved against a target map at install
time.  Experiments build the map with :func:`targets_for_dumbbell`, so a
schedule can be written before the network exists — which is what lets
the CLI accept ``--flap 30,2`` and the sweep supervisor re-run the same
schedule under a different seed.

Every fault that fires appends a ``(time, description)`` entry to
``schedule.log``, giving experiments an audit trail to report next to
their metrics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import FaultError
from repro.faults.injectors import RandomCorruption, RandomLoss
from repro.net.interface import Interface
from repro.net.link import Link
from repro.net.node import Node
from repro.net.queues import Queue
from repro.obs import runtime as _obs

__all__ = [
    "FaultEvent",
    "LinkDown",
    "LinkUp",
    "LinkFlap",
    "LossBurst",
    "CorruptionBurst",
    "RouterRestart",
    "FaultSchedule",
    "targets_for_dumbbell",
]


def targets_for_dumbbell(net) -> Dict[str, object]:
    """Standard target map for a :class:`~repro.net.topology.DumbbellNetwork`.

    ``"bottleneck"`` and ``"reverse"`` name the two directions of the
    shared link; ``"left"`` and ``"right"`` name the routers.
    """
    return {
        "bottleneck": net.bottleneck,
        "reverse": net.reverse,
        "left": net.left,
        "right": net.right,
    }


def _resolve(targets: Mapping[str, object], name: str) -> object:
    try:
        return targets[name]
    except KeyError:
        raise FaultError(
            f"unknown fault target {name!r}; available: {sorted(targets)}"
        ) from None


def _link_of(obj: object, name: str) -> Link:
    if isinstance(obj, Link):
        return obj
    if isinstance(obj, Interface):
        return obj.link
    raise FaultError(f"target {name!r} ({type(obj).__name__}) has no link")


def _queue_of(obj: object, name: str) -> Queue:
    if isinstance(obj, Queue):
        return obj
    if isinstance(obj, Interface):
        return obj.queue
    raise FaultError(f"target {name!r} ({type(obj).__name__}) has no queue")


def _router_of(obj: object, name: str) -> Node:
    if isinstance(obj, Node):
        return obj
    raise FaultError(f"target {name!r} ({type(obj).__name__}) is not a router")


@dataclass
class FaultEvent:
    """Base class: one timed perturbation aimed at a named target."""

    at: float
    target: str = "bottleneck"

    def validate(self) -> None:
        if self.at < 0:
            raise FaultError(f"{type(self).__name__}: at={self.at} must be >= 0")

    def install(self, sim, targets: Mapping[str, object],
                schedule: "FaultSchedule") -> None:
        raise NotImplementedError


@dataclass
class LinkDown(FaultEvent):
    """Take the target's link down at ``at`` (forever, unless a later
    :class:`LinkUp` or the ``up()`` side of a flap restores it)."""

    def install(self, sim, targets, schedule) -> None:
        link = _link_of(_resolve(targets, self.target), self.target)

        def fire() -> None:
            link.down()
            schedule._record(sim, f"link {self.target} down")

        sim.call_at(self.at, fire)


@dataclass
class LinkUp(FaultEvent):
    """Restore the target's link at ``at``."""

    def install(self, sim, targets, schedule) -> None:
        link = _link_of(_resolve(targets, self.target), self.target)

        def fire() -> None:
            link.up()
            schedule._record(sim, f"link {self.target} up")

        sim.call_at(self.at, fire)


@dataclass
class LinkFlap(FaultEvent):
    """Down at ``at``, back up ``duration`` seconds later.

    Packets in flight when the link drops are lost; the output queue
    keeps absorbing arrivals (and overflowing) during the outage, so
    recovery starts with a burst of queued backlog — the dynamics the
    buffer is there to ride out.
    """

    duration: float = 1.0

    def validate(self) -> None:
        super().validate()
        if self.duration <= 0:
            raise FaultError(
                f"LinkFlap: duration={self.duration} must be positive")

    def install(self, sim, targets, schedule) -> None:
        link = _link_of(_resolve(targets, self.target), self.target)

        def go_down() -> None:
            link.down()
            schedule._record(
                sim, f"link {self.target} down (flap, {self.duration:g}s)")

        def go_up() -> None:
            link.up()
            schedule._record(sim, f"link {self.target} up (flap over)")

        sim.call_at(self.at, go_down)
        sim.call_at(self.at + self.duration, go_up)


@dataclass
class _InjectorBurst(FaultEvent):
    """Shared shape for time-bounded probabilistic injector faults."""

    duration: float = 1.0
    probability: float = 0.01
    data_only: bool = True
    injector_cls = None  # set by subclasses

    def validate(self) -> None:
        super().validate()
        if self.duration <= 0:
            raise FaultError(
                f"{type(self).__name__}: duration={self.duration} must be positive")
        if not 0.0 < self.probability <= 1.0:
            raise FaultError(
                f"{type(self).__name__}: probability={self.probability} "
                f"must be in (0, 1]")

    def install(self, sim, targets, schedule) -> None:
        queue = _queue_of(_resolve(targets, self.target), self.target)
        if schedule.rng is None:
            raise FaultError(
                f"{type(self).__name__} needs an rng: pass one to "
                f"FaultSchedule.install()")
        injector = self.injector_cls(schedule.rng, self.probability,
                                     data_only=self.data_only)
        verb = self.injector_cls.action

        def start() -> None:
            queue.add_injector(injector)
            schedule._record(
                sim, f"{verb} burst on {self.target} "
                     f"(p={self.probability:g}, {self.duration:g}s)")

        def stop() -> None:
            queue.remove_injector(injector)
            schedule._record(
                sim, f"{verb} burst on {self.target} over "
                     f"({injector.injected} injected)")

        sim.call_at(self.at, start)
        sim.call_at(self.at + self.duration, stop)


@dataclass
class LossBurst(_InjectorBurst):
    """Bernoulli packet loss on the target queue during the burst."""

    injector_cls = RandomLoss


@dataclass
class CorruptionBurst(_InjectorBurst):
    """Bernoulli payload corruption on the target queue during the burst."""

    injector_cls = RandomCorruption


@dataclass
class RouterRestart(FaultEvent):
    """Reboot the target router at ``at``.

    All of the router's output buffers are flushed (their contents are
    counted as drops) and every attached link goes down for ``downtime``
    seconds — a control-plane reload taking the forwarding plane with it.
    """

    target: str = "left"
    downtime: float = 0.5

    def validate(self) -> None:
        super().validate()
        if self.downtime <= 0:
            raise FaultError(
                f"RouterRestart: downtime={self.downtime} must be positive")

    def install(self, sim, targets, schedule) -> None:
        router = _router_of(_resolve(targets, self.target), self.target)
        ifaces = list(router.interfaces.values())

        def go_down() -> None:
            flushed = sum(iface.queue.flush() for iface in ifaces)
            for iface in ifaces:
                iface.link.down()
            schedule._record(
                sim, f"router {self.target} restarting "
                     f"({flushed} pkts flushed, {self.downtime:g}s down)")

        def go_up() -> None:
            for iface in ifaces:
                iface.link.up()
            schedule._record(sim, f"router {self.target} back up")

        sim.call_at(self.at, go_down)
        sim.call_at(self.at + self.downtime, go_up)


class FaultSchedule:
    """An ordered collection of fault events plus their firing log.

    Parameters
    ----------
    events:
        Initial fault events; more can be appended with :meth:`add`.

    Example::

        faults = FaultSchedule([LinkFlap(at=30.0, duration=2.0)])
        faults.add(LossBurst(at=40.0, duration=5.0, probability=0.02))
    """

    def __init__(self, events: Sequence[FaultEvent] = ()):
        self.events: List[FaultEvent] = []
        self.log: List[Tuple[float, str]] = []
        self.rng = None
        self._installed = False
        for event in events:
            self.add(event)

    def add(self, event: FaultEvent) -> "FaultSchedule":
        """Validate and append one event; returns self for chaining."""
        if not isinstance(event, FaultEvent):
            raise FaultError(f"not a FaultEvent: {event!r}")
        event.validate()
        self.events.append(event)
        return self

    def __len__(self) -> int:
        return len(self.events)

    def to_dict(self) -> Dict[str, object]:
        """Content-based identity: the configured events, nothing else.

        Runtime state (firing log, rng, installed flag) is deliberately
        excluded — two schedules describing the same faults must compare
        and key identically, which is what lets a sweep checkpoint match
        the same cell across processes and restarts.
        """
        return {
            "events": [
                {"type": type(event).__name__, **dataclasses.asdict(event)}
                for event in self.events
            ],
        }

    def __repr__(self) -> str:
        # Stable and content-based (the default object repr embeds the
        # memory address, which poisons anything keyed on it).
        return f"FaultSchedule({self.events!r})"

    def install(self, sim, targets: Mapping[str, object], rng=None) -> None:
        """Schedule every event onto ``sim`` against ``targets``.

        ``rng`` is required if any event draws randomness (loss and
        corruption bursts).  A schedule installs at most once — reuse
        across runs would double-fire events.
        """
        if self._installed:
            raise FaultError("FaultSchedule already installed; build a new one "
                             "per run (schedules hold per-run state)")
        self._installed = True
        self.rng = rng
        for event in self.events:
            event.install(sim, targets, self)

    def _record(self, sim, message: str) -> None:
        self.log.append((sim.now, message))
        if _obs.enabled:
            _obs.fault_event(sim, message)
