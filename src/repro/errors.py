"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single exception type at an API boundary.  More
specific subclasses distinguish configuration mistakes (bad units, invalid
scenario parameters) from runtime simulation faults (scheduling into the
past, routing black holes).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "UnitError",
    "SimulationError",
    "SchedulingError",
    "SimulationStalledError",
    "InvariantViolation",
    "RoutingError",
    "QueueError",
    "PacketPoolError",
    "FaultError",
    "ModelError",
    "ObsError",
    "FabricError",
    "CorruptRecordError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError, ValueError):
    """A scenario, topology, or agent was configured with invalid values."""


class UnitError(ConfigurationError):
    """A quantity string ("155Mbps", "80ms", ...) could not be parsed."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulation reached an inconsistent state."""


class SchedulingError(SimulationError):
    """An event was scheduled at a time earlier than the current clock,
    or with a non-finite delay/timestamp."""


class SimulationStalledError(SimulationError):
    """A watchdog budget (event count or wall clock) was exhausted before
    the simulation reached its horizon — the run is presumed hung."""


class InvariantViolation(SimulationError):
    """A structural invariant (packet conservation, non-negative queue
    occupancy, monotone virtual clock) failed: the simulation state is
    silently corrupt and its results must not be trusted."""


class RoutingError(SimulationError):
    """A packet reached a node with no route toward its destination."""


class PacketPoolError(InvariantViolation):
    """Packet free-list misuse: double release or use-after-release."""


class QueueError(InvariantViolation):
    """A queue invariant was violated (e.g. negative occupancy)."""


class FaultError(ConfigurationError):
    """A fault-injection schedule was invalid (unknown target, bad times)."""


class ModelError(ReproError, ValueError):
    """An analytic model was evaluated outside its domain (e.g. load >= 1)."""


class ObsError(ReproError, ValueError):
    """Observability misuse: invalid metric/recorder configuration, or a
    trace event that does not conform to the flight-recorder schema."""


class FabricError(ReproError, RuntimeError):
    """The distributed sweep fabric reached an unusable state (queue
    protocol violation, unresolvable trial function, spec mismatch)."""


class CorruptRecordError(FabricError):
    """A framed fabric record failed its length/checksum validation —
    the write was torn (crash mid-write) or the file was damaged."""
