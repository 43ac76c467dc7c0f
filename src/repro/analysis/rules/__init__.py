"""Built-in simulator-correctness rules.

Importing this package registers every rule family:

* ``determinism`` — REPRO101..REPRO105
* ``durability``  — REPRO106..REPRO108
* ``slots``       — REPRO301..REPRO302
* ``simtime``     — REPRO401..REPRO402
* ``pool``        — REPRO501
* ``units``       — REPRO601..REPRO603
"""

from __future__ import annotations

from repro.analysis.rules import (determinism, durability, pool, simtime,
                                  slots, units)

__all__ = ["determinism", "durability", "pool", "simtime", "slots", "units"]
