"""Package-level checks: public API surface, ``__slots__`` and doctests."""

import doctest
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", [
        "repro.sim", "repro.net", "repro.tcp", "repro.traffic",
        "repro.queueing", "repro.core", "repro.metrics", "repro.fluid",
        "repro.experiments", "repro.cli",
    ])
    def test_subpackage_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_headline_functions_importable_from_top(self):
        from repro import (  # noqa: F401
            Simulator,
            TcpFlow,
            build_dumbbell,
            recommend_buffer,
            rule_of_thumb_bytes,
            small_buffer_bytes,
        )


#: Modules a long-flow run never calls: the theory, the sweep fleet, the
#: fault layer, the trace exporter and schema, the CC zoo, SACK and UDP.
NOT_ON_THE_SIM_PATH = (
    "repro.core", "repro.queueing", "repro.scenarios", "repro.fabric",
    "repro.runner.supervisor", "repro.faults", "repro.obs.export",
    "repro.obs.schema", "repro.tcp.cc_zoo", "repro.tcp.sack",
    "repro.traffic.udp",
)

TINY_RENO_CELL = """
from repro.experiments.common import run_long_flow_experiment
run_long_flow_experiment(n_flows=2, buffer_packets=8, pipe_packets=20,
                         bottleneck_rate="10Mbps", warmup=0.2, duration=0.3)
"""


class TestImportCensus:
    """What a cold start compiles: a simulation imports the simulator,
    and the CLI's parser imports no simulator at all."""

    def test_a_simulation_imports_only_the_simulator(self, fresh_python):
        imported = fresh_python("import repro.experiments.common")
        assert len(imported) <= 40, imported
        ran = fresh_python(TINY_RENO_CELL)
        assert [name for name in ran
                if name.startswith(NOT_ON_THE_SIM_PATH)] == []

    def test_the_parser_imports_no_simulator(self, fresh_python):
        loaded = fresh_python(
            "from repro.cli import build_parser\nbuild_parser()")
        assert [name for name in loaded
                if name.startswith(("repro.sim", "repro.tcp"))] == []


def own_slots(cls):
    declared = vars(cls).get("__slots__", ())
    return {declared} if isinstance(declared, str) else set(declared)


class TestSlots:
    def test_no_class_redeclares_a_slot_of_its_bases(self):
        """A slot named again below its base hides the base's storage
        (the data model calls the result undefined) and costs a word
        per instance."""
        redeclared = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith(".__main__"):
                continue
            for cls in vars(importlib.import_module(info.name)).values():
                if inspect.isclass(cls) and cls.__module__ == info.name:
                    redeclared += [
                        f"{cls.__qualname__}.{name} ({base.__qualname__})"
                        for base in cls.__mro__[1:]
                        for name in own_slots(cls) & own_slots(base)]
        assert redeclared == []


class TestDoctests:
    @pytest.mark.parametrize("module_name", [
        "repro.units",
        "repro.core.sizing",
        "repro.core.utilization",
        "repro.queueing.mg1",
        "repro.core.short_flows",
        "repro.sim.engine",
    ])
    def test_module_doctests(self, module_name):
        module = importlib.import_module(module_name)
        result = doctest.testmod(module)
        assert result.failed == 0

    def test_readme_examples(self):
        """README's ``>>>`` blocks, run as a user would paste them."""
        readme = Path(__file__).resolve().parent.parent / "README.md"
        result = doctest.testfile(str(readme), module_relative=False)
        assert result.attempted > 0
        assert result.failed == 0
