"""Package-level checks: public API surface, ``__slots__`` and doctests."""

import doctest
import importlib
import inspect
import pkgutil

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
