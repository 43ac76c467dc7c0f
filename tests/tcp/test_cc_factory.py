"""make_cc error paths and CC config round-tripping through cell keys.

The sweep fabric content-addresses cells by the JSON of their
parameters (:func:`repro.runner.supervisor.cell_key`), so every
algorithm's :meth:`to_dict` must be stable — same configuration, same
dict, every process — and :func:`make_cc` must reject anything whose
identity would be ambiguous.
"""

import inspect
import json

import pytest

from repro.errors import ConfigurationError
from repro.runner.supervisor import cell_key
from repro.sim import Simulator
from repro.tcp import TcpFlow, congestion
from repro.tcp.congestion import (
    CongestionControl,
    available_ccs,
    make_cc,
    register_cc,
)
from tests.tcp.helpers import build_path
from tests.test_package import TINY_RENO_CELL

ZOO = ("compound", "scalable", "hstcp", "bbr")


@pytest.fixture
def scratch_cc():
    """``register_cc`` whose registrations are undone after the test."""
    names = []

    def register(name, cls):
        register_cc(name, cls)
        names.append(name)

    yield register
    for name in names:
        del congestion._CC_BY_NAME[name]


class TestMakeCcErrors:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="unknown congestion"):
            make_cc("cubic")
        with pytest.raises(ConfigurationError, match="reno"):
            make_cc("cubic")

    def test_unknown_parameter_lists_accepted(self):
        with pytest.raises(ConfigurationError,
                           match="does not take parameter"):
            make_cc("reno", alpha=0.125)
        with pytest.raises(ConfigurationError, match="initial_cwnd"):
            make_cc("reno", alpha=0.125)

    @pytest.mark.parametrize("name,bad", [
        ("compound", dict(beta=2.0)),
        ("scalable", dict(decrease=0.0)),
        ("hstcp", dict(high_decrease=0.9)),
        ("bbr", dict(loss_beta=0.0)),
        ("reno", dict(initial_cwnd=0.0)),
    ])
    def test_bad_parameter_values_rejected(self, name, bad):
        with pytest.raises(ConfigurationError):
            make_cc(name, **bad)

    def test_dict_spec_requires_name_string(self):
        with pytest.raises(ConfigurationError, match="'name'"):
            make_cc({"initial_cwnd": 2.0})
        with pytest.raises(ConfigurationError, match="'name'"):
            make_cc({"name": 7})

    def test_unsupported_spec_type(self):
        with pytest.raises(ConfigurationError, match="cc spec"):
            make_cc(42)

    def test_instance_passthrough_rejects_extra_params(self):
        cc = make_cc("reno")
        assert make_cc(cc) is cc
        with pytest.raises(ConfigurationError, match="existing"):
            make_cc(cc, bw_window=5)

    def test_names_are_case_insensitive(self):
        assert type(make_cc("RENO")) is type(make_cc("reno"))
        assert type(make_cc("Bbr")) is type(make_cc("bbr"))

    def test_reregistering_a_taken_name_fails(self):
        class Impostor(CongestionControl):
            name = "reno"

        with pytest.raises(ConfigurationError, match="already registered"):
            register_cc("reno", Impostor)

    def test_catch_all_is_not_a_parameter_name(self, scratch_cc):
        """``**options`` accepts nothing make_cc can vouch for — least
        of all a keyword spelled like the catch-all itself."""
        class Lenient(CongestionControl):
            name = "lenient"

            def __init__(self, initial_cwnd=2.0, initial_ssthresh=1e9,
                         *rest, **options):
                super().__init__(initial_cwnd, initial_ssthresh)
                self.options = options

        scratch_cc("lenient", Lenient)
        assert make_cc("lenient").options == {}
        for stray in ("options", "rest", "gain"):
            with pytest.raises(ConfigurationError,
                               match=f"parameter.s. {stray}; accepted: "
                                     "initial_cwnd, initial_ssthresh$"):
                make_cc("lenient", **{stray: 1})

    def test_zoo_names_are_registered(self):
        names = available_ccs()
        for name in ("tahoe", "reno", "newreno") + ZOO:
            assert name in names


class TestZooLoadsOnAMiss:
    """The three built-ins never load the zoo; a name they lack does.
    Each case runs in a fresh interpreter, where the zoo starts unloaded."""

    def test_a_reno_run_leaves_the_zoo_unloaded(self, fresh_python):
        assert "repro.tcp.cc_zoo" not in fresh_python(TINY_RENO_CELL)

    def test_a_zoo_name_still_builds(self, fresh_python):
        loaded = fresh_python(
            "from repro.tcp.congestion import make_cc\n"
            "assert type(make_cc('bbr')).__name__ == 'BbrLikeCC'")
        assert "repro.tcp.cc_zoo" in loaded

    @pytest.mark.parametrize("code", [
        "assert len(available_ccs()) == 7",
        "try:\n    make_cc('cubic')\nexcept ConfigurationError as exc:\n"
        "    assert all(name in str(exc) for name in"
        " ('tahoe', 'reno', 'newreno', 'compound', 'scalable', 'hstcp', 'bbr'))\n"
        "else:\n    raise AssertionError('cubic built')",
    ], ids=["available_ccs", "unknown-name-error"])
    def test_every_name_is_listed_before_the_zoo_loads(self, fresh_python,
                                                       code):
        fresh_python("from repro.errors import ConfigurationError\n"
                     "from repro.tcp.congestion import available_ccs, make_cc\n"
                     + code)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", ("tahoe", "reno", "newreno") + ZOO)
    def test_to_dict_rebuilds_an_equivalent_instance(self, name):
        cc = make_cc(name)
        spec = cc.to_dict()
        assert spec["name"] == name
        clone = make_cc(spec)
        assert type(clone) is type(cc)
        assert clone.to_dict() == spec
        # The spec is JSON-native (the cell-key requirement).
        assert json.loads(json.dumps(spec)) == spec

    def test_custom_parameters_survive_the_round_trip(self):
        cc = make_cc("bbr", loss_beta=0.8, bw_window=5)
        spec = cc.to_dict()
        assert spec["loss_beta"] == 0.8
        assert spec["bw_window"] == 5
        clone = make_cc(spec)
        assert clone.loss_beta == 0.8
        assert clone.bw_window == 5
        assert clone.to_dict() == spec

    @pytest.mark.parametrize("name", ZOO)
    def test_to_dict_is_constructor_state_only(self, name):
        """Run state must never leak into the spec: two instances of the
        same configuration stay identical after one of them has run."""
        cc = make_cc(name)
        cc.on_ack(10)
        cc.enter_recovery(8.0)
        assert cc.to_dict() == make_cc(name).to_dict()


class TestCellKeys:
    def test_instance_valued_cells_are_content_addressed(self):
        key = cell_key(dict(cc=make_cc("compound"), n_flows=4))
        again = cell_key(dict(cc=make_cc("compound"), n_flows=4))
        assert key == again
        assert json.loads(key)  # the key itself is JSON

    def test_different_parameters_give_different_keys(self):
        base = cell_key(dict(cc=make_cc("bbr")))
        assert cell_key(dict(cc=make_cc("bbr", loss_beta=0.8))) != base
        assert cell_key(dict(cc=make_cc("compound"))) != base

    def test_dict_spec_cells_are_stable(self):
        params = dict(cc=make_cc("scalable").to_dict(), n_flows=8,
                      buffer_packets=10)
        assert cell_key(params) == cell_key(json.loads(json.dumps(params)))

    @pytest.mark.parametrize("name", ZOO)
    def test_every_zoo_cc_is_keyable(self, name):
        key = cell_key(dict(cc=make_cc(name), n_flows=2))
        payload = json.loads(key)
        assert payload["cc"]["name"] == name


class TestIntrospectOncePerClass:
    def test_fifty_flows_one_signature_call(self, monkeypatch, scratch_cc):
        """Flow churn pays for ``inspect.signature`` once per class, and
        a class registered after the factory's first use is introspected
        (and its unknown parameters refused) all the same."""
        calls = []
        real = inspect.signature

        def counting(obj, **kwargs):
            calls.append(obj)
            return real(obj, **kwargs)

        monkeypatch.setattr(inspect, "signature", counting)
        make_cc("reno")  # first use, before the class below exists

        class Latecomer(CongestionControl):
            name = "latecomer"

            def __init__(self, initial_cwnd=2.0, initial_ssthresh=1e9,
                         gain=1.0):
                super().__init__(initial_cwnd, initial_ssthresh)
                self.gain = gain

        scratch_cc("latecomer", Latecomer)
        calls.clear()
        sim = Simulator()
        a, b, _queue = build_path(sim)
        flows = [TcpFlow(sim, a, b, size_packets=2, cc="latecomer")
                 for _ in range(50)]
        assert {type(flow.sender.cc) for flow in flows} == {Latecomer}
        assert make_cc("latecomer", gain=2.5).gain == 2.5
        with pytest.raises(ConfigurationError,
                           match="does not take parameter.s. alpha; "
                                 "accepted: initial_cwnd, initial_ssthresh, "
                                 "gain$"):
            make_cc("latecomer", alpha=0.125)
        assert len(calls) <= 1
