"""Tests for the flight-recorder event schema and its validators."""


import pytest

from repro.errors import ObsError
from repro.obs import (
    EVENT_KINDS,
    KIND_FIELDS,
    validate_event,
    validate_events,
)


def good(kind="drop"):
    payload = {"t": 1.0, "kind": kind, "comp": "bottleneck"}
    fills = {"flow": 1, "seq": 2, "size": 1000, "q": 3, "cwnd": 4.0,
             "why": "timeout", "rto": 0.2, "una": 5, "msg": "link down"}
    for field in KIND_FIELDS[kind]:
        payload[field] = fills[field]
    return payload


class TestValidateEvent:
    @pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
    def test_every_kind_has_a_valid_shape(self, kind):
        validate_event(good(kind))

    def test_kind_registry_and_fields_agree(self):
        assert set(KIND_FIELDS) == EVENT_KINDS

    def test_unknown_kind_rejected(self):
        bad = good()
        bad["kind"] = "teleport"
        with pytest.raises(ObsError, match="unknown event kind"):
            validate_event(bad)

    @pytest.mark.parametrize("field", ["t", "kind", "comp"])
    def test_missing_common_field_rejected(self, field):
        bad = good()
        del bad[field]
        with pytest.raises(ObsError, match="missing required field"):
            validate_event(bad)

    def test_missing_kind_specific_field_rejected(self):
        bad = good("drop")
        del bad["seq"]
        with pytest.raises(ObsError, match="'seq'"):
            validate_event(bad)

    def test_extra_fields_allowed(self):
        enriched = good("drop")
        enriched["q"] = 12  # queue drops carry depth; link drops do not
        validate_event(enriched)

    def test_nan_time_rejected(self):
        bad = good()
        bad["t"] = float("nan")
        with pytest.raises(ObsError, match="finite"):
            validate_event(bad)

    def test_non_dict_rejected(self):
        with pytest.raises(ObsError, match="must be a dict"):
            validate_event(["t", 0])

    def test_empty_comp_rejected(self):
        bad = good()
        bad["comp"] = ""
        with pytest.raises(ObsError, match="comp"):
            validate_event(bad)


class TestStreamValidators:
    def test_validate_events_counts(self):
        assert validate_events([good(), good("rto")]) == 2
