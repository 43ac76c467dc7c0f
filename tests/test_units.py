"""Tests for repro.units: parsing and formatting of quantities."""


import pytest

from repro.errors import UnitError
from repro.units import (
    format_bandwidth,
    format_size,
    format_time,
    parse_bandwidth,
    parse_size,
    parse_time,
)


class TestParseBandwidth:
    def test_plain_number_passthrough(self):
        assert parse_bandwidth(155e6) == 155e6

    def test_int_passthrough(self):
        assert parse_bandwidth(1000) == 1000.0

    def test_mbps(self):
        assert parse_bandwidth("155Mbps") == 155e6

    def test_gbps_decimal(self):
        assert parse_bandwidth("2.5Gbps") == 2.5e9

    def test_slash_form(self):
        assert parse_bandwidth("10Gb/s") == 1e10

    def test_bit_spelled_out(self):
        assert parse_bandwidth("40 Gbit/s") == 4e10

    def test_kbps_lowercase(self):
        assert parse_bandwidth("56kbps") == 56e3

    def test_bytes_per_second_multiplied_by_8(self):
        assert parse_bandwidth("10MB/s") == 8e7

    def test_plain_bps(self):
        assert parse_bandwidth("9600bps") == 9600.0

    def test_whitespace_tolerated(self):
        assert parse_bandwidth("  1 Mbps ") == 1e6

    def test_garbage_rejected(self):
        with pytest.raises(UnitError):
            parse_bandwidth("fast")

    def test_negative_rejected(self):
        with pytest.raises(UnitError):
            parse_bandwidth(-1.0)

    def test_missing_unit_rejected(self):
        with pytest.raises(UnitError):
            parse_bandwidth("100")


class TestParseTime:
    def test_passthrough(self):
        assert parse_time(0.25) == 0.25

    def test_milliseconds(self):
        assert parse_time("80ms") == pytest.approx(0.08)

    def test_microseconds(self):
        assert parse_time("250us") == pytest.approx(250e-6)

    def test_nanoseconds(self):
        assert parse_time("8ns") == pytest.approx(8e-9)

    def test_seconds(self):
        assert parse_time("2s") == 2.0

    def test_minutes(self):
        assert parse_time("5min") == 300.0

    def test_hours(self):
        assert parse_time("1h") == 3600.0

    def test_fractional(self):
        assert parse_time("1.5ms") == pytest.approx(0.0015)

    def test_garbage_rejected(self):
        with pytest.raises(UnitError):
            parse_time("soon")

    def test_negative_rejected(self):
        with pytest.raises(UnitError):
            parse_time(-0.1)


class TestParseSize:
    def test_passthrough_bytes(self):
        assert parse_size(1500) == 1500.0

    def test_bytes(self):
        assert parse_size("1500B") == 1500.0

    def test_kilobytes_decimal(self):
        assert parse_size("1kB") == 1000.0

    def test_kibibytes_binary(self):
        assert parse_size("64KiB") == 65536.0

    def test_megabits_to_bytes(self):
        assert parse_size("10Mbit") == 1.25e6

    def test_gigabytes(self):
        assert parse_size("1.25GB") == 1.25e9

    def test_single_bit(self):
        assert parse_size("8b") == 1.0

    def test_garbage_rejected(self):
        with pytest.raises(UnitError):
            parse_size("big")


class TestFormatting:
    def test_format_bandwidth_gigabit(self):
        assert format_bandwidth(2.5e9) == "2.5Gb/s"

    def test_format_bandwidth_megabit(self):
        assert format_bandwidth(155e6) == "155Mb/s"

    def test_format_bandwidth_small(self):
        assert format_bandwidth(500.0) == "500b/s"

    def test_format_size(self):
        assert format_size(1.25e9) == "1.25GB"

    def test_format_size_kilobytes(self):
        assert format_size(2000) == "2kB"

    def test_format_time_ms(self):
        assert format_time(0.08) == "80ms"

    def test_format_time_seconds(self):
        assert format_time(2.0) == "2s"

    def test_format_time_zero(self):
        assert format_time(0.0) == "0s"

    def test_format_time_nanoseconds(self):
        assert format_time(8e-9) == "8ns"

    def test_roundtrip_bandwidth(self):
        assert parse_bandwidth(format_bandwidth(155e6)) == 155e6

    def test_roundtrip_time(self):
        assert parse_time(format_time(0.25)) == pytest.approx(0.25)
