"""Unit helpers: scale conversion and byte formatting."""

from repro import units


def test_gb_is_scaled_gib():
    assert units.GB == int(units.GiB * units.SCALE)
    assert units.gb(2) == 2 * units.GB


def test_mb_matches_gb_ratio():
    assert units.GB == 1024 * units.MB


def test_tb():
    assert units.TB == 1024 * units.GB


def test_gb_fractional():
    assert units.gb(0.5) == units.GB // 2


def test_fmt_bytes_gb():
    assert units.fmt_bytes(units.gb(3)) == "3.0 GB"


def test_fmt_bytes_mb():
    assert units.fmt_bytes(units.mb(12)) == "12.0 MB"


def test_fmt_bytes_tb():
    assert "TB" in units.fmt_bytes(units.TB * 2)


def test_fmt_bytes_small():
    assert units.fmt_bytes(17) == "17 B"

