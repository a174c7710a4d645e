"""Shared fixed-seed sweep data for the test suite."""

from pentapower.oracle import band_pairs

__all__ = ["band_pairs"]
