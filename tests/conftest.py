"""Helpers shared by the test modules."""

import pytest


def assert_same_text(written: str, expected: str) -> None:
    # pytest's own diff of two megabyte strings takes minutes: report the first difference only
    if written != expected:
        at = next((i for i, pair in enumerate(zip(written, expected)) if pair[0] != pair[1]), None)
        at = min(len(written), len(expected)) if at is None else at  # one text is a prefix of the other
        pytest.fail(f"differs at {at}: {written[at - 30 : at + 30]!r} != {expected[at - 30 : at + 30]!r}")
