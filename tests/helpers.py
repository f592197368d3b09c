"""Helpers shared by the test modules."""

import pytest


def assert_same_text(got, want):
    """got == want for two texts or byte strings, reporting the first line
    that differs (pytest's own diff of two long texts takes minutes)."""
    if got != want:
        got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
        first = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
                     min(len(got_lines), len(want_lines)))
        pytest.fail(f"texts of length {len(got)} and {len(want)} differ first at line {first}")
