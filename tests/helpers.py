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


def _load_outcome(path):
    import numpy as np
    from trajcf.errors import TrajcfError
    from trajcf.model import load

    try:
        model = load(path)
    except TrajcfError as exc:
        return type(exc).__name__, str(exc)
    bits = [np.ascontiguousarray(a).view(np.int64).tobytes()
            for a in (model.moment_sum, model.inverse_factor)]
    return ("ok", model.d, model.n, repr(model.epsilon), model.sample_count,
            repr(model.domain), model.provenance, model.moment_sum.shape, *bits)


def load_both_ways(path):
    """`load(path)` as it streams S, and as the all-lines reader alone gives
    it: each ("ok", fields and value bits) or (error type, message)."""
    from trajcf import model as model_mod

    streamed = _load_outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod, "_stream_document", lambda path: None)
        read = _load_outcome(path)
    return streamed, read
