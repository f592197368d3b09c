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


def read_model_whole(fh):
    """The model-file reader `load` used before it read a file once: every
    line held in a list, checked, and S parsed whole.  A test-only oracle
    with the signature and results of `trajcf.modelfile._read_model`; like it,
    it maps text that is not UTF-8 to an InputError for a file object too."""
    import hashlib

    import numpy as np
    from trajcf import modelfile
    from trajcf.errors import InputError

    try:
        lines = [part for ln in fh for part in ln.splitlines()]
    except UnicodeDecodeError as exc:
        raise InputError(f"model file is not UTF-8 text: {exc}") from exc
    if all(not ln or ln.isspace() for ln in lines):
        raise InputError("model file is empty")
    if lines[0] != modelfile._FORMAT_HEADER:
        raise InputError(f"unsupported model format header {lines[0][:80]!r}"
                         f"{'...' * (len(lines[0]) > 80)} "
                         f"(expected {modelfile._FORMAT_HEADER!r})")
    if not lines[-1].startswith("checksum sha256 "):
        raise InputError("model file is missing its checksum line (truncated?)")
    digest = hashlib.sha256()
    for ln in lines[:-1]:
        digest.update(ln.encode("utf-8"))
        digest.update(b"\n")
    if digest.hexdigest() != lines[-1].split()[-1]:
        raise InputError("model file checksum mismatch: payload corrupted")
    fields = {}
    body = lines[1:-1]
    for marker, ln in enumerate(body):
        if ln.strip() == "S":
            rows = body[marker + 1:]
            table = modelfile.float_table(rows)
            cells = modelfile._parse_matrix_cells(rows) if table is None else table
            square = all(len(r) == len(cells) for r in cells)
            return fields, np.asarray(cells, dtype=float) if square else None, len(cells), None
        key, _, value = ln.partition(" ")
        fields[key] = value
    return fields, None, 0, None


def _load_outcome(source):
    import numpy as np
    from trajcf.errors import TrajcfError
    from trajcf.model import _factored, load

    try:
        model = _factored(load(source))  # a factor that breaks down is an outcome too
    except TrajcfError as exc:
        return type(exc).__name__, str(exc)
    bits = [np.ascontiguousarray(a).view(np.int64).tobytes()
            for a in (model.moment_sum, model.inverse_factor)]
    return ("ok", model.d, model.n, repr(model.epsilon), model.sample_count,
            repr(model.domain), model.provenance, model.moment_sum.shape, *bits)


def load_both_ways(path, as_file=False):
    """`load` of the model file at ``path``, and `load` with the all-lines
    oracle `read_model_whole` in place of its reader: each ("ok", fields
    and value bits) or (error type, message).  With ``as_file`` each load
    reads a text file object over the file's bytes instead of the path."""
    import io

    from trajcf import modelfile

    def source():
        if not as_file:
            return path
        with open(path, "rb") as fh:
            return io.TextIOWrapper(io.BytesIO(fh.read()), encoding="utf-8")

    once = _load_outcome(source())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelfile, "_read_model", read_model_whole)
        whole = _load_outcome(source())
    return once, whole
