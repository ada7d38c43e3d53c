"""Property tests of the array renderer: every float64 comes out as the
bytes of ``"%.17g" % v``, whatever its neighbours in the chunk and whatever
earlier chunks left in the scratch buffers."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from wideca.store import _render, _Scratch  # noqa: E402

# One scratch for every example: each renders in the buffers the last left.
SCRATCH = _Scratch()


def _check(values):
    values = np.array(values, dtype=np.float64)
    seps = np.resize(np.frombuffer(b",\n", dtype=np.uint8), values.size)
    want = b"".join(b"%.17g" % v + bytes([s])
                    for v, s in zip(values.tolist(), seps.tolist()))
    assert _render(values, seps, SCRATCH) == want


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_render_any_finite_float(values):
    _check(values)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_render_random_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    _check(values[np.isfinite(values)] if np.isfinite(values).any() else [0.0])


@given(st.lists(st.integers(-2**53, 2**53), min_size=1, max_size=40))
def test_render_whole_numbers(ints):
    _check(ints)
