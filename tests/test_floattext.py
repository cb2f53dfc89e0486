"""``floattext.reprs`` against ``float.__repr__``, element for element.

The export writer prints every emission time through ``reprs``, so any
difference here is a changed byte in the event stream.  Each check runs
under ``np.errstate(all="raise")``: a floating-point warning would be an
error in the writer too.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellsim import floattext
from bellsim.floattext import reprs


def assert_reprs(values) -> None:
    x = np.asarray(values, np.float64)
    with np.errstate(all="raise"):
        got = reprs(x)
    assert got == [float.__repr__(v) for v in x.tolist()]


def fast(values) -> list[bool]:
    """Whether the fast path writes each element's text itself."""
    with np.errstate(all="raise"):
        return floattext._fast_texts(np.asarray(values, np.float64))[1].tolist()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=1, max_size=60))
@example([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-270, 1e270])
def test_any_finite_double_of_at_least_zero(values):
    assert_reprs(values)


def _times(gen, n):
    return gen.uniform(0.0, 1e-3, n)


def _magnitudes(gen, n):
    return 10.0 ** gen.uniform(-floattext._KMAX, floattext._KMAX, n)


def _bit_patterns(gen, n):
    x = (gen.integers(0, 2**63, n, dtype=np.uint64)).view(np.float64)  # sign bit clear
    return x[np.isfinite(x)]


@pytest.mark.parametrize("draw", [_times, _magnitudes, _bit_patterns])
def test_a_third_of_a_million_values(draw):
    gen = np.random.default_rng(31)
    for _ in range(4):  # in parts, so that two lists of texts stay small
        assert_reprs(draw(gen, 83_334))


def test_the_fast_path_writes_almost_every_emission_time():
    x = np.sort(np.random.default_rng(5).uniform(0.0, 1e-3, 4096))
    assert all(fast(x))


#: the first double above 1 + 2**-17 is 1.00000762939453125 exactly: its
#: 17-digit candidates ...312 and ...313 are equally near, and repr takes
#: the even one
TIE = 1.0 + 2.0**-17


@pytest.mark.parametrize("value", [
    0.0, -0.0, 0.5, 1.0, 2.0, 2.0**-1000, 2.0**1000, TIE, -1.5, math.inf, -math.inf, math.nan,
    5e-324, 1e-300, 1e300, 1.7976931348623157e308,
])
def test_what_the_fast_path_leaves_to_repr(value):
    assert fast([value]) == [False]
    assert_reprs([value])


def test_powers_of_two():
    x = 2.0 ** np.arange(-1074, 1024)
    assert not any(fast(x))
    assert_reprs(x)


#: k = floor(log10 x) = -5, -4, 15 and 16: where repr changes between
#: d.ddde±XX and positional text
EDGES = [1e-05, 0.0001, 1e15, 1e16, 1.5e-05, 0.00015, 1234567890123456.5,
         1.2345678901234568e+16, 123.0, 0.1, 100.0]
#: the doubles just below 1e-4 and 1e16, whose log10 rounds up to the power
#: of ten: the fast path may leave them to repr
BELOW = [9.999999999999999e-05, 9999999999999998.0]


def test_layout_edges_and_their_neighbours():
    x = np.array(EDGES)
    assert all(fast(x))
    assert_reprs(np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), BELOW]))


def test_an_empty_array():
    assert reprs(np.array([])) == []
