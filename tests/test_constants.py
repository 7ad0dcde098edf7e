import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khbm.constants import khinchine_constants, lower_constant, upper_constant

mpmath = pytest.importorskip("mpmath")


def test_gamma_against_mpmath():
    # independent high-precision oracle for sqrt(2) (Gamma((p+1)/2) / sqrt(pi))^(1/p)
    # on a log-spaced grid of moment exponents
    ps = [1.1**k for k in range(42)] + [1.5, 2.0, 3.0, 4.0, 10.0]
    for p in ps:
        pm = mpmath.mpf(p)
        want = float(mpmath.sqrt(2) * (mpmath.gamma((pm + 1) / 2) / mpmath.sqrt(mpmath.pi)) ** (1 / pm))
        assert abs(khinchine_constants(p).set_elements[2] - want) <= 1e-12 * want, p


def test_p2_is_exactly_one():
    c = khinchine_constants(2.0)
    assert c.a_p == 1.0
    assert c.b_p == 1.0
    assert c.set_elements == (1.0, 1.0, 1.0)


def test_closed_forms():
    assert khinchine_constants(1.0).a_p == 2.0**-0.5
    b4 = khinchine_constants(4.0).b_p
    assert abs(b4 - 3.0**0.25) <= 1e-12 * 3.0**0.25
    # at p = 1 the gaussian element is sqrt(2/pi)
    assert abs(khinchine_constants(1.0).set_elements[2] - math.sqrt(2.0 / math.pi)) < 1e-15


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, 10.0])
def test_exactly_one_element_is_one_away_from_two(p):
    elems = khinchine_constants(p).set_elements
    assert sum(1 for e in elems if e == 1.0) == 1


@pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.inf, math.nan])
def test_constants_reject_bad_exponent(bad):
    with pytest.raises(ValueError):
        khinchine_constants(bad)


@given(st.floats(min_value=1.0, max_value=64.0))
@settings(max_examples=200)
def test_min_le_one_le_max(p):
    c = khinchine_constants(p)
    assert c.a_p <= 1.0 <= c.b_p
    assert c.a_p == min(c.set_elements)
    assert c.b_p == max(c.set_elements)
    assert lower_constant(p) == c.a_p
    assert upper_constant(p) == c.b_p


def test_b_p_nondecreasing_on_grid():
    ps = [1.0 + 0.25 * k for k in range(25)]
    bs = [upper_constant(p) for p in ps]
    assert all(b1 <= b2 + 1e-15 for b1, b2 in zip(bs, bs[1:]))


@pytest.mark.parametrize("p", [342.0, 342.5, 343.0, 345.0, 1e4, 1e6])
def test_gaussian_element_past_the_gamma_range(p):
    # math.gamma overflows past p ~ 342.3; the element then comes from lgamma
    pm = mpmath.mpf(p)
    want = float(mpmath.sqrt(2) * mpmath.exp((mpmath.loggamma((pm + 1) / 2) - mpmath.log(mpmath.pi) / 2) / pm))
    c = khinchine_constants(p)
    assert abs(c.set_elements[2] - want) <= 1e-14 * want
    assert c.a_p == 1.0 and c.b_p == c.set_elements[2]


def test_gaussian_element_refuses_past_the_lgamma_range():
    assert math.isfinite(upper_constant(1e305))
    with pytest.raises(ValueError, match="too large"):
        khinchine_constants(1e308)
