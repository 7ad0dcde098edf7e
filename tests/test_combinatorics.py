import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khbm.combinatorics import (
    Lemma1Report,
    SubsetRatioInput,
    lemma1_bounds,
    subset_power_ratio,
    verify_lemma1,
)
from khbm.functional import EnumerationBudgetError


def brute_ratio(x, k, alpha):
    # pure-python oracle; 0^0 == 1 matches python's ** convention
    total = math.fsum(x) ** alpha
    sums = [math.fsum(c) ** alpha for c in itertools.combinations(x, k)]
    return math.fsum(sums) / (len(sums) * total)


def combinations_ratio(x, k, alpha, chunk=1 << 16):
    """Reference: every k-subset from itertools.combinations, summed in chunks."""
    it = itertools.combinations(range(len(x)), k)
    xs = np.array(x)
    totals = []
    while True:
        flat = np.fromiter((i for subset in itertools.islice(it, chunk) for i in subset), dtype=np.intp)
        if flat.size == 0:
            break
        totals.append(float((xs[flat.reshape(-1, k)].sum(axis=1) ** alpha).sum()))
    return math.fsum(totals) / (math.comb(len(x), k) * math.fsum(x) ** alpha)


@pytest.mark.parametrize("n", range(1, 15))
def test_every_k_matches_combinations_oracle(n):
    rng = np.random.default_rng(40 + n)
    x = tuple(rng.uniform(0.0, 2.0, size=n).tolist())
    for k in range(1, n + 1):
        for alpha in (0.0, 0.5, 1.7, 3.0):
            got = subset_power_ratio(SubsetRatioInput(x, k, alpha))
            want = combinations_ratio(x, k, alpha)
            assert abs(got - want) <= 1e-12 * want, (k, alpha)
    # (sum x)^alpha leaves the double range: the ratio is taken on x / sum(x)
    unit = tuple(t / math.fsum(x) for t in x)
    for scale, alpha in ((1e-300, 3.0), (1e300, 3.0), (1e-200, 40.0)):
        for k in range(1, n + 1):
            got = subset_power_ratio(SubsetRatioInput(tuple(scale * t for t in x), k, alpha))
            want = combinations_ratio(unit, k, alpha)
            assert abs(got - want) <= 1e-12 * want, (scale, k)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0]))
        x = tuple(float(t) for t in rng.uniform(0.0, 2.0, size=n))
        if sum(x) == 0.0:
            continue
        got = subset_power_ratio(SubsetRatioInput(x, k, alpha))
        want = brute_ratio(x, k, alpha)
        assert abs(got - want) <= 1e-13 * max(want, 1.0)


def test_sharpness_axis_vector():
    # a single positive coordinate attains k/n exactly for alpha > 0
    for n in range(1, 9):
        for k in range(1, n + 1):
            got = subset_power_ratio(SubsetRatioInput((1.0,) + (0.0,) * (n - 1), k, 2.0))
            assert got == k / n


def test_sharpness_all_ones():
    for n in range(2, 8):
        for k in range(1, n + 1):
            got = subset_power_ratio(SubsetRatioInput((1.0,) * n, k, 3.0))
            want = (k / n) ** 3.0
            assert abs(got - want) <= 5e-16 * want  # one ulp of exponentiation order


def test_alpha_zero_ratio_is_one():
    assert subset_power_ratio(SubsetRatioInput((1.0, 0.0, 0.0), 2, 0.0)) == 1.0


def test_bounds_closed_form():
    assert lemma1_bounds(4, 2, 2.0) == (0.25, 0.5)
    assert lemma1_bounds(4, 2, 0.5) == (0.5, math.sqrt(0.5))
    assert lemma1_bounds(4, 2, 1.0) == (0.5, 0.5)
    assert lemma1_bounds(4, 2, 0.0) == (0.5, 1.0)


def test_verify_report_shape():
    rep = verify_lemma1(SubsetRatioInput((1.0, 2.0, 3.0), 2, 2.0))
    assert isinstance(rep, Lemma1Report)
    assert rep.holds
    assert rep.lower <= rep.ratio <= rep.upper


def test_ratio_scale_invariance():
    x = (0.3, 1.1, 2.4, 0.05)
    base = subset_power_ratio(SubsetRatioInput(x, 2, 1.7))
    for c in (1e-3, 7.0, 1e5):
        scaled = subset_power_ratio(SubsetRatioInput(tuple(c * t for t in x), 2, 1.7))
        assert abs(scaled - base) <= 1e-13 * base


def test_extreme_scales_survive():
    # (sum x)^alpha under/overflows here; the internal rescale must kick in
    base = subset_power_ratio(SubsetRatioInput((0.3, 1.1, 2.4), 2, 3.0))
    for c in (4e-197, 1e-300, 1e200):
        scaled = subset_power_ratio(SubsetRatioInput((0.3 * c, 1.1 * c, 2.4 * c), 2, 3.0))
        assert abs(scaled - base) <= 1e-13 * base
    rep = verify_lemma1(SubsetRatioInput((4.0163364321041084e-197,), 1, 2.0))
    assert rep.holds and rep.ratio == 1.0


def test_validation():
    with pytest.raises(ValueError):
        SubsetRatioInput((-1.0, 2.0), 1, 1.0)
    with pytest.raises(ValueError):
        SubsetRatioInput((1.0, 2.0), 0, 1.0)
    with pytest.raises(ValueError):
        SubsetRatioInput((1.0, 2.0), 3, 1.0)
    with pytest.raises(ValueError):
        SubsetRatioInput((1.0, 2.0), 1, -0.5)
    with pytest.raises(ValueError):
        SubsetRatioInput((0.0, 0.0), 1, 1.0)  # zero sum
    with pytest.raises(ValueError):
        SubsetRatioInput(tuple(range(1, 26)), 2, 1.0)  # n > 24


def test_budget_cap(monkeypatch):
    x = tuple(float(i + 1) for i in range(24))
    monkeypatch.setenv("KHBM_BUDGET", "1000")
    with pytest.raises(EnumerationBudgetError):
        subset_power_ratio(SubsetRatioInput(x, 12, 1.0))


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=7),
    st.integers(min_value=1, max_value=7),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
)
@settings(max_examples=300, deadline=None)
def test_bounds_hold_property(xs, k, alpha):
    if k > len(xs) or math.fsum(xs) <= 0.0:
        return
    rep = verify_lemma1(SubsetRatioInput(tuple(xs), k, alpha))
    assert rep.holds, (xs, k, alpha, rep)
