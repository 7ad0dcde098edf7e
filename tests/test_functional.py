import concurrent.futures
import gc
import itertools
import math
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from khbm import functional, norms
from khbm import tolerances as tol
from khbm.combinatorics import SubsetRatioInput, subset_power_ratio
from khbm.distributions import SymmetricAtoms, rademacher
from khbm.functional import (
    EnumerationBudgetError,
    IpResult,
    VectorTuple,
    _draw_outcomes,
    _guide,
    _ipf_exact_many,
    _law_support,
    _sorted_support,
    check_argument_norm_axioms,
    check_barycenter_reduction,
    check_level_monotonicity,
    check_value_norm_axioms,
    default_budget,
    ipf_exact,
    ipf_monte_carlo,
    ipf_two_valued_exact,
    verify_theorem1,
)
from khbm import hanner
from khbm.hanner import falsify_hanner, hanner_gap
from khbm.norms import LpNorm, PolytopeGauge, _sign_matrix, describe_norm, norm_eval, norm_eval_many


def brute_force_pth_power(v, f, p, norm):
    """Independent oracle: pure-python product enumeration, no numpy paths."""
    support = [(a, t) for a, t in f.atoms] + [(-a, t) for a, t in f.atoms]
    w0 = 1.0 - 2.0 * sum(t for _, t in f.atoms)
    if w0 > 0.0 or not support:
        support.append((0.0, max(w0, 0.0)))
    terms = []
    for combo in itertools.product(support, repeat=len(v)):
        vec = [0.0] * len(v[0])
        weight = 1.0
        for (coeff, w), row in zip(combo, v):
            weight *= w
            for j, x in enumerate(row):
                vec[j] += coeff * x
        terms.append(weight * norm_eval(norm, vec) ** p)
    return math.fsum(terms)


def digit_pth_power(rows, f, p, norm, chunk=1 << 15):
    """Reference: one term per support assignment, from the base-k digits of its index."""
    values, weights = _law_support(f)
    n, k = rows.shape[0], len(values)
    radix = k ** np.arange(n, dtype=np.int64)
    totals = []
    for start in range(0, k**n, chunk):
        idx = np.arange(start, min(start + chunk, k**n), dtype=np.int64)
        digits = (idx[:, None] // radix[None, :]) % k
        norms = norm_eval_many(norm, values[digits] @ rows)
        totals.append(float(np.dot(weights[digits].prod(axis=1), norms**p)))
    return math.fsum(totals)


_LAWS = {
    "fair": rademacher(),  # no zero atom
    "one-atom": SymmetricAtoms(((1.3, 0.2),)),  # zero atom
    "two-atom": SymmetricAtoms(((2.0, 0.125), (0.7, 0.25))),  # zero atom
    "full-two-atom": SymmetricAtoms(((2.0, 0.25), (0.7, 0.25))),  # zero mass exactly 0
    "zero": SymmetricAtoms(()),
}
_EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)
_KERNEL_CASES = [(n, "fair" if n % 2 else "one-atom", _EXPONENTS[n % 5]) for n in range(1, 11)] + [
    (5, "two-atom", 3.0),
    (6, "full-two-atom", 1.5),
    (3, "zero", 2.0),
    (4, "one-atom", "hexagon"),
    (7, "fair", "hexagon"),
]


@pytest.mark.parametrize("n, law, r", _KERNEL_CASES)
def test_kernel_matches_digit_enumeration(n, law, r):
    rng = np.random.default_rng(n)
    if r == "hexagon":
        angles = np.arange(6) * math.pi / 3.0 + 0.2
        norm = PolytopeGauge(np.stack([np.cos(angles), 1.3 * np.sin(angles)], axis=1))
    else:
        norm = LpNorm(r, 3)
    v = rng.standard_normal((n, norm.dim))
    p = float(rng.uniform(1.0, 4.0))
    got = ipf_exact(v, _LAWS[law], p, norm)
    want = digit_pth_power(v, _LAWS[law], p, norm)
    assert got.terms_evaluated == len(_law_support(_LAWS[law])[0]) ** n
    if law == "zero":
        assert got.pth_power == got.value == want == 0.0
        return
    assert abs(got.pth_power - want) <= 1e-12 * want
    assert abs(got.value - want ** (1.0 / p)) <= 1e-12 * got.value


@pytest.mark.parametrize("chunk", [1, 7, 1 << 10, 1 << 24])
def test_results_do_not_depend_on_block_size(monkeypatch, chunk):
    rng = np.random.default_rng(21)
    v, law, norm = rng.standard_normal((9, 3)), _LAWS["two-atom"], LpNorm(1.5, 3)
    x = tuple(rng.uniform(0.0, 1.0, size=16).tolist())

    def outputs():
        return (
            ipf_exact(v, law, 2.7, norm),
            ipf_two_valued_exact(v, 0.25, 2.7, norm),
            hanner_gap(norm, v, 1.5),
            [subset_power_ratio(SubsetRatioInput(x, k, 1.7)) for k in (1, 5, 8)],
        )

    base = outputs()
    monkeypatch.setattr(functional, "_CHUNK", chunk)
    assert outputs() == base  # bitwise


def _stack_cases(rng, n, d, count):
    # per-tuple laws of 1-3 atoms (1 from n = 5 on, to keep 7^n small) or the fair sign,
    # rows at unit scale, at 1e+-150, or zero; p from {1, 2, 2.5, 300}
    cases = []
    for _ in range(count):
        law = rademacher() if rng.random() < 0.2 else functional._random_law(rng, 3 if n <= 4 else 1)
        scale = (1.0, 1e150, 1e-150, 0.0)[rng.integers(4)]
        cases.append((scale * rng.standard_normal((n, d)), law, (1.0, 2.0, 2.5, 300.0)[rng.integers(4)]))
    return cases


@pytest.mark.parametrize("chunk", [None, 64, 7, 1])
def test_stacks_bitwise_equal_one_call_per_tuple(monkeypatch, chunk):
    # at chunk 64 a block holds several whole tuples, at 7 and 1 a tuple spans blocks
    if chunk is not None:
        monkeypatch.setattr(functional, "_CHUNK", chunk)
    rng = np.random.default_rng(13)
    for n in range(1, 9):
        for i, r in enumerate((1.0, 1.5, 2.0, 3.0, math.inf)):
            norm = LpNorm(r, 1 + (n + i) % 3)
            cases = _stack_cases(rng, n, norm.dim, 24)  # mixed support sizes and p: several stacks
            assert _ipf_exact_many(cases, norm) == [ipf_exact(v, f, p, norm) for v, f, p in cases]


@pytest.mark.parametrize("size", [1, 9, 10, 11])
def test_stack_sizes_around_a_block_edge(monkeypatch, size):
    # a one-atom law at n = 2 has 2 x 3 terms per tuple, so a 64-term block holds 10 tuples
    monkeypatch.setattr(functional, "_CHUNK", 64)
    blocks = []
    real_norms = functional.norm_eval_many

    def spy(norm, pts):
        blocks.append(pts.shape[0])
        return real_norms(norm, pts)

    law, norm = SymmetricAtoms(((1.3, 0.2),)), LpNorm(3.0, 2)
    cases = [(v, law, 2.5) for v in np.random.default_rng(size).standard_normal((size, 2, 2))]
    want = [ipf_exact(v, f, p, norm) for v, f, p in cases]
    monkeypatch.setattr(functional, "norm_eval_many", spy)
    assert _ipf_exact_many(cases, norm) == want
    assert blocks == [10] * (size // 10) + [size % 10] * (size % 10 > 0)


def row_layout_pth_power(rows, values, weights, p, norm):
    """Reference: one tuple through the kernel's blocks with its sums in row layout, (1, step, unit_len, d)."""
    n, k = rows.shape[0], len(values)
    h = max(1, n // 2)
    digits_a, mult = functional._half_table(k, h, True)
    digits_b, _ = functional._half_table(k, n - h, False)
    sums_a, sums_b = values[None].take(digits_a, -1) @ rows[None, :h], values[None].take(digits_b, -1) @ rows[None, h:]
    w_a = weights[None].take(digits_a, -1).prod(axis=-1) * mult
    w_b = weights[None].take(digits_b, -1).prod(axis=-1)[..., None, :]
    units = sums_a.shape[1]
    step = functional._block_rows(units, sums_b.shape[1])
    parts = []
    for i in range(0, units, step):
        top, scaled = functional._scaled_powers(norm_eval_many(norm, sums_a[:, i : i + step, None] + sums_b[:, None]), w_b, p)
        parts.append((top[0].tolist(), (w_a[..., i : i + step] * scaled)[0].tolist()))
    pth, value = functional._pth_and_value(*functional._fold_blocks(parts, p), p)
    return IpResult(value=value, pth_power=pth, method="exact", stderr=None, terms_evaluated=k**n)


@pytest.mark.parametrize("chunk", [None, 16])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_exact_planes_bitwise_equal_row_layout(monkeypatch, chunk, d):
    # the kernel's coordinate-plane blocks against the same blocks in row layout: the adds, the column order
    # of the norm and every later step are the same, so no bit moves; at d = 8 the norm's row sums are
    # pairwise, which numpy takes only along a contiguous axis.  At chunk 16 a tuple spans several blocks
    if chunk is not None:
        monkeypatch.setattr(functional, "_CHUNK", chunk)
    rng = np.random.default_rng(40 + d)
    norms = [LpNorm(r, d) for r in _EXPONENTS] + ([_HEXAGON] if d == 2 else [])
    for norm in norms:
        for n in (1, 2, 5, 7):
            stacks = {}  # the kernel's stacks: one support size and p each
            for v, f, p in _stack_cases(rng, n, d, 8):
                stacks.setdefault((len(_sorted_support(f)[0]), p), []).append((v, f))
            for (_, p), stack in stacks.items():
                rows = np.stack([v for v, _ in stack])
                values, weights = (np.stack([_sorted_support(f)[j] for _, f in stack]) for j in (0, 1))
                got = functional._enumerate_pth_power(rows, values, weights, p, norm, default_budget())
                want = [row_layout_pth_power(v, *_sorted_support(f), p, norm) for v, f in stack]
                assert got == want  # bitwise


def test_stack_refusal_names_the_first_refused_case(monkeypatch):
    # stacks run in the order of their first case, as one call per case would refuse
    monkeypatch.setenv("KHBM_BUDGET", "100")
    cases = [(np.ones((n, 1)), rademacher(), 2.0) for n in (8, 2, 7, 8)]
    with pytest.raises(EnumerationBudgetError, match=r"^2\^8 = 256 weighted terms exceed budget 100;"):
        _ipf_exact_many(cases, LpNorm(2.0, 1))


@pytest.mark.parametrize("p", [0.5, math.nan])
def test_exact_routes_refuse_a_bad_p_alike(p):
    # p is checked once, in the kernel, whichever exact route reaches it
    v, norm = np.ones((3, 2)), LpNorm(2.0, 2)
    for route in (
        lambda: ipf_exact(v, rademacher(), p, norm),
        lambda: _ipf_exact_many([(v, rademacher(), p)], norm),
        lambda: hanner_gap(norm, v, p),
    ):
        with pytest.raises(ValueError, match=rf"^need p >= 1, got {p}$"):
            route()


def test_exact_routes_refuse_the_term_budget_alike(monkeypatch):
    # the k^n term budget too, hanner_gap's sign sums included
    v, norm = np.ones((3, 2)), LpNorm(2.0, 2)
    routes = (
        lambda: ipf_exact(v, rademacher(), 2.0, norm).pth_power,
        lambda: _ipf_exact_many([(v, rademacher(), 2.0)], norm)[0].pth_power,
        lambda: hanner_gap(norm, v, 2.0).lhs,
    )
    want = [route() for route in routes]
    monkeypatch.setenv("KHBM_BUDGET", "7")
    for route in routes:
        with pytest.raises(EnumerationBudgetError, match=r"^2\^3 = 8 weighted terms exceed budget 7; use ipf_monte_carlo"):
            route()
    monkeypatch.setenv("KHBM_BUDGET", "100")
    assert [route() for route in routes] == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [300.0, 400.0, 1000.0])
def test_large_p_value_does_not_overflow(p):
    # every sign gives ||sum eps_i v_i|| = 16, so I_p = 16 for every p,
    # while 16^p leaves the double range once p > 256
    v, norm = 8.0 * np.eye(4), LpNorm(2.0, 4)
    results = (
        ipf_exact(v, rademacher(), p, norm),
        ipf_two_valued_exact(v, 0.5, p, norm),
        ipf_monte_carlo(v, rademacher(), p, norm, samples=1000, seed=0),
    )
    for res in results:
        assert abs(res.value - 16.0) <= 1e-12 * 16.0
        assert res.pth_power == math.inf  # only M^p itself overflows
    assert results[2].stderr == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_vector_sums_give_inf_not_nan():
    v, norm = np.array([[1e308, 0.0], [1e308, 1.0]]), LpNorm(2.0, 2)
    for res in (
        ipf_exact(v, rademacher(), 2.0, norm),
        ipf_two_valued_exact(v, 0.5, 2.0, norm),
        ipf_monte_carlo(v, rademacher(), 2.0, norm, samples=100, seed=0),
    ):
        assert res.value == res.pth_power == math.inf


def test_memory_bound_refuses_before_allocating(monkeypatch):
    # 4 terms fit the budget, but the half tables and block of 50-dim sums do not
    monkeypatch.setenv("KHBM_BUDGET", "100")
    with pytest.raises(EnumerationBudgetError, match="floats"):
        ipf_exact(np.ones((2, 50)), rademacher(), 2.0, LpNorm(2.0, 50))
    monkeypatch.setenv("KHBM_BUDGET", "357")
    assert ipf_exact(np.ones((2, 50)), rademacher(), 2.0, LpNorm(2.0, 50)).terms_evaluated == 4
    # 2^12 terms fit, but the 2^11 x 12 half sign table as built and its 2^11 x 3 sums do not
    monkeypatch.setenv("KHBM_BUDGET", "5000")
    with pytest.raises(EnumerationBudgetError, match="floats"):
        ipf_two_valued_exact(np.ones((12, 3)), 0.5, 2.0, LpNorm(2.0, 3))
    monkeypatch.setenv("KHBM_BUDGET", "71727")
    with pytest.raises(EnumerationBudgetError, match="sign tables and their vector sums need 71728 floats"):
        ipf_two_valued_exact(np.ones((12, 3)), 0.5, 2.0, LpNorm(2.0, 3))
    monkeypatch.setenv("KHBM_BUDGET", "71728")
    assert ipf_two_valued_exact(np.ones((12, 3)), 0.5, 2.0, LpNorm(2.0, 3)).terms_evaluated == 4096


def test_exact_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        v = rng.standard_normal((n, d))
        f = SymmetricAtoms(((1.7, 0.2), (0.4, 0.15)))
        p = float(rng.uniform(1.0, 4.0))
        norm = LpNorm(float(rng.choice([1.0, 2.0, math.inf])), d)
        got = ipf_exact(v, f, p, norm)
        want = brute_force_pth_power(v.tolist(), f, p, norm)
        assert abs(got.pth_power - want) <= 1e-12 * want
        assert got.method == "exact"
        assert got.stderr is None


def test_rademacher_euclidean_closed_forms():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((6, 3))
    norm = LpNorm(2.0, 3)
    # I_2 is the l2 norm of the vector of norms, any p for n = 1
    i2 = ipf_exact(v, rademacher(), 2.0, norm).value
    assert abs(i2 - math.sqrt((v**2).sum())) < 1e-12
    one = v[:1]
    for p in (1.0, 2.5, 4.0):
        got = ipf_exact(one, rademacher(), p, norm).value
        assert abs(got - math.sqrt((one**2).sum())) < 1e-13


def test_exact_orthonormal_pair():
    # all four sign patterns of e1 +- e2 have euclidean norm sqrt(2)
    v = np.eye(2)
    res = ipf_exact(v, rademacher(), 3.0, LpNorm(2.0, 2))
    assert abs(res.value - math.sqrt(2.0)) < 1e-15
    assert res.terms_evaluated == 4


def test_two_valued_route_matches_exact():
    rng = np.random.default_rng(7)
    for t in (0.1, 0.25, 0.5):
        v = rng.standard_normal((5, 2))
        for p in (1.0, 2.0, 3.5):
            a = ipf_exact(v, SymmetricAtoms(((1.0, t),)), p, LpNorm(1.0, 2))
            b = ipf_two_valued_exact(v, t, p, LpNorm(1.0, 2))
            assert abs(a.pth_power - b.pth_power) <= 1e-12 * max(a.pth_power, b.pth_power)


@pytest.mark.parametrize("t", [0.25, 0.5])
def test_two_valued_polytope_matches_exact(t):
    # a gauge's half rows give ||-x|| from ||x||, as the exact kernel's folded first coordinate does
    v = np.random.default_rng(9).standard_normal((7, 2))
    a = ipf_exact(v, SymmetricAtoms(((1.0, t),)), 2.5, _HEXAGON)
    b = ipf_two_valued_exact(v, t, 2.5, _HEXAGON)
    assert tol.close(a.pth_power, b.pth_power) and tol.close(a.value, b.value)


def per_subset_two_valued(v, t, p, norm):
    """Reference: the subset/sign expansion one subset at a time, folded as the route folds."""
    n, w0 = len(v), 1.0 - 2.0 * t
    tops, sums = [], []
    for k in range(1, n + 1):
        coef = t**k * w0 ** (n - k)
        if coef == 0.0:
            continue
        for subset in itertools.combinations(range(n), k):
            norms = norm_eval_many(norm, _sign_matrix(k) @ v[list(subset)])
            top = float(norms.max())
            tops.append(top)
            sums.append(coef * float(((norms / max(top, functional._TINY)) ** p).sum()))
    return functional._pth_and_value(*functional._fold(tops, sums, p), p)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
def test_two_valued_blocks_bitwise_equal_per_subset(monkeypatch, n):
    # a chunk's one product of the half table with all its subsets' rows, against one full-table product per
    # subset: bitwise for d >= 2; at d = 1 numpy multiplies a subset alone by a matrix-vector path that sums
    # in another order, so its sums agree within the recursive-summation bound (k - 1) eps sum_i |x_i|
    sums = []

    def spy(norm, pts):
        sums.append(pts)
        return norm_eval_many(norm, pts)

    def rev(subset):
        return subset[::-1]

    monkeypatch.setattr(functional, "norm_eval_many", spy)
    for d in (3, 1):
        v = np.random.default_rng(100 + n).standard_normal((n, d))
        for t in (0.125, 0.25, 0.5):
            for r in (1.0, 1.5, math.inf):
                sums.clear()
                res = ipf_two_valued_exact(v, t, 2.5, LpNorm(r, d))
                pth, value = per_subset_two_valued(v, t, 2.5, LpNorm(r, d))
                assert res.terms_evaluated == (3**n - 1 if t < 0.5 else 2**n)
                if d >= 2:
                    assert (res.pth_power, res.value) == (pth, value)  # bitwise, not within a tolerance
                    continue
                # the subsets in the route's order: by size, then colex rank; at t = 1/2 only the full set
                subsets = [s for k in range(1, n + 1) for s in sorted(itertools.combinations(range(n), k), key=rev)]
                subsets = subsets if t < 0.5 else subsets[-1:]
                got = [half for chunk in sums for half in np.moveaxis(chunk, 1, 0)]  # (2^(k-1), d) per subset
                assert len(got) == len(subsets)
                for half, subset in zip(got, subsets):
                    x = v[list(subset)]
                    bound = (len(subset) - 1) * np.finfo(float).eps * np.abs(x).sum()
                    assert np.all(np.abs(half - _sign_matrix(len(subset))[1::2] @ x) <= bound)
                assert tol.close(res.pth_power, pth) and tol.close(res.value, value)


def test_sign_matrix_is_read_only():
    # the cached tables are shared by ipf_two_valued_exact, the falsifier and the cube's extreme points
    for signs in (_sign_matrix(3), _sign_matrix(3, half=True)):
        with pytest.raises(ValueError):
            signs[0, 0] = 0.0
        with pytest.raises(ValueError):
            signs *= -1.0
    assert _sign_matrix(3)[0, 0] == -1.0
    # the half table is the odd rows of the full one, entry 0 at +1, in their own contiguous array
    for k in range(1, 12):
        half = _sign_matrix(k, half=True)
        assert half.flags.c_contiguous and half.tobytes() == np.ascontiguousarray(_sign_matrix(k)[1::2]).tobytes()


@pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 14, 15, 17])
def test_sign_matrix_rows_and_cache(k):
    # entry j of row i is bit j of i, +1 for a set bit, against a table built apart; only
    # tables of k <= 14 columns are cached, and a larger one is its caller's alone
    idx = np.arange(1 << k)
    want = np.where((idx[:, None] >> np.arange(k)) & 1, 1.0, -1.0)
    for half, rows in ((False, want), (True, want[1::2])):
        got = _sign_matrix(k, half)
        assert got.shape == rows.shape and got.tobytes() == np.ascontiguousarray(rows).tobytes()
        assert (got is _sign_matrix(k, half)) == (k <= 14)


def test_two_valued_validation():
    v = np.eye(2)
    for bad_t in (0.0, 0.6, -0.1):
        with pytest.raises(ValueError):
            ipf_two_valued_exact(v, bad_t, 2.0, LpNorm(2.0, 2))


def test_zero_mass_atom_pruned():
    # t = 1/2 leaves no zero atom: 2^n terms instead of 3^n
    v = np.eye(2)
    res = ipf_exact(v, rademacher(), 2.0, LpNorm(2.0, 2))
    assert res.terms_evaluated == 4
    res = ipf_exact(v, SymmetricAtoms(((1.0, 0.25),)), 2.0, LpNorm(2.0, 2))
    assert res.terms_evaluated == 9


def test_budget_error_advises_sampling(monkeypatch):
    v = np.ones((30, 1))
    monkeypatch.setenv("KHBM_BUDGET", "1000")
    with pytest.raises(EnumerationBudgetError, match="monte"):
        ipf_exact(v, rademacher(), 2.0, LpNorm(2.0, 1))
    monkeypatch.setenv("KHBM_BUDGET", "100")
    with pytest.raises(EnumerationBudgetError):
        ipf_two_valued_exact(np.ones((40, 1)), 0.25, 2.0, LpNorm(2.0, 1))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("KHBM_BUDGET", "12345")
    assert default_budget() == 12345
    monkeypatch.setenv("KHBM_BUDGET", "bogus")
    with pytest.raises(ValueError):
        default_budget()
    monkeypatch.delenv("KHBM_BUDGET")
    assert default_budget() == 10**8


def test_monte_carlo_deterministic_per_seed():
    v = np.random.default_rng(0).standard_normal((4, 2))
    f = SymmetricAtoms(((1.2, 0.3),))
    a = ipf_monte_carlo(v, f, 2.0, LpNorm(2.0, 2), samples=5000, seed=42)
    b = ipf_monte_carlo(v, f, 2.0, LpNorm(2.0, 2), samples=5000, seed=42)
    assert a.pth_power == b.pth_power  # bitwise
    assert a.stderr == b.stderr
    c = ipf_monte_carlo(v, f, 2.0, LpNorm(2.0, 2), samples=5000, seed=43)
    assert c.pth_power != a.pth_power
    assert a.stderr > 0.0
    assert a.method == "monte_carlo"


def mc_groups(n, k, samples):
    """Monte Carlo's group size g and group count q for n rows and k support values."""
    g = 1
    while g < n and k ** (g + 1) <= min(functional._MC_OUTCOMES, samples):
        g += 1
    return g, -(-n // g)


def group_sums(v, f, samples, seed):
    """Reference: every sample's vector sum from one draw of all its group uniforms.

    Each group's k^m outcomes (first row slowest) get the product of their
    masses and their partial sum, one matrix product; each uniform becomes
    the outcome at searchsorted(cdf, u, side="right"), as choice maps it,
    and the groups' partial sums add in group order.
    """
    values, weights = _law_support(f)
    n, k = len(v), len(values)
    g, q = mc_groups(n, k, samples)
    u = np.random.Generator(np.random.PCG64(seed)).random((samples, q))
    sums = None
    for j, lo in enumerate(range(0, n, g)):
        digits = np.array(list(itertools.product(range(k), repeat=len(v[lo : lo + g]))))
        cdf = weights[digits].prod(axis=1).cumsum()
        cdf /= cdf[-1]
        part = (values[digits] @ v[lo : lo + g])[cdf.searchsorted(u[:, j], side="right")]
        sums = part if sums is None else sums + part
    return sums


def group_monte_carlo(v, f, p, norm, samples, seed):
    """Reference: ``group_sums``, one norm call, and numpy's sums of the moments over ranges of _MC_SUMS."""
    norms = norm_eval_many(norm, group_sums(v, f, samples, seed))
    peak = float(norms.max())
    scaled = (norms / peak) ** p if peak > 0.0 else norms
    ranges = range(0, samples, functional._MC_SUMS)
    mean = math.fsum(float(scaled[lo : lo + functional._MC_SUMS].sum()) for lo in ranges) / samples
    squares = math.fsum(float(((scaled[lo : lo + functional._MC_SUMS] - mean) ** 2).sum()) for lo in ranges)
    value_pth, value = functional._pth_and_value(peak, mean, p)
    stderr, _ = functional._pth_and_value(peak, math.sqrt(squares / (samples - 1)) / math.sqrt(samples), p)
    return value, value_pth, stderr


@pytest.mark.parametrize(
    "law, values, weights",
    [
        (SymmetricAtoms(((2.0, 0.125), (1.0, 0.25))), [0.0, 2.0, -2.0, 1.0, -1.0], [0.25, 0.125, 0.125, 0.25, 0.25]),
        (SymmetricAtoms(((2.0, 0.25), (0.7, 0.25))), [2.0, -2.0, 0.7, -0.7], [0.25, 0.25, 0.25, 0.25]),
        (rademacher(), [1.0, -1.0], [0.5, 0.5]),
        (SymmetricAtoms(()), [0.0], [1.0]),
    ],
    ids=["two-atom", "full-two-atom", "fair", "zero"],
)
def test_law_support_is_the_monte_carlo_draw_order(law, values, weights):
    # Monte Carlo maps each uniform to an index of this order, so it is part of the seed contract
    got_values, got_weights = _law_support(law)
    assert got_values.tobytes() == np.array(values).tobytes()
    assert got_weights.tobytes() == np.array(weights).tobytes()


@pytest.mark.parametrize("samples", [2, 1 << 16, (1 << 16) + 1, (1 << 17) + 1])
@pytest.mark.parametrize("n", [3, 10, 14])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("block_rows", [None, 1 << 16])
def test_monte_carlo_blocks_bitwise_equal_one_draw(monkeypatch, samples, n, d, block_rows):
    # one group (n = 3), two (n = 10) and three (n = 14) of five support values; blocks of 2^16
    # samples put the sample counts at, just past and one past twice a block edge
    if block_rows is not None:
        monkeypatch.setattr(functional, "_MC_BLOCK", block_rows * max(mc_groups(n, 5, samples)[1], 2))
    rng = np.random.default_rng(samples + n)
    v = rng.standard_normal((n, d))
    f = SymmetricAtoms(((2.0, 0.125), (1.0, 0.25)))
    res = ipf_monte_carlo(v, f, 3.0, LpNorm(1.0, d), samples=samples, seed=n)
    assert (res.value, res.pth_power, res.stderr) == group_monte_carlo(v, f, 3.0, LpNorm(1.0, d), samples, n)


@pytest.mark.parametrize("samples", [2, 3, 4, 7, 8, 101])
def test_monte_carlo_two_row_blocks_bitwise_equal_one_draw(monkeypatch, samples):
    # the smallest blocks, two samples, with and without a one-sample tail; every
    # drawn vector sum must equal the one-draw reference's row
    f = SymmetricAtoms(((3.0, 0.0625), (2.0, 0.125), (1.0, 0.25)))
    monkeypatch.setattr(functional, "_MC_BLOCK", 2 * max(mc_groups(10, 7, samples)[1], 2))
    blocks = []

    def spy(norm, pts):
        blocks.append(pts.copy())  # pts are the lane's sum planes, which the next block overwrites
        return norm_eval_many(norm, pts)

    monkeypatch.setattr(functional, "norm_eval_many", spy)
    v = np.random.default_rng(samples).standard_normal((10, 3))
    res = ipf_monte_carlo(v, f, 1.5, LpNorm(1.5, 3), samples=samples, seed=7)
    assert [len(b) for b in blocks] == [2] * (samples // 2) + [1] * (samples % 2)
    assert np.concatenate(blocks).tobytes() == group_sums(v, f, samples, 7).tobytes()
    assert (res.value, res.pth_power, res.stderr) == group_monte_carlo(v, f, 1.5, LpNorm(1.5, 3), samples, 7)


# laws for the guide table: dyadic (every cdf point on a bucket edge), non-dyadic
# (some inside a bucket), a tiny mass (two cdf points inside one bucket), more
# than 2,048 atoms (one group a row, 4,201 outcomes) and the zero law (one outcome)
GUIDE_LAWS = {
    "dyadic": SymmetricAtoms(((2.0, 0.125), (1.0, 0.25))),
    "non-dyadic": SymmetricAtoms(((1.0, 0.3), (0.5, 0.1))),
    "tiny-mass": SymmetricAtoms(((1.0, 1e-300), (0.25, 1.0 / 3.0))),
    "many-atoms": SymmetricAtoms(tuple((float(2100 - i), 1.0 / 4207.0) for i in range(2100))),
    "zero": SymmetricAtoms(()),
    "fair": rademacher(),
}


# the group sizes each law is checked at: 1 to 4,201 outcomes
GUIDE_GROUPS = {"dyadic": (1, 5), "non-dyadic": (1, 5), "tiny-mass": (1, 2), "many-atoms": (1,), "zero": (1, 7), "fair": (12,)}


@pytest.mark.parametrize("law", GUIDE_LAWS, ids=str)
def test_choice_map_matches_searchsorted_at_every_edge(law):
    # a group of m rows: its k^m outcomes and their product masses, as Monte Carlo builds
    # them.  Uniforms on every bucket edge and every cdf value, and one ulp either side
    # of each, map to searchsorted(side="right"), as Generator.choice maps them
    values, weights = _law_support(GUIDE_LAWS[law])
    for m in GUIDE_GROUPS[law]:
        digits = np.array(list(itertools.product(range(len(values)), repeat=m)))
        cdf = weights[digits].prod(axis=1).cumsum()
        cdf /= cdf[-1]
        guide = _guide(cdf)
        size = guide[1]
        assert size & (size - 1) == 0 and size >= max(functional._MC_TABLE, 16 * len(cdf))
        assert (guide[3] is None) == (law in ("dyadic", "zero", "fair"))  # dyadic masses: every cdf point on an edge
        points = np.concatenate([np.arange(size) / size, cdf])
        u = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
        u = np.ascontiguousarray(u[(u >= 0.0) & (u < 1.0)])
        got = _draw_outcomes(u, guide, np.empty(u.size, np.intp), np.empty(u.size, np.intp))
        assert got.tolist() == cdf.searchsorted(u, side="right").tolist()


@pytest.mark.parametrize("law", ["non-dyadic", "many-atoms", "zero"])
def test_monte_carlo_guide_table_bitwise_equal_one_draw(monkeypatch, law):
    # searched buckets across several blocks
    monkeypatch.setattr(functional, "_MC_BLOCK", 1 << 14)
    v = np.random.default_rng(4).standard_normal((5, 3))
    f = GUIDE_LAWS[law]
    res = ipf_monte_carlo(v, f, 2.5, LpNorm(3.0, 3), samples=30_001, seed=9)
    assert (res.value, res.pth_power, res.stderr) == group_monte_carlo(v, f, 2.5, LpNorm(3.0, 3), 30_001, 9)


# laws of 1 to 4 atoms, dyadic and not, with a zero atom and without
_Z_LAWS = [
    rademacher(),
    SymmetricAtoms(((1.3, 0.2),)),
    SymmetricAtoms(((2.0, 0.25), (0.7, 0.25))),
    SymmetricAtoms(((2.0, 0.125), (1.0, 0.25))),
    SymmetricAtoms(((3.0, 0.05), (2.0, 0.1), (1.0, 0.15), (0.5, 0.1))),
]


def test_monte_carlo_z_scores_against_exact():
    # each law at n = 1, 3, 7 and 12 (where k^n stays under 10^7), in l^1, l^2 and l^inf:
    # (Monte Carlo - exact) / stderr over the cases is about standard normal.  A case whose
    # samples all have one norm (stderr 0) must hit the exact value
    rng = np.random.default_rng(27)
    z = []
    for f in _Z_LAWS:
        for n in (1, 3, 7, 12):
            if len(_law_support(f)[0]) ** n > 10**7:
                continue
            v = rng.standard_normal((n, 3))
            for r in (1.0, 2.0, math.inf):
                p = float(rng.choice([1.0, 2.0, 3.0]))
                exact = ipf_exact(v, f, p, LpNorm(r, 3)).pth_power
                mc = ipf_monte_carlo(v, f, p, LpNorm(r, 3), samples=20_000, seed=int(rng.integers(2**31)))
                if mc.stderr == 0.0:
                    assert tol.close(mc.pth_power, exact)
                    continue
                z.append((mc.pth_power - exact) / mc.stderr)
    z = np.array(z)
    assert len(z) >= 40
    assert abs(z.mean()) < 0.5 and 0.7 < z.std() < 1.3 and np.abs(z).max() < 4.0


def test_monte_carlo_memory_guard(monkeypatch):
    # the stored samples, the group tables and what the largest block holds
    # are counted against the budget before the first draw
    monkeypatch.setenv("KHBM_BUDGET", str(10**5))
    with pytest.raises(EnumerationBudgetError, match="need 408952 floats"):
        ipf_monte_carlo(np.eye(2), rademacher(), 2.0, LpNorm(2.0, 2), samples=200_000, seed=0)
    # a wide n: 1000 samples fit the budget, but not with their 45 groups of 2^9 outcomes (or fewer)
    # and a block of 728 samples of 45 uniforms; 30 samples take 100 groups of 2^4
    wide = np.ones((400, 2))
    with pytest.raises(EnumerationBudgetError, match="need 141896 floats, exceeding budget 100000"):
        ipf_monte_carlo(wide, rademacher(), 2.0, LpNorm(2.0, 2), samples=1000, seed=0)
    assert ipf_monte_carlo(wide, rademacher(), 2.0, LpNorm(2.0, 2), samples=30, seed=0).terms_evaluated == 30


_HEXAGON = PolytopeGauge(np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 1.0], [-0.5, -1.0], [0.5, -1.0], [-0.5, 1.0]]))


@pytest.mark.parametrize("samples", [2, 120_000])
@pytest.mark.parametrize(
    "n, norm",
    [(n, LpNorm(r, 3)) for n in (1, 3, 10) for r in (1.0, 2.0, 3.0, math.inf)] + [(3, _HEXAGON)],
    ids=lambda x: describe_norm(x) if hasattr(x, "dim") else f"n{x}",
)
def test_monte_carlo_memory_stays_within_its_count(monkeypatch, samples, n, norm):
    # the traced peak is at most what the count holds for the whole call (the stored samples and the
    # group tables) plus, per block in flight, the rest of the count; 120,000 samples of n = 10 (three
    # groups, of seven support values to a row) cross the 2^20 gate and take two lanes
    counts, lanes, per_lane = [], [], []
    real_map, real_lanes = functional._map, functional._lanes

    def spy(fn, blocks, n_lanes):
        lanes.append(n_lanes)
        return real_map(fn, blocks, n_lanes)

    def lanes_spy(blocks, terms, floats, budget):
        per_lane.append(floats)
        return real_lanes(blocks, terms, floats, budget)

    monkeypatch.setattr(functional, "_check_floats", lambda floats, budget, what: counts.append(floats))
    monkeypatch.setattr(functional, "_map", spy)
    monkeypatch.setattr(functional, "_lanes", lanes_spy)
    monkeypatch.setattr(functional, "_WORKERS", 2)
    v = np.random.default_rng(n).standard_normal((n, norm.dim))
    f = SymmetricAtoms(((1.0, 0.3), (0.5, 0.1), (0.2, 0.05)))  # non-dyadic: some buckets are searched
    ipf_monte_carlo(v, f, 2.5, norm, samples=samples, seed=1)  # numpy's caches come first
    counts.clear()
    lanes.clear()
    per_lane.clear()
    tracemalloc.start()
    try:
        ipf_monte_carlo(v, f, 2.5, norm, samples=samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lanes[0] == (2 if (n, samples) == (10, 120_000) else 1)
    assert peak <= 8 * (counts[0] + (lanes[0] - 1) * per_lane[0])


def traced_count(monkeypatch, module, call):
    """The traced peak of call(), its float count and lanes.

    call() runs a second time, so numpy's caches come first, but with no
    sign table cached: a process's first call must stay within its count too.
    """
    counts, lanes = [], []
    real_map = functional._map

    def spy(fn, blocks, n_lanes):
        lanes.append(n_lanes)
        return real_map(fn, blocks, n_lanes)

    monkeypatch.setattr(module, "_check_floats", lambda floats, budget, what: counts.append(floats))
    monkeypatch.setattr(functional, "_map", spy)
    call()
    counts.clear()
    lanes.clear()
    norms._cached_signs.cache_clear()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, counts[0], max(lanes, default=1)


_MEMORY_NORMS = [LpNorm(2.0, 3), LpNorm(3.0, 3), _HEXAGON]


@pytest.mark.parametrize("norm", _MEMORY_NORMS, ids=describe_norm)
@pytest.mark.parametrize("n", [16, 20])
def test_exact_memory_stays_within_its_count(monkeypatch, n, norm):
    # the count holds the norm's temporaries and _scaled_powers' copy; 2^20 terms cross the
    # gate and take two lanes, each with its own block.  A fixed few KB a call stay uncounted,
    # so small n are left out
    monkeypatch.setattr(functional, "_WORKERS", 2)
    v = np.random.default_rng(n).standard_normal((n, norm.dim))
    peak, count, lanes = traced_count(monkeypatch, functional, lambda: ipf_exact(v, rademacher(), 2.5, norm))
    assert lanes == (2 if n == 20 else 1)
    assert peak <= 8 * lanes * count


@pytest.mark.parametrize("norm", _MEMORY_NORMS, ids=describe_norm)
@pytest.mark.parametrize("n, t", [(8, 0.25), (12, 0.25), (12, 0.5), (16, 0.5)])
def test_two_valued_memory_stays_within_its_count(monkeypatch, n, t, norm):
    # the largest chunk holds up to 2^15 sign rows, more than the 2^n of k = n below n = 15;
    # at n = 16 the 2^16 x 16 table is built in the call, past the cache
    v = np.random.default_rng(n).standard_normal((n, norm.dim))
    peak, count, lanes = traced_count(monkeypatch, functional, lambda: ipf_two_valued_exact(v, t, 2.5, norm))
    assert lanes == 1
    assert peak <= 8 * count


def test_two_valued_holds_no_sign_table_after_its_call():
    # a table past 2^14 rows is the call's alone: at n = 16 the 2^16 x 16 table (8.4 MB) is freed with it
    v = np.random.default_rng(16).standard_normal((16, 3))
    ipf_two_valued_exact(v[:3], 0.5, 2.5, LpNorm(2.0, 3))  # numpy's caches come first
    norms._cached_signs.cache_clear()
    tracemalloc.start()
    try:
        ipf_two_valued_exact(v, 0.5, 2.5, LpNorm(2.0, 3))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


@pytest.mark.parametrize("size", [2, 7, 8, 9, 127, 128, 129, 10**6])
@pytest.mark.parametrize("p", [1.0, 2.0, 2.5])
def test_scaled_moments_are_numpys_mean_and_std(size, p):
    # up to _MC_SUMS entries the bits are those of numpy's mean and std; past it, of numpy's sums over
    # each range of _MC_SUMS added by fsum; on one lane or two alike.  p = 2 takes numpy's square path
    # in both; a zero array has peak 0 and is left unscaled
    x = np.abs(np.random.default_rng(size).standard_normal(size)) * 1e3
    for arr in (x, np.zeros(size)):
        peak = float(arr.max())
        scaled = (arr / peak) ** p if peak > 0.0 else arr
        if size <= functional._MC_SUMS:
            want = (peak, float(scaled.mean()), float(scaled.std(ddof=1)))
        else:
            parts = [scaled[lo : lo + functional._MC_SUMS] for lo in range(0, size, functional._MC_SUMS)]
            mean = math.fsum(float(part.sum()) for part in parts) / size
            squares = math.fsum(float(((part - mean) ** 2).sum()) for part in parts)
            want = (peak, mean, math.sqrt(squares / (size - 1)))
        for lanes in (1, 2):
            assert functional._scaled_moments(arr.copy(), p, lanes) == want  # bitwise


def test_subsets_are_the_combinations_in_colex_order():
    # colex order: sorted by the reversed subset, which ranks c_1 < ... < c_k at sum_i C(c_i, i)
    for n in range(1, 9):
        for k in range(1, n + 1):
            want = sorted(itertools.combinations(range(n), k), key=lambda c: c[::-1])
            assert functional._subsets(n, k, 0, len(want)).tolist() == [list(c) for c in want]
            assert functional._subsets(n, k, len(want) // 2, len(want)).tolist() == [
                list(c) for c in want[len(want) // 2 :]
            ]


# inputs of every route above the 2^20-term gate, in several blocks; the Monte Carlo
# law is non-dyadic, so some of its guide-table buckets are searched, and its seven
# rows make two groups, of five rows and of two, each with its own guide table.  The
# falsifier's first violation lies at trial 28,870, in the eighth of its 20 batches
_V20, _V13, _V7 = (np.random.default_rng(31 + n).standard_normal((n, 3 if n < 20 else 2)) for n in (20, 13, 7))
_MC_LAW = SymmetricAtoms(((1.0, 0.3), (0.5, 0.1)))


def _parallel_outputs(monkeypatch):
    # 50,000-sample Monte Carlo blocks of two uniforms a sample: 350,001 samples end in a one-sample block
    monkeypatch.setattr(functional, "_MC_BLOCK", 2 * 50_000)
    hit = falsify_hanner(LpNorm(3.0, 2), q=1.1, n=3, d=2, mode="cotype", trials=80_000, seed=0)
    return (
        ipf_exact(_V20, rademacher(), 3.0, LpNorm(1.5, 2)),
        hanner_gap(LpNorm(3.0, 2), _V20, 1.5),
        ipf_two_valued_exact(_V13, 0.25, 2.5, LpNorm(math.inf, 3)),
        ipf_monte_carlo(_V7, _MC_LAW, 2.5, LpNorm(3.0, 3), samples=350_001, seed=5),
        (hit.trial_index, hit.violation, hit.gap, hit.witness.rows.tobytes()),
    )


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_outputs_do_not_depend_on_worker_count(monkeypatch, workers):
    lanes = []
    real_map = functional._map

    def spy(fn, blocks, n_lanes):
        lanes.append(n_lanes)
        return real_map(fn, blocks, n_lanes)

    monkeypatch.setattr(functional, "_map", spy)
    monkeypatch.setattr(hanner, "_map", spy)
    monkeypatch.setattr(functional, "_WORKERS", 1)
    base = _parallel_outputs(monkeypatch)
    assert set(lanes) == {1} and base[-1][0] == 28_870
    lanes.clear()
    monkeypatch.setattr(functional, "_WORKERS", workers)
    assert _parallel_outputs(monkeypatch) == base  # bitwise
    # hanner_gap makes two kernel calls, Monte Carlo one for its draws and two for its moments
    assert len(lanes) == 8 and set(lanes) == {workers}


def test_lanes_switching_every_microsecond_match_one_lane(monkeypatch):
    # more lanes than cores, forced to interleave: a lost result slot, a buffer shared by
    # two blocks, or a Monte Carlo block or falsifier batch drawn out of stream order
    # would change the outputs
    monkeypatch.setattr(functional, "_WORKERS", 1)
    base = _parallel_outputs(monkeypatch)
    monkeypatch.setattr(functional, "_WORKERS", functional._MAX_WORKERS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _parallel_outputs(monkeypatch)
    finally:
        sys.setswitchinterval(interval)
    assert got == base


def test_parallel_monte_carlo_is_one_draw(monkeypatch):
    # the blocks' uniforms, drawn from the one generator as the lanes take the blocks in order, are one draw
    monkeypatch.setattr(functional, "_WORKERS", 2)
    res = _parallel_outputs(monkeypatch)[3]
    want = group_monte_carlo(_V7, _MC_LAW, 2.5, LpNorm(3.0, 3), 350_001, 5)
    assert (res.value, res.pth_power, res.stderr) == want


@pytest.mark.parametrize("workers", [2, 3])
def test_a_stalled_lane_moves_no_draw(monkeypatch, workers):
    # a lane that sleeps 50 ms on its first Monte Carlo block, or on falsifier batch 0, lets the
    # others run ahead through the stream; each block is drawn as it is taken, in stream order, so
    # the Monte Carlo row and the falsifier's witness (that of test_hanner's _LATE_HIT) stay
    # bitwise those of one lane
    monkeypatch.setattr(functional, "_WORKERS", 1)
    base = _parallel_outputs(monkeypatch)
    real_scan, real_draw, draws = hanner._scan, functional._draw_outcomes, itertools.count()

    def slow_scan(signs, batch, norm, q, mode, start):
        if start == 0:
            time.sleep(0.05)
        return real_scan(signs, batch, norm, q, mode, start)

    def slow_draw(u, guide, bucket, index):
        if next(draws) == 0:
            time.sleep(0.05)
        return real_draw(u, guide, bucket, index)

    monkeypatch.setattr(hanner, "_scan", slow_scan)
    monkeypatch.setattr(functional, "_draw_outcomes", slow_draw)
    monkeypatch.setattr(functional, "_WORKERS", workers)
    got = _parallel_outputs(monkeypatch)
    assert next(draws) > 1
    assert (got[3], got[4]) == (base[3], base[4])  # bitwise


class _Stream:
    """Blocks 0..count-1, made one per ``next``, each counted while it is alive.

    ``next`` sleeps while it holds a gate that an overlapping call would
    find taken, and raises at block ``fail_at``.
    """

    def __init__(self, count, fail_at=None):
        self.count, self.fail_at, self.made = count, fail_at, 0
        self.gate, self.lock = threading.Lock(), threading.Lock()
        self.overlaps, self.alive, self.most = 0, 0, 0

    def __iter__(self):
        return self

    def __next__(self):
        if not self.gate.acquire(blocking=False):
            self.overlaps += 1
            self.gate.acquire()
        try:
            time.sleep(1e-4)
            i = self.made
            if i == self.count:
                raise StopIteration
            self.made += 1
            if i == self.fail_at:
                raise RuntimeError(f"stream fails at {i}")
            block = np.full(4, float(i))
            with self.lock:
                self.alive += 1
                self.most = max(self.most, self.alive)
            weakref.finalize(block, self._free)
            return block
        finally:
            self.gate.release()

    def _free(self):
        with self.lock:
            self.alive -= 1


def _khbm_threads():
    return [t for t in threading.enumerate() if t.name.startswith("khbm")]


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_map_takes_a_stream_in_order_with_lanes_blocks_alive(lanes):
    # _map takes a lazy stream one block at a time and in order, and a lane lets go of its block
    # before it takes the next, so at most `lanes` blocks are alive, the one being made included;
    # an error from the stream or from fn is raised once, after every lane has ended
    running, errors = [], []

    def work(block, fails=False):
        i = int(block[0])
        running.append(i)
        time.sleep(1e-3 * (i % 3))
        running.remove(i)
        if fails and i == 11:
            errors.append(ValueError("fn fails at 11"))
            raise errors[-1]
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stream = _Stream(30)
        assert functional._map(work, stream, lanes) == list(range(30))
        assert stream.overlaps == 0 and 1 <= stream.most <= lanes and stream.alive == 0
        stream = _Stream(30, fail_at=17)
        with pytest.raises(RuntimeError, match="^stream fails at 17$"):
            functional._map(work, stream, lanes)
        assert not running and not _khbm_threads()
        assert stream.overlaps == 0 and stream.most <= lanes
        with pytest.raises(ValueError) as raised:
            functional._map(partial(work, fails=True), _Stream(30), lanes)
        assert raised.value is errors[0] and len(errors) == 1
        assert not running and not _khbm_threads()
    finally:
        sys.setswitchinterval(interval)


def test_budget_refusals_come_before_any_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a refused call started the pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(functional, "_WORKERS", 2)
    # 2^20 terms fit each budget, but the floats do not
    monkeypatch.setenv("KHBM_BUDGET", str(1_100_000))
    with pytest.raises(EnumerationBudgetError, match="floats"):
        ipf_exact(np.ones((20, 50)), rademacher(), 2.0, LpNorm(2.0, 50))
    monkeypatch.setenv("KHBM_BUDGET", str(2_000_000))
    with pytest.raises(EnumerationBudgetError, match="floats"):
        ipf_two_valued_exact(np.ones((13, 300)), 0.25, 2.0, LpNorm(2.0, 300))
    monkeypatch.setenv("KHBM_BUDGET", str(10**6))
    with pytest.raises(EnumerationBudgetError, match="floats"):
        ipf_monte_carlo(np.eye(3), rademacher(), 2.0, LpNorm(2.0, 3), samples=800_000, seed=0)


def test_blocks_in_flight_fit_the_budget(monkeypatch):
    # above the gate, but the budget holds one block of 20 x 50 sums in flight, not two: no pool
    def no_pool(*args, **kwargs):
        raise AssertionError("two blocks in flight would exceed the budget")

    v = np.random.default_rng(3).standard_normal((20, 50))
    monkeypatch.setattr(functional, "_WORKERS", 2)
    want = ipf_exact(v, rademacher(), 2.0, LpNorm(2.0, 50))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("KHBM_BUDGET", str(4_000_000))
    assert ipf_exact(v, rademacher(), 2.0, LpNorm(2.0, 50)) == want


def test_small_work_starts_no_threads():
    # importing khbm loads no pool machinery, and the command line's everyday
    # calls stay below the gate, so no thread (nor its malloc arena) is started
    code = (
        "import sys, threading, io, contextlib\n"
        "import khbm\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "from khbm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['acceptance', '--seed', '0']), main(['bm', '--pair', '1', '3', '6'])]\n"
        "print(codes, threading.active_count())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0]", "1"]


def test_monte_carlo_validation():
    v = np.eye(2)
    with pytest.raises(ValueError):
        ipf_monte_carlo(v, rademacher(), 2.0, LpNorm(2.0, 2), samples=1, seed=0)


def test_vector_tuple_validation():
    with pytest.raises(ValueError):
        VectorTuple(np.array([[math.inf, 0.0]]))
    with pytest.raises(ValueError):
        VectorTuple(np.zeros((2, 2, 2)))
    vt = VectorTuple([[1.0, 2.0], [3.0, 4.0]])
    assert (vt.n, vt.d) == (2, 2)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        ipf_exact(np.eye(3), rademacher(), 2.0, LpNorm(2.0, 2))


def test_verify_theorem1_sides():
    v = np.random.default_rng(5).standard_normal((3, 2))
    f = SymmetricAtoms(((1.5, 0.2), (0.5, 0.1)))
    lo = verify_theorem1(v, f, 3.0, 1.5, LpNorm(1.5, 2), side="lower")
    assert lo.holds and lo.witness_s is not None
    hi = verify_theorem1(v, f, 1.5, 3.0, LpNorm(3.0, 2), side="upper")
    assert hi.holds and hi.witness_s is None
    with pytest.raises(ValueError):
        verify_theorem1(v, f, 2.0, 2.0, LpNorm(2.0, 2), side="sideways")


def test_p2_identity_euclidean():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        v = rng.standard_normal((n, d))
        f = SymmetricAtoms(((1.4, 0.25), (0.3, 0.2)))
        second = 2.0 * sum(t * a * a for a, t in f.atoms)
        got = ipf_exact(v, f, 2.0, LpNorm(2.0, d)).pth_power
        want = second * float((v**2).sum())
        assert abs(got - want) <= 1e-12 * want


def test_value_axiom_suite_small():
    rep = check_value_norm_axioms(rademacher(), 1.5, LpNorm(2.0, 2), trials=40, seed=1)
    assert rep.passed
    assert rep.min_nonzero_value > 0
    with pytest.raises(ValueError):
        check_value_norm_axioms(SymmetricAtoms(()), 2.0, LpNorm(2.0, 2), trials=5)


def test_argument_axiom_suite_small():
    v = np.array([[1.0, 0.0], [0.5, 0.5]])
    rep = check_argument_norm_axioms(v, 2.5, trials=40, seed=2)
    assert rep.passed
    assert rep.zero_law_value == 0.0


def test_argument_axioms_need_nonzero_sum():
    v = np.array([[1.0, -2.0], [-1.0, 2.0]])
    with pytest.raises(ValueError, match="nonzero"):
        check_argument_norm_axioms(v, 2.0, trials=5)


def test_level_monotonicity_check():
    v = np.random.default_rng(8).standard_normal((3, 2))
    f = SymmetricAtoms(((2.0, 0.2), (1.0, 0.2)))
    g = SymmetricAtoms(((1.5, 0.2), (0.7, 0.2)))
    assert check_level_monotonicity(v, 2.0, LpNorm(2.0, 2), f, g).holds
    with pytest.raises(ValueError):
        check_level_monotonicity(v, 2.0, LpNorm(2.0, 2), f, SymmetricAtoms(((1.0, 0.3),)))
    with pytest.raises(ValueError):
        check_level_monotonicity(v, 2.0, LpNorm(2.0, 2), g, f)  # g < f crosswise


def test_barycenter_chain():
    v = np.random.default_rng(10).standard_normal((3, 2))
    f = SymmetricAtoms(((2.0, 0.15), (1.0, 0.2), (0.4, 0.1)))
    rep = check_barycenter_reduction(v, 1.5, LpNorm(1.0, 2), f)
    assert rep.holds
    assert len(rep.reductions) == 3
    assert rep.envelope_value >= rep.f_value >= rep.reductions[-1][1]
    with pytest.raises(ValueError):
        check_barycenter_reduction(v, 2.0, LpNorm(2.0, 2), SymmetricAtoms(()))
