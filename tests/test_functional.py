import concurrent.futures
import gc
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from khbm import functional, norms
from khbm import tolerances as tol
from khbm.combinatorics import SubsetRatioInput, subset_power_ratio
from khbm.distributions import SymmetricAtoms, rademacher
from khbm.functional import (
    EnumerationBudgetError,
    VectorTuple,
    _choice_map,
    _ipf_exact_many,
    _law_support,
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
from khbm.hanner import hanner_gap
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


def choice_monte_carlo(v, f, p, norm, samples, seed):
    """Reference: one rng.choice draw of every index, one product, one norm call."""
    values, weights = _law_support(f)
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(len(values), size=(samples, len(v)), p=weights)
    norms = norm_eval_many(norm, values[idx] @ v)
    peak = float(norms.max())
    scaled = (norms / peak) ** p if peak > 0.0 else norms
    mean, value = functional._pth_and_value(peak, float(scaled.mean()), p)
    stderr, _ = functional._pth_and_value(peak, float(scaled.std(ddof=1) / math.sqrt(samples)), p)
    return value, mean, stderr


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
    # numpy multiplies by one column (d = 1) through BLAS's matrix-vector path, by three through matrix-matrix;
    # blocks of 2^16 rows put the sample counts at, just past and one past twice a block edge
    if block_rows is not None:
        monkeypatch.setattr(functional, "_MC_BLOCK", block_rows * n)
    rng = np.random.default_rng(samples + n)
    v = rng.standard_normal((n, d))
    f = SymmetricAtoms(((2.0, 0.125), (1.0, 0.25)))
    res = ipf_monte_carlo(v, f, 3.0, LpNorm(1.0, d), samples=samples, seed=n)
    assert (res.value, res.pth_power, res.stderr) == choice_monte_carlo(v, f, 3.0, LpNorm(1.0, d), samples, n)


@pytest.mark.parametrize("samples", [2, 3, 4, 7, 8, 101])
def test_monte_carlo_two_row_blocks_bitwise_equal_one_draw(monkeypatch, samples):
    # the smallest blocks, two rows, with and without a one-row tail to merge;
    # every drawn vector sum must equal the one-draw product's row
    monkeypatch.setattr(functional, "_MC_BLOCK", 2 * 10)
    blocks = []

    def spy(norm, pts):
        blocks.append(pts)
        return norm_eval_many(norm, pts)

    monkeypatch.setattr(functional, "norm_eval_many", spy)
    v = np.random.default_rng(samples).standard_normal((10, 3))
    f = SymmetricAtoms(((3.0, 0.0625), (2.0, 0.125), (1.0, 0.25)))
    res = ipf_monte_carlo(v, f, 1.5, LpNorm(1.5, 3), samples=samples, seed=7)
    assert min(len(b) for b in blocks) >= 2
    values, weights = _law_support(f)
    idx = np.random.Generator(np.random.PCG64(7)).choice(len(values), size=(samples, 10), p=weights)
    assert np.concatenate(blocks).tobytes() == (values[idx] @ v).tobytes()
    assert (res.value, res.pth_power, res.stderr) == choice_monte_carlo(v, f, 1.5, LpNorm(1.5, 3), samples, 7)


# laws for the guide table: dyadic (no bucket holds a cdf point), non-dyadic
# (some do), a tiny mass (two cdf points inside one bucket), more than 2,048
# atoms (nearly every bucket does) and the zero law
GUIDE_LAWS = {
    "dyadic": SymmetricAtoms(((2.0, 0.125), (1.0, 0.25))),
    "non-dyadic": SymmetricAtoms(((1.0, 0.3), (0.5, 0.1))),
    "tiny-mass": SymmetricAtoms(((1.0, 1e-300), (0.25, 1.0 / 3.0))),
    "many-atoms": SymmetricAtoms(tuple((float(2100 - i), 1.0 / 4207.0) for i in range(2100))),
    "zero": SymmetricAtoms(()),
}


@pytest.mark.parametrize("law", GUIDE_LAWS, ids=str)
def test_choice_map_matches_searchsorted_at_every_edge(law):
    # uniforms on every bucket edge and every cdf value, and one ulp either
    # side of each, map to the value at searchsorted(side="right")
    values, weights = _law_support(GUIDE_LAWS[law])
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    points = np.concatenate([np.arange(functional._MC_TABLE) / functional._MC_TABLE, cdf])
    u = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
    u = np.ascontiguousarray(u[(u >= 0.0) & (u < 1.0)])
    want = values[cdf.searchsorted(u, side="right")]
    got = _choice_map(values, cdf, u.size)(u.copy())
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("law", ["non-dyadic", "many-atoms", "zero"])
def test_monte_carlo_guide_table_bitwise_equal_one_draw(monkeypatch, law):
    # searched buckets across several blocks and several fallback slices
    monkeypatch.setattr(functional, "_MC_BLOCK", 1 << 16)
    v = np.random.default_rng(4).standard_normal((5, 3))
    f = GUIDE_LAWS[law]
    res = ipf_monte_carlo(v, f, 2.5, LpNorm(3.0, 3), samples=30_001, seed=9)
    assert (res.value, res.pth_power, res.stderr) == choice_monte_carlo(v, f, 2.5, LpNorm(3.0, 3), 30_001, 9)


def test_monte_carlo_memory_guard(monkeypatch):
    # the stored samples and what the largest block and its map hold are
    # counted against the budget before the first draw
    monkeypatch.setenv("KHBM_BUDGET", str(10**5))
    with pytest.raises(EnumerationBudgetError, match="need 515407 floats"):
        ipf_monte_carlo(np.eye(2), rademacher(), 2.0, LpNorm(2.0, 2), samples=200_000, seed=0)
    # a wide n: 1000 samples fit the budget, but one block of 164 rows of 400 draws does not
    wide = np.ones((400, 2))
    with pytest.raises(EnumerationBudgetError, match="need 153444 floats, exceeding budget 100000"):
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
    # the traced peak is at most the stored samples plus, per block in flight, the
    # rest of the count; 120,000 samples of n = 10 cross the 2^20 gate and take two lanes
    counts, lanes = [], []
    real_map = functional._map

    def spy(fn, blocks, n_lanes):
        lanes.append(n_lanes)
        return real_map(fn, blocks, n_lanes)

    monkeypatch.setattr(functional, "_check_floats", lambda floats, budget, what: counts.append(floats))
    monkeypatch.setattr(functional, "_map", spy)
    monkeypatch.setattr(functional, "_WORKERS", 2)
    v = np.random.default_rng(n).standard_normal((n, norm.dim))
    f = GUIDE_LAWS["non-dyadic"]  # some buckets are searched
    ipf_monte_carlo(v, f, 2.5, norm, samples=samples, seed=1)  # numpy's caches come first
    counts.clear()
    lanes.clear()
    tracemalloc.start()
    try:
        ipf_monte_carlo(v, f, 2.5, norm, samples=samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lanes == [2 if samples * n >= functional._PARALLEL else 1]
    assert peak <= 8 * (samples + lanes[0] * (counts[0] - samples))


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
    # p = 2 takes numpy's square path in both; a zero array has peak 0 and is left unscaled
    x = np.abs(np.random.default_rng(size).standard_normal(size)) * 1e3
    for arr in (x, np.zeros(size)):
        peak = float(arr.max())
        scaled = (arr / peak) ** p if peak > 0.0 else arr
        want = (peak, float(scaled.mean()), float(scaled.std(ddof=1)))
        assert functional._scaled_moments(arr.copy(), p) == want  # bitwise


def test_subsets_are_the_combinations_in_colex_order():
    # colex order: sorted by the reversed subset, which ranks c_1 < ... < c_k at sum_i C(c_i, i)
    for n in range(1, 9):
        for k in range(1, n + 1):
            want = sorted(itertools.combinations(range(n), k), key=lambda c: c[::-1])
            assert functional._subsets(n, k, 0, len(want)).tolist() == [list(c) for c in want]
            assert functional._subsets(n, k, len(want) // 2, len(want)).tolist() == [
                list(c) for c in want[len(want) // 2 :]
            ]


# inputs of every route above the 2^20-term gate, in several blocks; the
# Monte Carlo law is non-dyadic, so some of its guide-table buckets are searched
_V20, _V13, _V3 = (np.random.default_rng(31 + n).standard_normal((n, 3 if n < 20 else 2)) for n in (20, 13, 3))
_MC_LAW = SymmetricAtoms(((1.0, 0.3), (0.5, 0.1)))


def _parallel_outputs(monkeypatch):
    # 50,000-row Monte Carlo blocks of n = 3: block starts lo * 3 leave every remainder mod 4,
    # and 350,001 samples end in a one-row tail that joins the block before it
    monkeypatch.setattr(functional, "_MC_BLOCK", 3 * 50_000)
    return (
        ipf_exact(_V20, rademacher(), 3.0, LpNorm(1.5, 2)),
        hanner_gap(LpNorm(3.0, 2), _V20, 1.5),
        ipf_two_valued_exact(_V13, 0.25, 2.5, LpNorm(math.inf, 3)),
        ipf_monte_carlo(_V3, _MC_LAW, 2.5, LpNorm(3.0, 3), samples=350_001, seed=5),
    )


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_outputs_do_not_depend_on_worker_count(monkeypatch, workers):
    lanes = []
    real_map = functional._map

    def spy(fn, blocks, n_lanes):
        lanes.append(n_lanes)
        return real_map(fn, blocks, n_lanes)

    monkeypatch.setattr(functional, "_map", spy)
    monkeypatch.setattr(functional, "_WORKERS", 1)
    base = _parallel_outputs(monkeypatch)
    assert set(lanes) == {1}
    lanes.clear()
    monkeypatch.setattr(functional, "_WORKERS", workers)
    assert _parallel_outputs(monkeypatch) == base  # bitwise
    assert len(lanes) == 5 and set(lanes) == {workers}  # hanner_gap makes two kernel calls


def test_lanes_switching_every_microsecond_match_one_lane(monkeypatch):
    # more lanes than cores, forced to interleave: a lost result slot, a shared
    # uniforms buffer or a shared bucket buffer would change the outputs
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
    # per-block PCG64 streams, advanced past the uniforms before each block, are the one stream
    monkeypatch.setattr(functional, "_WORKERS", 2)
    *_, res = _parallel_outputs(monkeypatch)
    want = choice_monte_carlo(_V3, _MC_LAW, 2.5, LpNorm(3.0, 3), 350_001, 5)
    assert (res.value, res.pth_power, res.stderr) == want


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
