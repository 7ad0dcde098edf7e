import itertools
import math

import numpy as np
import pytest

from khbm import functional
from khbm.combinatorics import SubsetRatioInput, subset_power_ratio
from khbm.distributions import SymmetricAtoms, rademacher
from khbm.functional import (
    EnumerationBudgetError,
    VectorTuple,
    _law_support,
    check_argument_norm_axioms,
    check_barycenter_reduction,
    check_level_monotonicity,
    check_value_norm_axioms,
    default_budget,
    ipf_exact,
    ipf_monte_carlo,
    ipf_two_valued_exact,
    _sign_matrix,
    verify_theorem1,
)
from khbm.hanner import hanner_gap
from khbm.norms import LpNorm, PolytopeGauge, norm_eval, norm_eval_many


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
            hanner_gap(norm, v, 1.5),
            [subset_power_ratio(SubsetRatioInput(x, k, 1.7)) for k in (1, 5, 8)],
        )

    base = outputs()
    monkeypatch.setattr(functional, "_CHUNK", chunk)
    assert outputs() == base  # bitwise


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


def test_memory_bound_refuses_before_allocating():
    # 4 terms fit the budget, but the half tables and block of 50-dim sums do not
    with pytest.raises(EnumerationBudgetError, match="floats"):
        ipf_exact(np.ones((2, 50)), rademacher(), 2.0, LpNorm(2.0, 50), budget=100)
    assert ipf_exact(np.ones((2, 50)), rademacher(), 2.0, LpNorm(2.0, 50), budget=250).terms_evaluated == 4


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


def test_sign_matrix_is_read_only():
    # the cached table is shared by ipf_two_valued_exact, hanner and banach_mazur
    signs = _sign_matrix(3)
    with pytest.raises(ValueError):
        signs[0, 0] = 0.0
    with pytest.raises(ValueError):
        signs *= -1.0
    assert _sign_matrix(3)[0, 0] == -1.0


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


def test_budget_error_advises_sampling():
    v = np.ones((30, 1))
    with pytest.raises(EnumerationBudgetError, match="monte"):
        ipf_exact(v, rademacher(), 2.0, LpNorm(2.0, 1), budget=1000)
    with pytest.raises(EnumerationBudgetError):
        ipf_two_valued_exact(np.ones((40, 1)), 0.25, 2.0, LpNorm(2.0, 1), budget=100)


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
    assert rep.evenness_max_rel_err == 0.0  # negated support is bitwise identical


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
