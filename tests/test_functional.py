import itertools
import math

import numpy as np
import pytest

from khbm.distributions import SymmetricAtoms, rademacher
from khbm.functional import (
    EnumerationBudgetError,
    VectorTuple,
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
from khbm.norms import LpNorm, norm_eval


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
