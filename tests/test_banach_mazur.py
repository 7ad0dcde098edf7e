import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from khbm import banach_mazur, norms
from khbm.banach_mazur import (
    LowerBound,
    TransformBound,
    _consistent,
    corollary1_lower,
    default_transforms,
    hadamard_matrix,
    known_distance,
    prop4_lower,
    sandwich_report,
    theorem2_cotype_lower,
    theorem2_general_lower,
    upper_bound_via_transform,
)
from khbm.constants import lower_constant
from khbm.norms import LpNorm, PolytopeGauge, dual_norm_spec, estimate_comparison, norm_eval_many


def test_corollary1_crosspolytope_values():
    for n in (2, 4, 100):
        got = corollary1_lower(1.0, math.inf, n)
        assert abs(got - math.sqrt(n / 2.0)) <= 1e-12 * math.sqrt(n / 2.0)


def test_corollary1_validation():
    with pytest.raises(ValueError):
        corollary1_lower(2.0, 3.0, 4)  # p must sit strictly below 2
    with pytest.raises(ValueError):
        corollary1_lower(1.0, 2.0, 4)  # q strictly above 2
    with pytest.raises(ValueError):
        corollary1_lower(1.0, 3.0, 0)


def test_general_lower_crosspolytope():
    for n in (2, 4, 9):
        lb = theorem2_general_lower(LpNorm(1.0, n), n)
        assert lb.rigorous
        assert abs(lb.raw - math.sqrt(n / 2.0)) <= 1e-9 * lb.raw
        # nonincreasing objective (flat on [1, p0] at n = 2): the smallest maximizer is 1
        assert lb.witness_p == 1.0


def _khinchine_lower(p):
    # A_p = min{1, 2^(1/2 - 1/p), ||g||_p}, vectorized over p
    gauss = np.sqrt(2.0) * np.exp((gammaln((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)) / p)
    return np.minimum(1.0, np.minimum(2.0 ** (0.5 - 1.0 / p), gauss))


@pytest.mark.parametrize("r", [1.0, 1.1, 1.5, 1.8, 1.85, 1.9, 2.0, 2.5, 3.0, 10.0, 64.0, 100.0, math.inf])
def test_breakpoint_max_matches_search_and_dense_grid(r):
    # the breakpoint maximum against the golden-section search it replaced,
    # with the same objective, and against the closed-form objective on a
    # dense grid of [lo, 64]
    inv_r = 1.0 / r
    for n in [*range(1, 17), 100, 10**6]:
        L = LpNorm(r, n)
        to_lp, from_lp, _ = norms._comparison_functions(L, 1, 0)
        for q in (None, 1.0, 1.5, 2.0):
            lo = 1.0 if q is None else q
            ps = np.geomspace(lo, 64.0, 4001)
            if q is None:
                got = theorem2_general_lower(L, n)
                grid = _khinchine_lower(ps) * n ** (1.0 / ps - 0.5) * np.minimum(1.0, n ** (inv_r - 1.0 / ps))

                def objective(p):
                    return to_lp(p) * from_lp(1.0) * lower_constant(p) * float(n) ** (1.0 / p - 0.5)

            else:
                got = theorem2_cotype_lower(L, q, n)
                grid = lower_constant(q) * math.sqrt(n) * n ** -np.abs(inv_r - 1.0 / ps)

                def objective(p):
                    return lower_constant(q) * to_lp(p) * from_lp(p) * math.sqrt(n)

            extras = (lo, 2.0) + ((r,) if r <= 64.0 else ())
            searched, _ = banach_mazur._optimize_exponent(objective, lo, 64.0, extras)
            assert abs(got.raw - searched) <= 1e-15 * searched, (n, q)
            assert grid.max() <= got.raw * (1.0 + 1e-15), (n, q)
            assert got.raw == objective(got.witness_p)


def test_flat_objectives_report_the_smallest_maximizer():
    # l^inf and l^3 at n = 4 are flat from p = 2 on; the search used to
    # report 62.4 and 2.55
    assert theorem2_general_lower(LpNorm(math.inf, 4), 4).witness_p == 2.0
    assert theorem2_general_lower(LpNorm(3.0, 4), 4).witness_p == 2.0
    rep = sandwich_report(math.inf, 3.0, 4)
    assert [lb.witness_p for lb in rep.lower_bounds] == [2.0, 2.0, 2.0]
    # n = 1: the objective is A_p, which first reaches 1 at p = 2; a
    # constant cotype objective reports q
    assert theorem2_general_lower(LpNorm(1.5, 1), 1).witness_p == 2.0
    assert theorem2_cotype_lower(LpNorm(3.0, 1), 1.5, 1).witness_p == 1.5


def test_search_runs_only_for_polytope_bodies(monkeypatch):
    calls = []
    real = banach_mazur._optimize_exponent

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(banach_mazur, "_optimize_exponent", counting)
    for p, q in ((1.0, math.inf), (1.5, 3.0), (math.inf, 2.0), (1.0, 1.5)):
        sandwich_report(p, q, 4)
    assert calls == []
    square = PolytopeGauge(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
    theorem2_general_lower(square, 2, trials=8)
    theorem2_cotype_lower(square, 1.5, 2, trials=8)
    assert calls == [(1.0, 64.0), (1.5, 64.0)]


def test_search_brackets_a_best_point_at_the_low_end():
    # lo is both the first grid point and an extra; the bracket used to be [lo, lo]
    best, witness = banach_mazur._optimize_exponent(lambda p: -abs(p - 1.03), 1.0, 64.0, extras=(1.0, 2.0))
    assert abs(witness - 1.03) <= 1e-12
    assert best >= -1e-12


def test_cotype_lower_euclidean_is_sqrt_n():
    for n in (2, 3, 8, 16):
        lb = theorem2_cotype_lower(LpNorm(2.0, n), 2.0, n)
        assert lb.raw == math.sqrt(n)
        assert lb.witness_p == 2.0
        assert "cotype (2" in lb.note


def test_dim_mismatch():
    with pytest.raises(ValueError):
        theorem2_general_lower(LpNorm(1.0, 3), 4)
    with pytest.raises(ValueError):
        theorem2_cotype_lower(LpNorm(2.0, 3), 2.0, 4)
    with pytest.raises(ValueError):
        theorem2_cotype_lower(LpNorm(2.0, 3), 0.5, 3)
    with pytest.raises(ValueError):
        theorem2_cotype_lower(LpNorm(2.0, 3), 65.0, 3)


def test_prop4_cases():
    r = prop4_lower(math.inf, LpNorm(1.0, 4), 4)
    assert r.note in ("case general", "case cotype")
    assert r.raw > 1.0  # cube vs crosspolytope grows like sqrt(n/2)
    r2 = prop4_lower(1.0, LpNorm(math.inf, 4), 4)
    assert r2.note.startswith("case dual")
    assert r2.value >= 1.0


def test_prop4_polytope_uses_polar():
    # p < 2 reduces to the dual norm; the polar of the diamond is the square,
    # whose sampled comparison extremes sit on the axes and the all-ones vector
    for n in (2, 3):
        eye = np.eye(n)
        got = prop4_lower(1.5, PolytopeGauge(np.vstack([eye, -eye])), n)
        want = prop4_lower(1.5, LpNorm(1.0, n), n)
        assert got.note == want.note == "case dual-general"
        assert not got.rigorous
        assert abs(got.raw - want.raw) <= 1e-12 * want.raw


def test_polytope_bounds_evaluate_the_gauge_once(monkeypatch):
    # the sample and its gauge values are shared by every exponent the
    # optimizer tries; the bound is the one estimate_comparison gives
    angles = np.arange(6) * math.pi / 3.0 + 0.3
    hexagon = PolytopeGauge(np.stack([np.cos(angles), 1.4 * np.sin(angles)], axis=1))
    gauge_calls = []
    real = norms.norm_eval_many

    def counting(spec, pts):
        gauge_calls.append(isinstance(spec, PolytopeGauge))
        return real(spec, pts)

    monkeypatch.setattr(norms, "norm_eval_many", counting)
    general = theorem2_general_lower(hexagon, 2, trials=16, seed=5)
    cotype = theorem2_cotype_lower(hexagon, 1.5, 2, trials=16, seed=5)
    assert sum(gauge_calls) == 2

    def lower(a, b):
        return estimate_comparison(a, b, 16, 5).lower

    p = general.witness_p
    want = lower(hexagon, LpNorm(p, 2)) * lower(LpNorm(1.0, 2), hexagon) * lower_constant(p) * 2.0 ** (1.0 / p - 0.5)
    assert general.raw == want
    p = cotype.witness_p
    want = lower_constant(1.5) * lower(hexagon, LpNorm(p, 2)) * lower(LpNorm(p, 2), hexagon) * math.sqrt(2)
    assert cotype.raw == want


def _seeded_hexagon():
    rng = np.random.default_rng(20)
    angles = np.arange(3) * math.pi / 3.0 + rng.uniform(-0.25, 0.25, size=3)
    radii = rng.uniform(0.7, 1.3, size=3)
    half = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return PolytopeGauge(np.vstack([half, -half]))


# (value, raw, witness, rigorous) and the prop4 case, as literal reprs: equal tuples are equal bits
POLYTOPE_LOWER_PINS = {
    "hexagon": {
        "general": (1.0, 0.7349662391046006, 1.9999999999999865, False),
        "cotype": (1.0, 0.917245392677021, 1.7793553998403389, False),
        (1.5, None): (1.0, 0.5591584488949214, 2.0, False, "dual-general"),
        (3.0, None): (1.0, 0.5833430905578771, 1.9999999999999865, False, "general"),
        (3.0, 1.5): (1.0, 0.7280181506242437, 1.7793553998403389, False, "cotype"),
    },
    "cross": {
        "general": (1.2247448713915892, 1.2247448713915892, 1.0, False),
        "cotype": (1.0699131939336628, 1.0699131939336628, 1.5, False),
        (1.5, None): (1.0, 0.40031231839200093, 49.14755081732762, False, "dual-general"),
        (3.0, None): (1.0, 0.8491906647824765, 1.0, False, "general"),
        (3.0, 1.5): (1.0, 0.8491906647824765, 1.0, False, "general"),
    },
}


def test_polytope_bounds_are_pinned_bitwise():
    # sampled comparison constants and the exponent search, on a seeded
    # hexagon and the 3-cross-polytope; values recorded before the body-kind
    # facts moved to norms
    bodies = {"hexagon": (_seeded_hexagon(), 2), "cross": (PolytopeGauge(np.vstack([np.eye(3), -np.eye(3)])), 3)}
    for name, (body, n) in bodies.items():
        pins = POLYTOPE_LOWER_PINS[name]
        g = theorem2_general_lower(body, n, 64, 3)
        assert (g.value, g.raw, g.witness_p, g.rigorous) == pins["general"], name
        c = theorem2_cotype_lower(body, 1.5, n, 64, 3)
        assert (c.value, c.raw, c.witness_p, c.rigorous) == pins["cotype"], name
        for p, qc in ((1.5, None), (3.0, None), (3.0, 1.5)):
            r = prop4_lower(p, body, n, q_cotype=qc, trials=64, seed=3)
            value, raw, witness, rigorous, case = pins[p, qc]
            assert r == LowerBound("prop4", value, raw, witness, rigorous, note=f"case {case}"), (name, p, qc)


def test_polytope_transform_bounds_are_pinned_bitwise():
    hexagon, T = _seeded_hexagon(), np.array([[1.0, 0.3], [-0.2, 0.9]])
    square = PolytopeGauge(np.array([[a, b] for a in (-1.0, 1.0) for b in (-1.0, 1.0)]))
    want = (1.8050854657014583, 1.8433586448525854, 0.979237258436929)
    for K in (square, LpNorm(math.inf, 2)):
        t = upper_bound_via_transform(K, hexagon, T)
        assert (t.value, t.factor_out, t.factor_in) == want
    t = upper_bound_via_transform(hexagon, LpNorm(3.0, 2), T)
    assert (t.value, t.factor_out, t.factor_in) == (1.6498844489037152, 0.9836183273918727, 1.6773624514281775)


def test_known_distance_table():
    assert known_distance(1.0, 2.0, 4) == 2.0  # n^(1 - 1/2)
    assert known_distance(math.inf, 2.0, 9) == 3.0
    assert known_distance(2.0, math.inf, 16) == 4.0  # swap closure
    assert known_distance(4.0, math.inf, 7) == 7.0**0.25  # via duality from (1, 4/3)
    assert abs(known_distance(1.0, 1.7, 3) - 3.0 ** (1.0 - 1.0 / 1.7)) < 1e-15
    assert known_distance(1.0, math.inf, 2) == 1.0  # planar square == diamond
    assert known_distance(3.0, 3.0, 5) == 1.0
    assert known_distance(1.5, 3.0, 5) is None
    assert known_distance(3.0, 5.0, 4) is None
    assert known_distance(2.5, 2.0, 1) == 1.0


def _conj(r):
    if r == 1.0:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


@given(
    st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 4.0, math.inf]),
    st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 4.0, math.inf]),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=300, deadline=None)
def test_known_distance_duality_invariant(p, q, n):
    a = known_distance(p, q, n)
    b = known_distance(_conj(p), _conj(q), n)
    c = known_distance(q, p, n)
    if a is not None and b is not None:
        assert abs(a - b) < 1e-12 * max(a, 1.0)
    if a is not None and c is not None:
        assert a == c


def test_hadamard_properties():
    for n in (1, 2, 4, 8):
        h = hadamard_matrix(n)
        assert np.allclose(h @ h.T, np.eye(n), atol=1e-14)
        assert np.all(np.abs(np.abs(h) * math.sqrt(n) - 1.0) < 1e-14)
    with pytest.raises(ValueError):
        hadamard_matrix(3)
    with pytest.raises(ValueError):
        hadamard_matrix(0)


def test_upper_bound_identity_cube_crosspolytope():
    tb = upper_bound_via_transform(LpNorm(1.0, 3), LpNorm(math.inf, 3), np.eye(3), name="identity")
    assert tb.factor_out == 1.0
    assert tb.factor_in == 3.0
    assert tb.value == 3.0
    assert tb.rigorous


def test_upper_bound_rotation_is_exact_in_plane():
    tb = upper_bound_via_transform(LpNorm(1.0, 2), LpNorm(math.inf, 2), hadamard_matrix(2), name="rot")
    assert tb.value == 1.0
    assert tb.rigorous


def test_upper_bound_rejects_singular():
    with pytest.raises(ValueError):
        upper_bound_via_transform(LpNorm(1.0, 2), LpNorm(math.inf, 2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        upper_bound_via_transform(LpNorm(1.0, 2), LpNorm(math.inf, 2), np.eye(3))


def test_upper_bound_crosspolytope_lq_is_exact():
    # max over the l^3 ball of ||y||_1 is 3^(2/3), by duality the l^(3/2) norm of a cube vertex
    tb = upper_bound_via_transform(LpNorm(1.0, 3), LpNorm(3.0, 3), np.eye(3), name="identity")
    assert tb.rigorous
    assert abs(tb.factor_in - 3.0 ** (2 / 3)) <= 1e-15 * 3.0 ** (2 / 3)


def _random_polytope(rng, d):
    v = rng.standard_normal((int(rng.integers(d, 7)), d))
    return PolytopeGauge(np.vstack([v, -v]))


def _well_conditioned(rng, d):
    while True:
        T = rng.standard_normal((d, d))
        if np.linalg.cond(T) < 50.0:
            return T


def test_ball_max_extreme_point_and_dual_routes_agree():
    # max over B_K of ||S x||_L = max over B_L* of ||S^T a||_K*: the left side
    # enumerates Ext(K) under L's facets, the right Ext(L*) = L's facets
    # under K*'s facets = Ext(K), so the two are computed independently
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        for _ in range(20):
            K, L, S = _random_polytope(rng, d), _random_polytope(rng, d), _well_conditioned(rng, d)
            direct = norms._ball_max(K, L, S)
            dual = norms._ball_max(dual_norm_spec(L), dual_norm_spec(K), S.T)
            assert abs(direct - dual) <= 1e-12 * direct
    # the dual route for a ball without enumerable extreme points sits
    # just above a dense sample of its unit circle
    t = np.linspace(0.0, 2.0 * math.pi, 200_001)
    for q in (1.5, 3.0):
        circle = np.stack([np.cos(t), np.sin(t)], axis=1)
        circle /= norm_eval_many(LpNorm(q, 2), circle)[:, None]
        for _ in range(5):
            P, S = _random_polytope(rng, 2), _well_conditioned(rng, 2)
            exact = norms._ball_max(LpNorm(q, 2), P, S)
            sampled = float(norm_eval_many(P, circle @ S.T).max())
            assert sampled <= exact * (1.0 + 1e-12)
            assert exact <= sampled * (1.0 + 1e-8)


def test_cube_duality_row_path_is_rigorous():
    tb = upper_bound_via_transform(LpNorm(math.inf, 3), LpNorm(3.0, 3), np.eye(3), name="identity")
    assert tb.rigorous
    # identity: sup_cube ||x||_3 = 3^(1/3), sup_ball ||y||_inf = 1
    assert abs(tb.factor_out - 3.0 ** (1 / 3)) < 1e-14
    assert tb.factor_in == 1.0


def test_default_transforms():
    names = [name for name, _ in default_transforms(3)]
    assert names == ["identity"]
    names = [name for name, _ in default_transforms(4)]
    assert names == ["identity", "hadamard"]


def test_sandwich_planar_pair_pinched_at_one():
    rep = sandwich_report(1.0, math.inf, 2)
    assert rep.known_exact == 1.0
    assert rep.upper_bound is not None and rep.upper_bound.value == 1.0
    assert rep.consistent
    for lb in rep.lower_bounds:
        assert abs(lb.value - 1.0) <= 1e-12


def test_sandwich_identical_exponents():
    rep = sandwich_report(2.0, 2.0, 5)
    assert rep.known_exact == 1.0
    assert rep.consistent
    # no enumerable extreme points on either side: upper comes from notes
    assert rep.upper_bound is None
    assert any("extreme points" in note for note in rep.notes)


def test_sandwich_cube_euclidean_tight():
    rep = sandwich_report(math.inf, 2.0, 8)
    assert abs(rep.known_exact - math.sqrt(8.0)) < 1e-12
    best = max(lb.value for lb in rep.lower_bounds if lb.rigorous)
    assert abs(best - math.sqrt(8.0)) <= 1e-9 * best
    assert rep.upper_bound is not None and rep.upper_bound.rigorous
    assert rep.consistent


def test_sandwich_crosspolytope_l3_upper_is_rigorous():
    rep = sandwich_report(1.0, 3.0, 3)
    assert rep.known_exact is None
    assert rep.upper_bound is not None and rep.upper_bound.rigorous
    assert rep.consistent


def test_sandwich_upper_bound_is_exact_on_the_exponent_grid():
    exponents = (1.0, 1.5, 2.0, 3.0, math.inf)
    for n in range(2, 17):
        for p in exponents:
            for q in exponents:
                rep = sandwich_report(p, q, n)
                assert rep.consistent, (p, q, n)
                ub = rep.upper_bound
                assert ub is None or ub.rigorous
                if ub is not None and rep.known_exact is not None:
                    assert ub.value >= rep.known_exact * (1.0 - 1e-15), (p, q, n)


def test_sandwich_crosspolytope_past_the_cube_cap_has_no_upper():
    # the l^2 factor runs over the 15-cube's vertices by duality, past the cap
    rep = sandwich_report(1.0, 2.0, 15)
    assert rep.upper_bound is None
    assert rep.notes == ("upper(identity): cube vertex enumeration supports n <= 14, got 15",)
    assert rep.consistent


@pytest.mark.parametrize("n", [15, 16])
def test_sandwich_cubes_past_the_cap_take_the_dual_route(n):
    # Ext(B_L*) of a cube is the 2n cross-polytope vertices, so both factors
    # are exact past the cube cap: the identity gives d = 1
    rep = sandwich_report(math.inf, math.inf, n)
    assert rep.upper_bound is not None and rep.upper_bound.rigorous
    assert rep.upper_bound.value == 1.0 and rep.upper_bound.transform_name == "identity"
    assert rep.known_exact == 1.0
    assert rep.notes == ()
    assert rep.consistent


def test_consistency_rule_checks_every_pair():
    def lower(value, rigorous=True):
        return LowerBound("m", value, value, None, rigorous)

    def upper(value):
        return TransformBound(value, value, 1.0, True, "t")

    assert _consistent([], None, None)
    assert not _consistent([lower(1.5)], 1.2, None)
    assert not _consistent([lower(1.5)], None, upper(1.2))
    assert not _consistent([lower(1.0)], 1.5, upper(1.2))
    # a non-rigorous lower bound never contradicts
    assert _consistent([lower(1.5, rigorous=False)], 1.2, None)
    # each neighbour pair is within the 1e-9 slack, the outer pair is not
    assert not _consistent([lower(1.0 + 1.8e-9)], 1.0 + 0.9e-9, upper(1.0))


def test_sandwich_float_outputs_are_json_safe():
    import dataclasses
    import json

    rep = sandwich_report(1.0, math.inf, 4)
    json.dumps(dataclasses.asdict(rep))  # would raise on numpy scalars
