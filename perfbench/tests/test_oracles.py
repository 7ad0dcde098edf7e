"""The oracles against brute force and known closed forms (no khbm here).

    python3 -m pytest perfbench/tests -q
"""

import math
from itertools import combinations, product

import numpy as np
import pytest

import oracles
from checks import check
from workloads import FAIR, TWO_ATOM, Op


def _brute_moment(V, law, p, norm):
    # every support assignment, one by one
    values = [(0.0, 1.0 - 2.0 * sum(t for _, t in law))] + [(s * a, t) for a, t in law for s in (1.0, -1.0)]
    V = np.asarray(V, dtype=float)
    total = []
    for pick in product(values, repeat=len(V)):
        weight = math.prod(w for _, w in pick)
        if weight:
            point = sum(c * v for (c, _), v in zip(pick, V))
            total.append(weight * float(norm(point[None, :])[0]) ** p)
    return math.fsum(total)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("law", [FAIR, TWO_ATOM, ((1.0, 0.25),)])
def test_lattice_moment_matches_brute_force(r, law):
    rng = np.random.default_rng(7)
    V = rng.integers(-2, 3, size=(4, 2)).astype(float)
    for p in (1.0, 2.5, 3.0):
        want = _brute_moment(V, law, p, oracles.lp_norm(r))
        assert oracles.lattice_moment(V, law, p, oracles.lp_norm(r)) == pytest.approx(want, rel=1e-14)


def test_lattice_distribution_is_exact():
    points, counts, total = oracles.lattice_distribution([[1.0], [1.0]], FAIR)
    assert total == 4
    assert dict(zip(points[:, 0].tolist(), counts.tolist())) == {-2: 1, 0: 2, 2: 1}


def test_lattice_rejects_non_integer_input():
    with pytest.raises(ValueError):
        oracles.lattice_moment([[0.5, 1.0]], FAIR, 2.0, oracles.lp_norm(2.0))
    with pytest.raises(ValueError):
        oracles.lattice_moment([[1.0, 1.0]], ((1.5, 0.5),), 2.0, oracles.lp_norm(2.0))


@pytest.mark.parametrize("law", [FAIR, TWO_ATOM])
def test_even_moments_agree_with_lattice_and_brute_force(law):
    rng = np.random.default_rng(3)
    V = rng.integers(-3, 4, size=(5, 3)).astype(float)
    for p in (2, 4):
        exact = float(oracles.even_moment(V, law, p))
        assert exact == pytest.approx(_brute_moment(V, law, p, oracles.lp_norm(2.0)), rel=1e-14)
        assert exact == pytest.approx(oracles.lattice_moment(V, law, p, oracles.lp_norm(2.0)), rel=1e-14)


def test_p_invariance_of_orthogonal_equal_norm_tuples():
    V = 8.0 * np.eye(4)
    assert oracles.orthogonal_equal_norm_value(V) == 16.0
    for p in (1.0, 3.0, 7.5):
        got = oracles.lattice_moment(V, FAIR, p, oracles.lp_norm(2.0)) ** (1.0 / p)
        assert got == pytest.approx(16.0, rel=1e-14)
    with pytest.raises(ValueError):
        oracles.orthogonal_equal_norm_value([[1.0, 1.0], [1.0, 0.0]])


def test_sign_power_sum_routes_agree():
    a = [1.0, 2.0, 2.0, 3.0, 5.0]
    brute = math.fsum(abs(sum(e * x for e, x in zip(eps, a))) ** 1.5 for eps in product((-1, 1), repeat=5))
    assert oracles.sign_power_sum(a, 1.5) == pytest.approx(brute, rel=1e-14)
    assert oracles.sign_power_sum([x + 0.25 for x in a], 2.0) == pytest.approx(
        2**5 * math.fsum((x + 0.25) ** 2 for x in a), rel=1e-14
    )


def test_facet_gauge_closed_forms():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((100, 2))
    square = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    diamond = np.vstack([np.eye(2), -np.eye(2)])
    np.testing.assert_allclose(oracles.FacetGauge(square)(pts), oracles.cube_gauge(pts), rtol=1e-15)
    np.testing.assert_allclose(oracles.FacetGauge(diamond)(pts), oracles.cross_polytope_gauge(pts), rtol=1e-15)
    hexagon = np.array([[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)])
    gauge = oracles.FacetGauge(hexagon)
    np.testing.assert_allclose(gauge(hexagon), 1.0, rtol=1e-15)
    np.testing.assert_allclose(gauge(3.0 * pts), 3.0 * gauge(pts), rtol=1e-15)
    # the midpoint of an edge of the unit regular hexagon sits on the boundary
    np.testing.assert_allclose(gauge((hexagon[:1] + hexagon[1:2]) / 2.0), 1.0, rtol=1e-15)


def test_comparison_bounds_are_extremes():
    square = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    gauge = oracles.FacetGauge(square)
    b = oracles.comparison_bounds(gauge, 2.0)
    assert b["inf_P_over_r"] == pytest.approx(2**-0.5, rel=1e-15)
    assert b["sup_P_over_r"] == pytest.approx(1.0, rel=1e-15)
    angles = np.linspace(0.0, 2.0 * math.pi, 20001)
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ratio = gauge(circle)
    assert ratio.min() >= b["inf_P_over_r"] * (1 - 1e-12)
    assert ratio.min() == pytest.approx(b["inf_P_over_r"], rel=1e-6)
    assert ratio.max() <= b["sup_P_over_r"] * (1 + 1e-12)
    assert 1.0 / ratio.max() == pytest.approx(b["inf_r_over_P"], rel=1e-6)


def test_bm_distance_closed_forms():
    assert oracles.bm_distance(math.inf, 2.0, 9) == 3.0
    assert oracles.bm_distance(1.0, 2.0, 4) == 2.0
    assert oracles.bm_distance(1.0, math.inf, 2) == 1.0
    assert oracles.bm_distance(1.0, math.inf, 3) is None
    assert oracles.bm_distance(3.0, 1.5, 5) is None
    for n in range(1, 9):
        assert oracles.bm_distance(3.0, math.inf, n) == oracles.bm_distance(math.inf, 3.0, n)
        # duality: d(l^p, l^q) = d(l^p*, l^q*)
        assert oracles.bm_distance(1.5, 1.0, n) == pytest.approx(oracles.bm_distance(3.0, math.inf, n))
    assert oracles.crosspolytope_cube_lower(8) == 2.0


def test_subset_ratio_sharp_ends_and_brute_force():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for alpha in (0.0, 0.5, 2.0):
                axis = [1.0] + [0.0] * (n - 1)
                if alpha > 0.0:
                    assert oracles.subset_ratio(axis, k, alpha) == pytest.approx(k / n, rel=1e-15)
                assert oracles.subset_ratio([1.0] * n, k, alpha) == pytest.approx((k / n) ** alpha, rel=1e-15)
    x = [0.3, 1.1, 2.4, 0.7]
    want = sum(sum(c) ** 1.7 for c in combinations(x, 2)) / (6 * sum(x) ** 1.7)
    assert oracles.subset_ratio(x, 2, 1.7) == pytest.approx(want, rel=1e-14)


def test_khinchine_constants_from_mpmath():
    assert oracles.khinchine_ab(2.0) == (1.0, 1.0)
    assert oracles.khinchine_ab(1.0)[0] == pytest.approx(2**-0.5, rel=1e-15)
    assert oracles.khinchine_ab(4.0)[1] == pytest.approx(3**0.25, rel=1e-15)


def test_theorem1_constants_for_a_fair_sign():
    # one atom at level 1 with all the mass: s = 1/2, G = 1/2
    for q in (1.0, 1.5, 2.0):
        assert oracles.theorem1_lower(FAIR, 3.0, q) == oracles.khinchine_ab(q)[0]
    assert oracles.theorem1_upper(FAIR, 2.0, 3.0) == oracles.khinchine_ab(3.0)[1]


def test_large_p_output_is_failed_and_true_value_passes():
    op = Op("large", "ipf_exact", dict(V=8.0 * np.eye(4), law=FAIR, p=300.0, norm=("lp", 2.0, 4)),
            "p-invariance", True)
    assert check(op, {"value": math.inf, "pth_power": math.inf}) is not None
    assert check(op, {"value": 16.0}) is None
