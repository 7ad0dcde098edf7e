import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from khbm import norms
from khbm.norms import (
    ComparisonConstants,
    LpNorm,
    PolytopeGauge,
    describe_norm,
    dual_norm_spec,
    estimate_comparison,
    lp_comparison,
    norm_eval,
    norm_eval_many,
    parse_norm_spec,
)


def test_lp_hand_values():
    x = [3.0, -4.0]
    assert norm_eval(LpNorm(1.0, 2), x) == 7.0
    assert norm_eval(LpNorm(2.0, 2), x) == 5.0
    assert norm_eval(LpNorm(math.inf, 2), x) == 4.0
    assert abs(norm_eval(LpNorm(3.0, 2), x) - (27.0 + 64.0) ** (1 / 3)) < 1e-14


def test_lp_overflow_safe():
    # naive |x|^r would overflow at r=4 here
    x = np.array([1e200, 1e200])
    val = norm_eval(LpNorm(4.0, 2), x)
    assert math.isfinite(val)
    assert abs(val - 1e200 * 2.0**0.25) / val < 1e-12


def _lp_rows_reference(r, pts):
    # numpy's own reductions over the last axis, one call each
    a = np.abs(pts)
    if math.isinf(r):
        return a.max(axis=-1)
    if r == 1.0:
        return a.sum(axis=-1)
    if r == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    peak = a.max(axis=-1, keepdims=True)
    safe = np.where(peak == 0.0, 1.0, peak)
    out = safe[..., 0] * ((a / safe) ** r).sum(axis=-1) ** (1.0 / r)
    return np.where(peak[..., 0] == 0.0, 0.0, out)


@pytest.mark.parametrize("d", range(1, 11))
def test_lp_rows_bitwise_equal_numpy_reduce(d):
    # the short-axis column loop must reproduce numpy's row reductions bit for bit
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((3000, d)) * 10.0 ** rng.choice([-150.0, 0.0, 150.0], size=(3000, 1))
    pts[::7] = 0.0
    with np.errstate(over="ignore", under="ignore"):
        for r in (1.0, 1.5, 2.0, 3.0, math.inf):
            for x in (pts, pts.reshape(30, 100, d), pts[:1], pts[1]):
                got = norm_eval_many(LpNorm(r, d), x)
                want = _lp_rows_reference(r, x)
                assert (type(got), got.shape) == (type(want), want.shape)
                assert got.tobytes() == want.tobytes(), (r, x.shape)


@pytest.mark.parametrize("bad_r", [0.5, 0.0, -1.0])
def test_lp_requires_r_ge_one(bad_r):
    with pytest.raises(ValueError):
        LpNorm(bad_r, 2)


def test_lp_rejects_bad_dim():
    with pytest.raises(ValueError):
        LpNorm(2.0, 0)


def crosspolytope(d):
    eye = np.eye(d)
    return PolytopeGauge(np.vstack([eye, -eye]))


def test_gauge_matches_l1_on_crosspolytope():
    g = crosspolytope(3)
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((20, 3))
    want = np.abs(pts).sum(axis=1)
    got = norm_eval_many(g, pts)
    assert np.max(np.abs(got - want)) < 1e-9
    assert norm_eval(g, np.zeros(3)) == 0.0


def test_gauge_matches_linf_on_cube():
    corners = np.array(
        [[sx, sy] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
    )
    g = PolytopeGauge(corners)
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((20, 2))
    want = np.abs(pts).max(axis=1)
    got = norm_eval_many(g, pts)
    assert np.max(np.abs(got - want)) < 1e-9


def lp_gauge(vertices, x):
    """Oracle: min { sum(lam) : V^T lam = x, lam >= 0 }, one LP per point."""
    from scipy.optimize import linprog

    if not np.any(x):
        return 0.0
    res = linprog(np.ones(len(vertices)), A_eq=vertices.T, b_eq=x, bounds=(0, None), method="highs")
    assert res.success, res.message
    return res.fun


def random_body(rng, m, d):
    half = rng.standard_normal((m, d))
    return np.vstack([half, -half])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_facet_gauge_matches_lp(d):
    rng = np.random.default_rng(40 + d)
    for m in (d, d + 3, 12):
        verts = random_body(rng, m, d)
        g = PolytopeGauge(verts)
        pts = rng.standard_normal((25, d))
        got = norm_eval_many(g, pts)
        want = np.array([lp_gauge(verts, x) for x in pts])
        assert np.max(np.abs(got - want) / want) < 1e-12


def test_facet_rows_one_per_facet():
    cube = PolytopeGauge(np.array(list(itertools.product((-1.0, 1.0), repeat=8))))
    assert cube.facets.shape == (16, 8)
    assert crosspolytope(8).facets.shape == (256, 8)


def test_gauge_blocks_agree_with_one_block(monkeypatch):
    rng = np.random.default_rng(6)
    g = PolytopeGauge(random_body(rng, 9, 3))
    pts = rng.standard_normal((4, 25, 3))
    whole = norm_eval_many(g, pts)
    # 7 entries hold fewer than one point's facets: one point per block
    monkeypatch.setattr(norms, "_GAUGE_BLOCK", 7)
    assert np.array_equal(norm_eval_many(g, pts), whole)
    monkeypatch.setattr(norms, "_GAUGE_BLOCK", 3 * g.facets.shape[0])
    assert np.array_equal(norm_eval_many(g, pts), whole)
    assert whole.shape == (4, 25)


def test_gauge_rejects_asymmetric_vertices():
    with pytest.raises(ValueError):
        PolytopeGauge(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))


def test_gauge_rejects_rank_deficient():
    with pytest.raises(ValueError):
        PolytopeGauge(np.array([[1.0, 0.0], [-1.0, 0.0]]))


def test_gauge_dimension_cap():
    eye = np.eye(9)
    with pytest.raises(ValueError):
        PolytopeGauge(np.vstack([eye, -eye]))


def test_dual_spec():
    assert dual_norm_spec(LpNorm(1.0, 3)) == LpNorm(math.inf, 3)
    assert dual_norm_spec(LpNorm(math.inf, 3)) == LpNorm(1.0, 3)
    assert dual_norm_spec(LpNorm(3.0, 2)) == LpNorm(1.5, 2)
    # the polar of the cross-polytope is the cube
    dual = dual_norm_spec(crosspolytope(3))
    assert isinstance(dual, PolytopeGauge)
    pts = np.random.default_rng(7).standard_normal((50, 3))
    assert np.array_equal(norm_eval_many(dual, pts), np.abs(pts).max(axis=1))


def test_double_polar_is_the_body():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 4):
        g = PolytopeGauge(random_body(rng, d + 4, d))
        pts = rng.standard_normal((50, d))
        want = norm_eval_many(g, pts)
        assert np.array_equal(norm_eval_many(dual_norm_spec(dual_norm_spec(g)), pts), want)
        # the dual norm is the support function of the vertex set, and a
        # hull of the polar's vertices gives the same gauge
        polar = dual_norm_spec(g)
        dual = norm_eval_many(polar, pts)
        assert np.max(np.abs(dual - (pts @ g.vertices.T).max(axis=1)) / dual) < 1e-12
        rebuilt = norm_eval_many(PolytopeGauge(polar.vertices), pts)
        assert np.max(np.abs(rebuilt - dual) / dual) < 1e-12


@pytest.mark.parametrize(
    "code",
    [
        "import khbm",
        "from khbm.cli import main; assert main(['constants', '--p', '3']) == 0",
    ],
)
def test_lp_paths_do_not_import_scipy(code):
    check = f"import sys; {code}; assert 'scipy' not in sys.modules, 'scipy imported'"
    res = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_lp_comparison_closed_forms():
    c = lp_comparison(1.0, 2.0, 4)
    assert c == ComparisonConstants(1.0, 2.0, True)  # d^(1/1-1/2) = sqrt(4)
    c = lp_comparison(2.0, 1.0, 4)
    assert c.upper == 1.0
    assert c.lower == 0.5
    assert c.rigorous


def test_lp_comparison_reciprocal_pairing():
    for r, s, d in [(1.0, 3.0, 5), (2.0, math.inf, 7), (1.5, 4.0, 3)]:
        fwd = lp_comparison(r, s, d)
        bwd = lp_comparison(s, r, d)
        assert bwd.lower == 1.0 / fwd.upper  # bitwise by construction
        assert fwd.lower == bwd.upper == 1.0


def test_estimate_comparison_brackets_exact():
    a, b = LpNorm(1.0, 3), LpNorm(2.0, 3)
    exact = lp_comparison(1.0, 2.0, 3)
    est = estimate_comparison(a, b, trials=200, seed=0)
    assert not est.rigorous
    # axes and all-ones are forced into the sample, so extremes are hit
    assert abs(est.lower - exact.lower) < 1e-12
    assert abs(est.upper - exact.upper) < 1e-12


def test_estimate_comparison_validation():
    with pytest.raises(ValueError):
        estimate_comparison(LpNorm(1.0, 2), LpNorm(1.0, 3), trials=10, seed=0)
    with pytest.raises(ValueError):
        estimate_comparison(LpNorm(1.0, 2), LpNorm(2.0, 2), trials=0, seed=0)


def test_parse_round_trip():
    for text in ["lp:2:3", "lp:1.5:2", "lp:inf:4"]:
        spec = parse_norm_spec(text)
        assert describe_norm(spec) == text


def test_parse_polytope(tmp_path):
    path = tmp_path / "verts.csv"
    np.savetxt(path, np.vstack([np.eye(2), -np.eye(2)]), delimiter=",")
    spec = parse_norm_spec(f"polytope:{path}")
    assert isinstance(spec, PolytopeGauge)
    assert spec.dim == 2


@pytest.mark.parametrize("bad", ["lp:2", "lp:2:x", "l2:2:2", "polytope:", "lp:0.5:2"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_norm_spec(bad)
