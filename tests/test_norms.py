import itertools
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from khbm import norms
from khbm.cli import main
from khbm.functional import EnumerationBudgetError
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
    # numpy's own reductions over the last axis, one call each; a scalar for one point, as a reduce gives
    a = np.abs(pts)
    if math.isinf(r):
        return a.max(axis=-1)
    if r == 1.0:
        return a.sum(axis=-1)
    if r == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    peak = a.max(axis=-1, keepdims=True)
    safe = np.where(peak == 0.0, 1.0, peak)
    scaled = np.where(peak[..., 0] == 0.0, 0.0, safe[..., 0] * ((a / safe) ** r).sum(axis=-1) ** (1.0 / r))
    if r != 3.0:
        return scaled[()]
    # l^3 without a power: the cube root of the sum of cubes wherever that sum is a normal double
    # with no overflowed cube, in [2^-900, 2^900]; scaled elsewhere, a zero row included
    cubes = (a * a * a).sum(axis=-1)
    return np.where((cubes >= 2.0**-900) & (cubes <= 2.0**900), np.cbrt(cubes), scaled)[()]


@pytest.mark.parametrize("d", range(1, 11))
def test_lp_rows_bitwise_equal_numpy_reduce(d):
    # the short-axis column loop must reproduce numpy's row reductions bit for bit; l^2 squares x itself, which is
    # |x| * |x| bitwise, also where the square underflows or overflows
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((3000, d)) * 10.0 ** rng.choice([-300.0, -150.0, 0.0, 150.0, 300.0], size=(3000, 1))
    pts[::7] = 0.0
    with np.errstate(over="ignore", under="ignore"):
        for r in (1.0, 1.5, 2.0, 3.0, math.inf):
            for x in (pts, pts.reshape(30, 100, d), pts[:1], pts[1]):
                got = norm_eval_many(LpNorm(r, d), x)
                want = _lp_rows_reference(r, x)
                assert (type(got), got.shape) == (type(want), want.shape)
                assert got.tobytes() == want.tobytes(), (r, x.shape)


@pytest.mark.parametrize("d", [1, 3, 8])
def test_lp_mixed_stack_bitwise_equal_one_call_per_row(d):
    # l^3 decides per row between its power-free and scaled paths, so a row at 1e+-200 (whose cubes overflow or
    # underflow), an exact zero and an ordinary row give the same bits stacked together as alone, and no warning
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((40, d)) * rng.choice([1e-200, 1.0, 1e200], size=(40, 1))
    pts[::5] = 0.0
    pts[1, 0] = 1e-200  # a tiny entry in an ordinary row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1.5, 3.0):
            stacked = norm_eval_many(LpNorm(r, d), pts.reshape(4, 10, d))
            alone = np.array([norm_eval_many(LpNorm(r, d), row[None])[0] for row in pts])
            assert stacked.tobytes() == alone.tobytes()
            assert np.all(np.isfinite(stacked)) and np.all((stacked == 0.0) == (pts == 0.0).all(axis=1).reshape(4, 10))


def test_lp3_matches_mpmath():
    # both l^3 paths, power-free and scaled, within a few ulps of the exact cube root of the exact sum of cubes
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(33)
    pts = rng.standard_normal((300, 3)) * rng.choice([1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300], size=(300, 1))
    got = norm_eval_many(LpNorm(3.0, 3), pts)
    with mpmath.workdps(40):
        want = [float(mpmath.cbrt(sum(abs(mpmath.mpf(x)) ** 3 for x in row))) for row in pts.tolist()]
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.array(want))


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


DATA = Path(__file__).parent / "data"
# 26 vertices in R^8, the 4th m = 13 body of default_rng(0) drawn for d = 2..8,
# m in (d, d + 2, d + 5, 15), 4 draws each: qhull stops on it with QH6154
# ("initial simplex is flat"), though its smallest singular value is 1.36
FLAT_SIMPLEX = DATA / "qhull_flat_simplex.csv"
HEXAGON = np.array([[1.0, 0.0], [0.5, 0.8], [-0.5, 0.8], [-1.0, 0.0], [-0.5, -0.8], [0.5, -0.8]])


def qhull_rows(vertices):
    """Oracle: qhull's facet equations n.x + c <= 0, one per facet, as rows a with a.x <= 1."""
    from scipy.spatial import ConvexHull

    eq = np.unique(ConvexHull(vertices).equations, axis=0)
    return eq[:, :-1] / -eq[:, -1:]


def _oracle_bodies():
    rng = np.random.default_rng(77)
    bodies = {f"random-{d}-{m}": random_body(rng, m, d) for d in range(1, 9) for m in (d, d + 3, 12)}
    body = random_body(rng, 7, 4)
    bodies["duplicates"] = np.vstack([body, body[:5], -body[:5], body])
    mid = 0.5 * (body[:3] + body[3:6])  # inside the body, or on a face between two vertices
    bodies["interior"] = np.vstack([body, 0.3 * body, mid, -mid])
    bodies["cube-8"] = np.array(list(itertools.product((-1.0, 1.0), repeat=8)))
    bodies["cross-8"] = np.vstack([np.eye(8), -np.eye(8)])
    return bodies


ORACLE_BODIES = _oracle_bodies()


@pytest.mark.parametrize("name", list(ORACLE_BODIES))
def test_facet_rows_match_qhull(name):
    verts = ORACLE_BODIES[name]
    got = PolytopeGauge(verts).facets
    if verts.shape[1] == 1:  # qhull takes no 1-D input; the body is [-max|v|, max|v|]
        want = np.array([[-1.0], [1.0]]) / np.abs(verts).max()
    else:
        want = qhull_rows(verts)
    assert got.shape == want.shape
    pts = np.random.default_rng(3).standard_normal((300, verts.shape[1]))
    g, w = (pts @ got.T).max(axis=1), (pts @ want.T).max(axis=1)
    assert np.max(np.abs(g - w) / w) < 1e-12


def test_qhull_flat_simplex_body():
    verts = np.loadtxt(FLAT_SIMPLEX, delimiter=",")
    assert verts.shape == (26, 8)
    pts = np.random.default_rng(9).standard_normal((25, 8))
    got = norm_eval_many(PolytopeGauge(verts), pts)
    want = np.array([lp_gauge(verts, x) for x in pts])
    assert np.max(np.abs(got - want) / want) < 1e-12


@pytest.fixture
def flat_simplex_hanner(tmp_path):
    # a single exact type-2 check of three vectors that the body passes
    vectors = tmp_path / "v.csv"
    np.savetxt(vectors, np.random.default_rng(3).standard_normal((3, 8)), delimiter=",", fmt="%.17g")
    return ["hanner", "--norm", f"polytope:{FLAT_SIMPLEX}", "--q", "2", "--mode", "type", "--vectors", str(vectors)]


def test_qhull_flat_simplex_body_cli(flat_simplex_hanner):
    cmd = [sys.executable, "-m", "khbm.cli", *flat_simplex_hanner]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_near_degenerate_body_is_merged(monkeypatch):
    # a dodecahedron moved by 1e-12: each pentagon's five vertices lie within about
    # the tolerance of one plane, so a second run at 10^3 times it merges them
    phi = (1.0 + 5.0**0.5) / 2.0
    ring = [(0.0, a / phi, b * phi) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
    corners = list(itertools.product((-1.0, 1.0), repeat=3)) + [p[k:] + p[:k] for p in ring for k in range(3)]
    half = np.array([c for c in corners if c > tuple(-x for x in c)])
    half += 1e-12 * np.random.default_rng(1).standard_normal(half.shape)
    verts = np.vstack([half, -half])
    runs = []
    real = norms._enumerate

    def counted(v, tol):
        runs.append(tol)
        return real(v, tol)

    monkeypatch.setattr(norms, "_enumerate", counted)
    gauge = PolytopeGauge(verts)
    assert runs == [norms._FACET_TOL, norms._FACET_TOL * norms._FACET_GAP]
    pts = np.random.default_rng(2).standard_normal((300, 3))
    got, want = norm_eval_many(gauge, pts), (pts @ qhull_rows(verts).T).max(axis=1)
    assert np.max(np.abs(got - want) / want) < 1e-10
    assert (verts @ gauge.facets.T).max() <= 1.0 + norms._FACET_CHECK


def test_facet_enumeration_counts_the_budget(monkeypatch, capsys, tmp_path):
    # 36 floats is the smallest budget for a hexagon: its largest ray table (old and new
    # rays, three coordinates and one tight-set word each) during the enumeration
    monkeypatch.setenv("KHBM_BUDGET", "35")
    error = "the facet enumeration's ray table and largest pair block need 36 floats, exceeding budget 35"
    with pytest.raises(EnumerationBudgetError, match=f"^{error}$"):
        PolytopeGauge(HEXAGON)
    path = tmp_path / "hex.csv"
    np.savetxt(path, HEXAGON, delimiter=",")
    assert main(["hanner", "--norm", f"polytope:{path}", "--q", "2", "--n", "2", "--d", "2", "--mode", "type"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {error}\n")
    monkeypatch.setenv("KHBM_BUDGET", "36")
    assert PolytopeGauge(HEXAGON).facets.shape == (6, 2)


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


def test_polytope_paths_do_not_import_scipy(flat_simplex_hanner):
    code = (
        "import io, sys, contextlib\n"
        "import numpy as np\n"
        "import khbm.cli\n"
        "loaded = ['scipy' in sys.modules]\n"
        "from khbm.norms import PolytopeGauge\n"
        f"PolytopeGauge(np.loadtxt({str(FLAT_SIMPLEX)!r}, delimiter=','))\n"
        "loaded.append('scipy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = khbm.cli.main({flat_simplex_hanner!r})\n"
        "loaded.append('scipy' in sys.modules)\n"
        "print(code, *loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "False", "False"]


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
