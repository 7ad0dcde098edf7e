"""Norm specifications on R^d and comparison constants between them.

Two families are supported:

* ``LpNorm(r, dim)`` -- the l^r norm, 1 <= r <= inf (inf is a distinct
  case, never a large float stand-in);
* ``PolytopeGauge(vertices)`` -- the Minkowski functional of the convex
  hull of a symmetric spanning vertex set, evaluated from its facet form
  {x : A x <= 1} as max(A x); its dual is the gauge of the polar conv(A).

The facet rows of conv(V) are the vertices of its polar {y : V y <= 1},
which ``_facet_rows`` enumerates by the double-description method
(Motzkin et al. 1953; Fukuda & Prodon, "Double description method
revisited", LNCS 1120, 1996) with numpy alone, so no route imports scipy.
It works on the polar's cone {(y, t) : v.y <= t, t >= 0} in R^(d+1):

* it starts from d + 1 independent rows: t >= 0, then the vertex rows by
  a pivoted QR (each the farthest from the span of those before, the
  first one of largest norm), so the starting cone is well conditioned;
  its rays are the columns of -B^-1;
* it adds the other (distinct) vertex rows in ascending order.  A ray,
  kept at unit max-abs, is tight on a row when |row . ray| is at most
  ``_FACET_TOL`` (1e-12) times the row's l^1 norm; each ray's tight rows
  are kept as packed uint64 words;
* a new ray joins each adjacent pair of rays on the two sides of the new
  row, found from their tight sets alone (``_adjacent``);
* each final ray's facet row a is recomputed from its tight vertices, as
  the solution of v.a = 1: one batched ``np.linalg.solve`` for the
  simplicial facets (d tight vertices) and ``lstsq`` for the others.

Near a degenerate body (vertices within about 1e-12 to 1e-9 relative of
lying on a common facet) rounding decides the tight sets, and a run can
miss a facet or make a wrong row.  So a run is dropped when a simple
ray's edge leads to no other ray, a ray is tight on fewer than d
vertices or a row cuts off a vertex by more than ``_FACET_CHECK``; and a
run in which some ray came within ``_FACET_GAP`` (10^3) times the
tolerance of a row is repeated at 10^3 times the tolerance, which merges
such near-facets, and the rows of both runs are kept.  A kept row never
cuts off a vertex, so the gauge is never overestimated by more than
1e-10 relative, and the union is complete when either run is.  A body
that no run passes is refused with a ``ValueError``.  Random bodies and
exactly degenerate ones (cubes, lattice points) take one run.

The rows are sorted by ``np.unique``, so the output depends on the
vertex set alone: the enumeration order is fixed, and a facet's row comes
from its own tight vertices, not from the path that reached it.  The ray
table and the largest pair block are counted in float64 values against
``functional.default_budget()`` before they are allocated, and a body past
it raises ``EnumerationBudgetError`` (a ``ValueError``: the CLI exits 2).
qhull (Barber, Dobkin & Huhdanpaa, ACM TOMS 22, 1996) stays the tests'
oracle.

Comparison constants between two norms A, B on the same space are the
extreme values of the ratio ||x||_A / ||x||_B.  For l^r vs l^s they are
closed-form; for anything else there is a sampled (non-rigorous)
estimator.  This is the one module that knows which kinds of body exist:
the Banach-Mazur bounds ask it for the comparison functions against l^p
(``_comparison_functions``), a known Hanner cotype (``_known_cotype``),
listed extreme points (``_extreme_points``) and ball maxima (``_ball_max``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "LpNorm",
    "PolytopeGauge",
    "NormSpec",
    "ComparisonConstants",
    "norm_eval",
    "norm_eval_many",
    "dual_norm_spec",
    "lp_comparison",
    "estimate_comparison",
    "parse_norm_spec",
    "describe_norm",
]

_MAX_GAUGE_DIM = 8
_GAUGE_BLOCK = 1 << 20  # (points x facets) entries per gauge block: 8 MB per temporary
_FACET_TOL = 1e-12  # a ray of unit max-abs is tight on a row r when |r . ray| <= _FACET_TOL * ||r||_1
_FACET_GAP = 1e3  # a ray within this factor of a row's tolerance makes the run unsure
_FACET_CHECK = 1e-10  # every vertex v must satisfy v . a <= 1 + _FACET_CHECK on every facet row a
_PAIR_BLOCK = 1 << 20  # packed words per pair block of the facet enumeration: 8 MB per temporary
_MAX_CUBE_N = 14  # a cube lists its 2^n vertices up to this n
_CUBE_SUM_MIN, _CUBE_SUM_MAX = 2.0**-900, 2.0**900  # l^3 rows whose sum of cubes lies outside take the scaled path


@dataclass(frozen=True)
class LpNorm:
    """l^r norm on R^dim.  r = math.inf selects the max norm."""

    r: float
    dim: int

    def __post_init__(self):
        if not (self.r >= 1.0):
            raise ValueError(f"lp exponent must satisfy r >= 1, got {self.r}")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.dim}")


@dataclass(frozen=True, eq=False)
class PolytopeGauge:
    """Minkowski functional of conv(vertices); vertices symmetric and spanning.

    The facet rows A of conv(vertices) = {x : A x <= 1} are computed once,
    as the vertices of the polar by double description (see the module
    docstring: relative tolerance 1e-12, a near-degenerate body checked and
    merged or refused, ray table counted against the term budget, rows
    sorted so the result depends on the vertex set alone), and the gauge
    of x is max(A x).  Dimension is capped at 8; this is a
    small-scale verification tool.
    """

    vertices: np.ndarray = field(repr=False)
    facets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("vertices must be a 2-D array with at least two rows")
        if v.shape[1] > _MAX_GAUGE_DIM:
            raise ValueError(f"polytope gauge supports dim <= {_MAX_GAUGE_DIM}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        if np.linalg.matrix_rank(v) < v.shape[1]:
            raise ValueError("vertex set must span the space")
        # symmetry: every vertex must have its negation in the set
        for row in v:
            if not np.any(np.all(np.isclose(v, -row, rtol=0, atol=1e-12), axis=1)):
                raise ValueError("vertex set must be symmetric (closed under negation)")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "facets", _facet_rows(v))

    @property
    def dim(self) -> int:
        return int(self.vertices.shape[1])


NormSpec = Union[LpNorm, PolytopeGauge]


def _facet_rows(v: np.ndarray) -> np.ndarray:
    """The facet rows A of conv(v) = {x : A x <= 1}: the vertices of the polar {y : v y <= 1}."""
    if v.shape[1] == 1:
        return np.array([[1.0], [-1.0]]) / np.abs(v).max()
    v = np.unique(v, axis=0)
    found, unsure = _enumerate(v, _FACET_TOL)
    if unsure:  # also merge at a wider tolerance; valid rows only underestimate, so keep both runs'
        found += _enumerate(v, _FACET_TOL * _FACET_GAP)[0]
    if not found:
        raise ValueError("vertex set too close to degenerate for the facet enumeration")
    return np.unique(np.vstack(found), axis=0)


def _enumerate(v: np.ndarray, tol: float) -> tuple[list[np.ndarray], bool]:
    """The facet rows of conv(v) at one tolerance, or none if a check fails; and whether a ray came near it."""
    from .functional import _check_floats, default_budget  # functional imports this module

    (m, d), dim = v.shape, v.shape[1] + 1
    # the polar's cone {(y, t) : v.y <= t, t >= 0} as rows r with r.(y, t) <= 0; row 0 is t >= 0
    rows = np.zeros((m + 1, dim))
    rows[0, -1] = rows[1:, -1] = -1.0
    rows[1:, :-1] = v
    words = m // 64 + 1
    index = np.arange(m + 1)
    bits = np.zeros((m + 1, words), np.uint64)  # row i alone, as a packed tight set
    bits[index, index >> 6] = np.uint64(1) << (index & 63).astype(np.uint64)
    budget = default_budget()

    def count(rays: int, block: int) -> None:
        _check_floats(rays * (dim + words) + block, budget, "the facet enumeration's ray table and largest pair block")

    basis = _start_basis(rows)
    count(dim, 0)
    rays = -np.linalg.inv(rows[basis]).T  # ray j is tight on every basis row but row j
    rays /= np.abs(rays).max(axis=1, keepdims=True)
    tight = np.bitwise_or.reduce(bits[basis]) ^ bits[basis]
    unsure = False
    for k in np.setdiff1d(index, basis):
        s = rays @ rows[k]
        eps = tol * np.abs(rows[k]).sum()
        pos, neg = s > eps, s < -eps
        tight[~pos & ~neg] |= bits[k]
        unsure = unsure or bool(np.any((np.abs(s) > eps) & (np.abs(s) <= _FACET_GAP * eps)))
        if not pos.any():
            continue
        p, n = _adjacent(tight, pos, neg, d, count)
        count(len(rays) + len(p), 0)
        new = s[p, None] * rays[n] - s[n, None] * rays[p]  # on the row's hyperplane, between the two
        new /= np.abs(new).max(axis=1, keepdims=True)
        rays = np.concatenate([rays[~pos], new])
        tight = np.concatenate([tight[~pos], tight[p] & tight[n] | bits[k]])
    # every extreme ray has t > 0; its row a solves v.a = 1 over its tight vertices
    on = np.unpackbits(tight.view(np.uint8), axis=1, bitorder="little")[:, 1 : m + 1].astype(bool)
    size = on.sum(axis=1)
    out = np.empty((len(rays), d))
    simplicial = size == d
    tops = v[np.nonzero(on[simplicial])[1].reshape(-1, d)]
    out[simplicial] = np.linalg.solve(tops, np.ones((len(tops), d, 1)))[..., 0]
    for i in np.flatnonzero(~simplicial):
        out[i] = np.linalg.lstsq(v[on[i]], np.ones(size[i]), rcond=None)[0]
    # near a degenerate body rounding decides the tight sets; drop what that can break: a facet
    # missed next to a simple ray, a ray on fewer than d vertices, a row cutting off a vertex
    ok = _closed(tight, bits, d, count) and size.min() >= d and (v @ out.T).max() <= 1.0 + _FACET_CHECK
    return [out] if ok else [], unsure


def _start_basis(rows: np.ndarray) -> list[int]:
    # row 0 (t >= 0), then d rows each farthest from the span of those before (a pivoted QR),
    # so the starting cone is well conditioned; the first is a vertex row of the largest norm
    kept, rest = [0], rows[1:] - rows[1:] @ np.outer(rows[0], rows[0])
    for _ in range(rows.shape[1] - 1):
        i = int(np.argmax(np.einsum("ij,ij->i", rest, rest)))
        q = rest[i] / np.linalg.norm(rest[i])
        rest = rest - np.outer(rest @ q, q)
        kept.append(i + 1)
    return kept


def _adjacent(
    tight: np.ndarray, pos: np.ndarray, neg: np.ndarray, d: int, count: Callable[[int, int], None]
) -> tuple[np.ndarray, np.ndarray]:
    """The adjacent (positive, negative) pairs of extreme rays, from their packed tight sets.

    Two extreme rays of the (d + 1)-dimensional cone are adjacent iff no
    other ray's tight set contains the common tight set Z, which then has
    at least d - 1 members (the combinatorial test; Fukuda & Prodon 1996,
    Prop. 7).  A simple ray's d tight rows are independent, so a pair with
    one simple ray is adjacent iff |Z| = d - 1 and needs no third-ray test.
    ``count(rays, block)`` sees each temporary's size before it is made.
    """
    rays, words = tight.shape
    simple = np.bitwise_count(tight).sum(axis=1) == d
    # |Z| >= d - 1 by popcount, in blocks of positive rays against every negative one
    ip, jn = np.flatnonzero(pos), np.flatnonzero(neg)
    step = max(1, _PAIR_BLOCK // max(1, len(jn) * words))
    count(rays, min(step, len(ip)) * len(jn) * words)
    p, n = [], []
    for lo in range(0, len(ip), step):
        z = tight[ip[lo : lo + step], None] & tight[jn]
        a, b = np.nonzero(np.bitwise_count(z).sum(axis=2) >= d - 1)
        p.append(ip[lo : lo + step][a])
        n.append(jn[b])
    p, n = np.concatenate(p), np.concatenate(n)
    # the third-ray test: only p and n may hold Z
    test = np.flatnonzero(~simple[p] & ~simple[n])
    step = max(1, _PAIR_BLOCK // (rays * words))
    count(rays, min(step, len(test)) * rays * words)
    keep = np.ones(len(p), dtype=bool)
    for lo in range(0, len(test), step):
        t = test[lo : lo + step]
        z = (tight[p[t]] & tight[n[t]])[:, None]
        keep[t] = ((z & tight) == z).all(axis=2).sum(axis=1) == 2
    return p[keep], n[keep]


def _closed(tight: np.ndarray, bits: np.ndarray, d: int, count: Callable[[int, int], None]) -> bool:
    # every edge of a simple ray leads to another ray: each of its keys (its tight set less one
    # member), sorted so equal keys are neighbours, is held by a second ray
    rays, words = tight.shape
    simple = np.bitwise_count(tight).sum(axis=1) == d
    count(rays, int(simple.sum()) * d * words)
    members = np.nonzero(np.unpackbits(tight[simple].view(np.uint8), axis=1, bitorder="little"))[1]
    keys = np.repeat(tight[simple], d, axis=0) ^ bits[members]
    keys = keys[np.lexsort(keys.T[::-1])]
    twin = (keys[1:] == keys[:-1]).all(axis=1)
    alone = np.ones(len(keys), dtype=bool)
    alone[1:] &= ~twin
    alone[:-1] &= ~twin
    lone, other = keys[alone], tight[~simple]
    step = max(1, _PAIR_BLOCK // max(1, len(other) * words))
    count(rays, min(step, len(lone)) * len(other) * words)
    for lo in range(0, len(lone), step):
        z = lone[lo : lo + step, None]
        if not ((z & other) == z).all(axis=2).any(axis=1).all():
            return False
    return True


def _inv(r: float) -> float:
    return 0.0 if math.isinf(r) else 1.0 / r


def _conj(r: float) -> float:
    """Conjugate exponent r* with 1/r + 1/r* = 1: 1* = inf, inf* = 1."""
    if r == 1.0:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


def norm_eval(spec: NormSpec, x) -> float:
    """Evaluate the norm at a single point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != spec.dim:
        raise ValueError(f"point has shape {x.shape}, expected ({spec.dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("point must be finite")
    return float(norm_eval_many(spec, x[None, :])[0])


def _sign_matrix(k: int, half: bool = False) -> np.ndarray:
    # the 2^k rows of {-1, 1}^k, entry j of row i being bit j of i, read-only; with half, only the odd i,
    # whose entry 0 is +1: _sign_matrix(k)[1::2], contiguous.  Only tables of k <= _MAX_CUBE_N (the cube's
    # extreme points; 638,979 values, 5.1 MB, in all) are cached: a larger one is its caller's alone
    return (_cached_signs if k <= _MAX_CUBE_N else _cached_signs.__wrapped__)(k, half)


@lru_cache(maxsize=None)
def _cached_signs(k: int, half: bool) -> np.ndarray:
    idx = np.arange(int(half), 1 << k, 1 + half, dtype=np.int64)
    signs = ((idx[:, None] >> np.arange(k)) & 1).astype(float)  # astype: no ufunc cast buffer past _sign_floats
    signs *= 2.0
    signs -= 1.0
    signs.flags.writeable = False  # a cached table is shared by every caller
    return signs


def _sign_floats(k: int, half: bool = False) -> int:
    # what building the table holds, in float64 values: the table, its row indices and their bits as int64
    return ((1 << k) >> half) * (2 * k + 1)


def _reduce_rows(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    # numpy adds a row of fewer than 8 entries left to right too, so the column
    # loop gives the same bits without numpy's per-row set-up on a short axis
    if a.shape[-1] >= 8:
        return op.reduce(a, axis=-1)
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        op(out, a[..., j], out=out)
    return out


def _lp_many(spec: LpNorm, pts: np.ndarray) -> np.ndarray:
    # a point is a row of its own, so every path below sees (..., rows, d) and gets a scalar back as a reduce gives.
    # The (rows, d) temporary keeps the points' layout below 8 coordinates, so coordinate planes (the exact kernel's
    # and Monte Carlo's) stay planes for the column loop; from 8 on it is C-ordered, since numpy sums a row
    # pairwise only along a contiguous axis, and a strided row's sum would round differently
    if pts.ndim == 1:
        return _lp_many(spec, pts[None])[0]
    order = "K" if pts.shape[-1] < 8 else "C"
    if spec.r == 2.0:  # x * x is |x| * |x| bitwise, without the (rows, d) temporary of abs
        return np.sqrt(_reduce_rows(np.add, np.multiply(pts, pts, order=order)))
    a = np.abs(pts, order=order)
    if math.isinf(spec.r):
        return _reduce_rows(np.maximum, a)
    if spec.r == 1.0:
        return _reduce_rows(np.add, a)
    if spec.r != 3.0:
        return _lp_scaled(a, spec.r)
    # l^3 without a power: the cube root of sum |x|^3, where that sum is a normal double no cube of which
    # overflowed (peak about 2^-300 to 2^300); a row outside it takes the scaled path, decided per row
    # so a row's bits never depend on the rows it is stacked with.  A zero row is 0 on both paths
    with np.errstate(over="ignore", under="ignore"):
        cubes = a * a
        cubes *= a
    out = _reduce_rows(np.add, cubes)
    del cubes
    far = (out > _CUBE_SUM_MAX) | (out < _CUBE_SUM_MIN)
    np.cbrt(out, out=out)
    if far.any():
        out[far] = _lp_scaled(a[far], 3.0)
    return out


def _lp_scaled(a: np.ndarray, r: float) -> np.ndarray:
    # peak * (sum (|x| / peak)^r)^(1/r), in place on a = |x|: scaled so no power leaves the double range
    peak = _reduce_rows(np.maximum, a)
    zero = peak == 0.0
    some_zero = zero.any()
    if some_zero:
        peak[zero] = 1.0
    a /= peak[..., None]
    a **= r
    out = _reduce_rows(np.add, a)
    out **= 1.0 / r
    out *= peak
    if some_zero:
        out[zero] = 0.0
    return out


def norm_eval_many(spec: NormSpec, pts: np.ndarray) -> np.ndarray:
    """Vectorized norm of each row of ``pts`` (shape (..., dim))."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] != spec.dim:
        raise ValueError(f"points have last axis {pts.shape[-1]}, expected {spec.dim}")
    if isinstance(spec, LpNorm):
        return _lp_many(spec, pts)
    # one flat view a coordinate, so neither rows nor coordinate planes are copied
    cols = [pts[..., j].reshape(-1) for j in range(spec.dim)]
    out = np.empty(cols[0].size)
    step = max(1, _GAUGE_BLOCK // spec.facets.shape[0])
    for i in range(0, out.size, step):
        # max(pts @ A.T), summed left to right: BLAS rounds a point by how many share its call
        out[i : i + step] = sum(c[i : i + step, None] * spec.facets[:, j] for j, c in enumerate(cols)).max(axis=1)
    return out.reshape(pts.shape[:-1])


def _eval_floats(spec: NormSpec, points: int) -> int:
    """A bound on the float64 values ``norm_eval_many`` holds for ``points`` points, besides the points.

    l^1, l^2 and l^inf hold a (points, d) temporary and a row reduction;
    another r is counted at three (points, d) temporaries and three values
    per point, and holds at most two and four: |x| with its cubes (l^3) or
    with a copy of the rows that take the scaled path (2d + 3.25 values a
    point traced when every l^3 row does).  A
    gauge holds the result and, per point of a block, up to four rows of
    facet values and their maximum.
    """
    if isinstance(spec, LpNorm):
        return points * (spec.dim + 1 if spec.r in (1.0, 2.0, math.inf) else 3 * spec.dim + 3)
    facets = spec.facets.shape[0]
    return points + min(points, max(1, _GAUGE_BLOCK // facets)) * (4 * facets + 1)


def dual_norm_spec(spec: NormSpec) -> NormSpec:
    """Dual norm: l^r -> l^(r*), with 1* = inf and inf* = 1.

    A PolytopeGauge conv(V) = {x : A x <= 1} maps to its polar conv(A) =
    {y : V y <= 1} by swapping V and A: no second hull, an exact double dual.
    """
    if isinstance(spec, PolytopeGauge):
        polar = object.__new__(PolytopeGauge)
        object.__setattr__(polar, "vertices", spec.facets)
        object.__setattr__(polar, "facets", spec.vertices)
        return polar
    return LpNorm(_conj(spec.r), spec.dim)


@dataclass(frozen=True)
class ComparisonConstants:
    """Bounds on the ratio ||x||_A / ||x||_B: lower <= ratio <= upper."""

    lower: float
    upper: float
    rigorous: bool


def lp_comparison(r: float, s: float, d: int) -> ComparisonConstants:
    """Exact extreme values of ||x||_r / ||x||_s on R^d.

    For r <= s the ratio lives in [1, d^(1/r - 1/s)] (attained at a
    coordinate axis and at the all-ones vector); for r > s in
    [d^(1/r - 1/s), 1].  The r > s lower value is computed as the
    reciprocal of the mirrored upper value so that the pairing
    lower(r, s) == 1 / upper(s, r) holds bitwise.
    """
    LpNorm(r, d)  # validate
    LpNorm(s, d)
    e = _inv(r) - _inv(s)
    if e >= 0.0:
        return ComparisonConstants(lower=1.0, upper=float(d) ** e, rigorous=True)
    return ComparisonConstants(lower=1.0 / float(d) ** (-e), upper=1.0, rigorous=True)


def _comparison_points(d: int, trials: int, seed: int) -> np.ndarray:
    # the coordinate axes, the all-ones direction and `trials` gaussian draws
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    pts = [np.eye(d), np.ones((1, d))]
    g = rng.standard_normal((trials, d))
    g = g[np.max(np.abs(g), axis=1) > 1e-12]
    if g.size:
        pts.append(g)
    return np.vstack(pts)


def estimate_comparison(a: NormSpec, b: NormSpec, trials: int, seed: int) -> ComparisonConstants:
    """Sampled bounds on ||x||_a / ||x||_b; always flagged non-rigorous.

    The sample always includes the coordinate axes and the all-ones
    direction, so for l^p-type pairs the true extremes are attained.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    pts = _comparison_points(a.dim, trials, seed)
    na = norm_eval_many(a, pts)
    nb = norm_eval_many(b, pts)
    ratio = na / nb
    return ComparisonConstants(lower=float(ratio.min()), upper=float(ratio.max()), rigorous=False)


def _comparison_functions(
    spec: NormSpec, trials: int, seed: int
) -> tuple[Callable[[float], float], Callable[[float], float], Optional[tuple[float, ...]]]:
    """p -> inf ||x|| / ||x||_p and p -> inf ||x||_p / ||x||, and the exponents where they change form.

    Exact for l^r (``lp_comparison``), changing form at p = r alone.  Else
    the minima of ``estimate_comparison`` with the same (trials, seed), and
    None: the sample's norms under ``spec`` are computed once per call.
    """
    n = spec.dim
    if isinstance(spec, LpNorm):
        r = spec.r
        return (lambda p: lp_comparison(r, p, n).lower), (lambda p: lp_comparison(p, r, n).lower), (r,)
    pts = _comparison_points(n, trials, seed)
    body = norm_eval_many(spec, pts)
    return (
        lambda p: float((body / norm_eval_many(LpNorm(p, n), pts)).min()),
        lambda p: float((norm_eval_many(LpNorm(p, n), pts) / body).min()),
        None,
    )


def _known_cotype(spec: NormSpec) -> Optional[float]:
    """A Hanner cotype exponent the norm is known to have: r for l^r with r <= 2 (Hanner 1956), else None."""
    return spec.r if isinstance(spec, LpNorm) and spec.r <= 2.0 else None


def _extreme_points(spec: NormSpec) -> Optional[np.ndarray]:
    """The extreme points of the unit ball, one a row, or None when it has none to list.

    A polytope lists its vertices, l^1 the 2d points +-e_i and a cube its
    2^d cached sign rows up to d = 14; a larger cube and other l^r none.
    """
    if isinstance(spec, PolytopeGauge):
        return spec.vertices
    if spec.r == 1.0:
        eye = np.eye(spec.dim)
        return np.vstack([eye, -eye])
    if math.isinf(spec.r) and spec.dim <= _MAX_CUBE_N:
        return _sign_matrix(spec.dim)
    return None


def _ball_max(K: NormSpec, L: NormSpec, S: np.ndarray) -> float:
    """max over the unit ball of K of ||S x||_L, exactly.

    A convex function peaks at an extreme point, so this is the maximum
    over Ext(K) when ``_extreme_points`` lists it, else the max over
    Ext(B_L*) of ||S^T a||_K*, since ||S x||_L = max <a, S x> over a in
    B_L* and the two maxima commute.  If neither is listed, ValueError.
    """
    ext = _extreme_points(K)
    if ext is not None:
        return float(norm_eval_many(L, ext @ S.T).max())
    Ld = dual_norm_spec(L)
    ext = _extreme_points(Ld)
    if ext is not None:
        return float(norm_eval_many(dual_norm_spec(K), ext @ S).max())
    if math.isinf(K.r) or math.isinf(Ld.r):  # a polytope is always listed, so both are l^r here
        raise ValueError(f"cube vertex enumeration supports n <= {_MAX_CUBE_N}, got {K.dim}")
    raise ValueError("extreme points are enumerable only for l^1, l^inf and polytope gauges")


def parse_norm_spec(text: str) -> NormSpec:
    """Parse a norm descriptor: ``lp:<r>:<d>`` or ``polytope:<vertex-csv-path>``.

    The exponent accepts the spelling ``inf`` for the max norm.
    """
    kind, _, rest = text.partition(":")
    if kind == "lp":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad lp norm spec {text!r}, expected lp:<r>:<d>")
        r = math.inf if parts[0] == "inf" else float(parts[0])
        try:
            d = int(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad dimension in {text!r}") from exc
        return LpNorm(r, d)
    if kind == "polytope":
        if not rest:
            raise ValueError("polytope spec requires a vertex csv path")
        verts = np.loadtxt(rest, delimiter=",", ndmin=2)
        return PolytopeGauge(verts)
    raise ValueError(f"unknown norm spec kind {kind!r}")


def describe_norm(spec: NormSpec) -> str:
    if isinstance(spec, LpNorm):
        r = "inf" if math.isinf(spec.r) else f"{spec.r:g}"
        return f"lp:{r}:{spec.dim}"
    return f"polytope:{spec.vertices.shape[0]}x{spec.dim}"
