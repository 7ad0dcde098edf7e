"""Norm specifications on R^d and comparison constants between them.

Two families are supported:

* ``LpNorm(r, dim)`` -- the l^r norm, 1 <= r <= inf (inf is a distinct
  case, never a large float stand-in);
* ``PolytopeGauge(vertices)`` -- the Minkowski functional of the convex
  hull of a symmetric spanning vertex set, evaluated from its facet form
  {x : A x <= 1} as max(A x); its dual is the gauge of the polar conv(A).

Comparison constants between two norms A, B on the same space are the
extreme values of the ratio ||x||_A / ||x||_B.  For l^r vs l^s they are
closed-form; for anything else there is a sampled (non-rigorous)
estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

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

    The facet rows A of conv(vertices) = {x : A x <= 1} are computed once
    by qhull, and the gauge of x is max(A x).  scipy is imported only here.
    Dimension is capped at 8; this is a small-scale verification tool.
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
    if v.shape[1] == 1:  # qhull rejects 1-D input
        return np.array([[1.0], [-1.0]]) / np.abs(v).max()
    from scipy.spatial import ConvexHull

    # the simplices of one triangulated facet share bitwise-equal equations
    # n.x + c <= 0 (c < 0, the origin is interior), so np.unique keeps one
    eq = np.unique(ConvexHull(v).equations, axis=0)
    return eq[:, :-1] / -eq[:, -1:]


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


def _reduce_rows(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    # numpy adds a row of fewer than 8 entries left to right too, so the column
    # loop gives the same bits without numpy's per-row set-up on a short axis
    if a.shape[-1] >= 8:
        return op.reduce(a, axis=-1)
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        op(out, a[..., j], out=out)
    return out[()]  # a scalar for one point, as reduce gives


def _lp_many(spec: LpNorm, pts: np.ndarray) -> np.ndarray:
    a = np.abs(pts)
    if math.isinf(spec.r):
        return _reduce_rows(np.maximum, a)
    if spec.r == 1.0:
        return _reduce_rows(np.add, a)
    if spec.r == 2.0:
        return np.sqrt(_reduce_rows(np.add, a * a))
    # scale for overflow safety at large r
    peak = _reduce_rows(np.maximum, a)[..., None]
    safe = np.where(peak == 0.0, 1.0, peak)
    out = safe[..., 0] * _reduce_rows(np.add, (a / safe) ** spec.r) ** (1.0 / spec.r)
    return np.where(peak[..., 0] == 0.0, 0.0, out)


def norm_eval_many(spec: NormSpec, pts: np.ndarray) -> np.ndarray:
    """Vectorized norm of each row of ``pts`` (shape (..., dim))."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] != spec.dim:
        raise ValueError(f"points have last axis {pts.shape[-1]}, expected {spec.dim}")
    if isinstance(spec, LpNorm):
        return _lp_many(spec, pts)
    flat = pts.reshape(-1, spec.dim)
    out = np.empty(flat.shape[0])
    step = max(1, _GAUGE_BLOCK // spec.facets.shape[0])
    for i in range(0, flat.shape[0], step):
        # max(pts @ A.T), summed left to right: BLAS rounds a point by how many share its call
        block = flat[i : i + step]
        out[i : i + step] = sum(block[:, j, None] * spec.facets[:, j] for j in range(spec.dim)).max(axis=1)
    return out.reshape(pts.shape[:-1])


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
