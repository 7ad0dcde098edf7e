"""Banach-Mazur distance bounds between symmetric convex bodies.

Lower bounds come from moment-comparison inequalities:

* ``theorem2_general_lower``: d(cube, ||.||) >= sup_p C_p A_p n^(1/p-1/2)
  with C_p = inf(||x|| / ||x||_p) * inf(||y||_1 / ||y||);
* ``theorem2_cotype_lower``: d(cube, ||.||) >= sup_{p>=q} A_q C~_p sqrt(n)
  with C~_p = inf(||x|| / ||x||_p) * inf(||x||_p / ||x||), under a
  caller-asserted Hanner cotype (q, n) hypothesis;
* ``prop4_lower``: the l^p body cases, reduced to the two bounds above
  through d(l^p, ||.||) >= n^(-1/p) d(l^inf, ||.||) for p >= 2 and
  d(l^p, ||.||) >= n^(1/p-1) d(l^inf, ||.||_*) for p <= 2;
* ``corollary1_lower``: max{A_p n^(1/2-1/q), A_q* n^(1/p-1/2)} for
  1 <= p < 2 < q <= inf.

Upper bounds come from explicit linear transforms: for invertible T,

    d(K, L) <= [max over Ext(K) of ||Tx||_L] * [max over Ext(B_L) of ||T^-1 y||_K]

which is scale-invariant in T (scalar multiples cancel exactly in the
product).  Reported lower bounds are clamped at 1 (a distance is never
smaller); the raw formula value is kept alongside for transparency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import tolerances as tol
from .constants import lower_constant
from .functional import _sign_matrix
from .norms import (
    LpNorm,
    NormSpec,
    PolytopeGauge,
    _comparison_points,
    _conj,
    _inv,
    dual_norm_spec,
    lp_comparison,
    norm_eval_many,
)

__all__ = [
    "LowerBound",
    "TransformBound",
    "Prop4Result",
    "BMBoundReport",
    "theorem2_general_lower",
    "theorem2_cotype_lower",
    "prop4_lower",
    "corollary1_lower",
    "known_distance",
    "upper_bound_via_transform",
    "hadamard_matrix",
    "sandwich_report",
]

_MAX_CUBE_N = 14
_MAX_SANDWICH_N = 2048  # sandwich_report peaks near 97 n^2 bytes, here 0.4 GB
_P_HI = 64.0
_GRID_POINTS = 64
_GOLDEN_ITERS = 120


@dataclass(frozen=True)
class LowerBound:
    method: str
    value: float  # clamped at 1
    raw: float
    witness_p: Optional[float]
    rigorous: bool
    note: str = ""


def _lower_comparisons(
    L: NormSpec, trials: int, seed: int
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """p -> inf ||x||_L / ||x||_p and p -> inf ||x||_p / ||x||_L.

    Exact for an l^r norm.  Otherwise the values are those of
    ``estimate_comparison`` with the same (trials, seed): the sample and its
    norms under L are computed once per call, only the l^p side per exponent.
    """
    n = L.dim
    if isinstance(L, LpNorm):
        return (lambda p: lp_comparison(L.r, p, n).lower), (lambda p: lp_comparison(p, L.r, n).lower)
    pts = _comparison_points(n, trials, seed)
    body = norm_eval_many(L, pts)

    def to_lp(p: float) -> float:
        return float((body / norm_eval_many(LpNorm(p, n), pts)).min())

    def from_lp(p: float) -> float:
        return float((norm_eval_many(LpNorm(p, n), pts) / body).min())

    return to_lp, from_lp


def _optimize_exponent(
    objective: Callable[[float], float], lo: float, hi: float, extras: tuple[float, ...] = ()
) -> tuple[float, float]:
    # coarse log grid, then golden-section refinement around the best
    # grid point; the returned max dominates every point evaluated
    grid = [float(x) for x in np.geomspace(lo, hi, _GRID_POINTS)]
    grid.extend(x for x in extras if lo <= x <= hi)
    evals = [(objective(x), x) for x in grid]
    best_val, best_x = max(evals)
    order = sorted(x for _, x in evals)
    i = order.index(best_x)
    left = order[max(0, i - 1)]
    right = order[min(len(order) - 1, i + 1)]
    a, b = math.log(left), math.log(right)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = objective(math.exp(c)), objective(math.exp(d))
    for _ in range(_GOLDEN_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = objective(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = objective(math.exp(d))
        x = math.exp((a + b) / 2.0)
        val = objective(x)
        if val > best_val:
            best_val, best_x = val, x
    for val, x in ((fc, math.exp(c)), (fd, math.exp(d))):
        if val > best_val:
            best_val, best_x = val, x
    return float(best_val), float(best_x)


def theorem2_general_lower(L: NormSpec, n: int, trials: int = 2048, seed: int = 0) -> LowerBound:
    """Lower bound for d(cube, L) from the general moment inequality."""
    if L.dim != n:
        raise ValueError(f"norm dimension {L.dim} != n = {n}")
    to_lp, from_lp = _lower_comparisons(L, trials, seed)
    one_factor = from_lp(1.0)

    def objective(p: float) -> float:
        return to_lp(p) * one_factor * lower_constant(p) * float(n) ** (_inv(p) - 0.5)

    raw, witness = _optimize_exponent(
        objective, 1.0, _P_HI, extras=(1.0, 2.0) + ((L.r,) if isinstance(L, LpNorm) and not math.isinf(L.r) else ())
    )
    rigorous = isinstance(L, LpNorm)
    return LowerBound("thm2-general", max(1.0, raw), raw, witness, rigorous)


def theorem2_cotype_lower(L: NormSpec, q: float, n: int, trials: int = 2048, seed: int = 0) -> LowerBound:
    """Lower bound for d(cube, L) under an asserted Hanner cotype (q, n).

    The hypothesis is recorded, not verified; the caller owns it.
    """
    if not q >= 1.0:
        raise ValueError(f"need q >= 1, got {q}")
    if L.dim != n:
        raise ValueError(f"norm dimension {L.dim} != n = {n}")

    to_lp, from_lp = _lower_comparisons(L, trials, seed)

    def objective(p: float) -> float:
        return lower_constant(q) * to_lp(p) * from_lp(p) * math.sqrt(n)

    extras = (q, 2.0) + ((L.r,) if isinstance(L, LpNorm) and not math.isinf(L.r) else ())
    raw, witness = _optimize_exponent(objective, q, _P_HI, extras=extras)
    rigorous = isinstance(L, LpNorm)
    return LowerBound(
        "thm2-cotype", max(1.0, raw), raw, witness, rigorous, note=f"assumes Hanner cotype ({q:g}, {n})"
    )


@dataclass(frozen=True)
class Prop4Result:
    value: float  # clamped at 1
    raw: float
    case: str
    witness_r: Optional[float]
    rigorous: bool


def prop4_lower(
    p: float, L: NormSpec, n: int, q_cotype: float | None = None, trials: int = 2048, seed: int = 0
) -> Prop4Result:
    """Lower bound for d(l^p ball, L) by reduction to the cube bounds.

    Four cases are evaluated where applicable: general and cotype
    versions, on L directly for p >= 2 and on the dual norm for p <= 2;
    the best raw value wins.  ``q_cotype`` asserts a Hanner cotype for L
    itself; cotype of the dual is derived only for l^r norms (r* <= 2).
    """
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    if L.dim != n:
        raise ValueError(f"norm dimension {L.dim} != n = {n}")
    qc = q_cotype
    if qc is None and isinstance(L, LpNorm) and L.r <= 2.0:
        qc = L.r
    cases: list[tuple[float, str, Optional[float], bool]] = []
    if p >= 2.0:
        factor = float(n) ** (-_inv(p))
        g = theorem2_general_lower(L, n, trials, seed)
        cases.append((factor * g.raw, "general", g.witness_p, g.rigorous))
        if qc is not None:
            c = theorem2_cotype_lower(L, qc, n, trials, seed)
            cases.append((factor * c.raw, "cotype", c.witness_p, c.rigorous))
    if p <= 2.0:
        factor = float(n) ** (_inv(p) - 1.0)
        Ld = dual_norm_spec(L)
        g = theorem2_general_lower(Ld, n, trials, seed)
        cases.append((factor * g.raw, "dual-general", g.witness_p, g.rigorous))
        if isinstance(Ld, LpNorm) and Ld.r <= 2.0:
            c = theorem2_cotype_lower(Ld, Ld.r, n, trials, seed)
            cases.append((factor * c.raw, "dual-cotype", c.witness_p, c.rigorous))
    raw, case, witness, rigorous = max(cases, key=lambda c: c[0])
    return Prop4Result(value=max(1.0, raw), raw=raw, case=case, witness_r=witness, rigorous=rigorous)


def corollary1_lower(p: float, q: float, n: int) -> float:
    """max{A_p n^(1/2 - 1/q), A_q* n^(1/p - 1/2)} for 1 <= p < 2 < q <= inf.

    Returned unclamped; report assembly clamps at 1.
    """
    if not (1.0 <= p < 2.0 < q):
        raise ValueError(f"need 1 <= p < 2 < q <= inf, got p={p}, q={q}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return max(
        lower_constant(p) * float(n) ** (0.5 - _inv(q)),
        lower_constant(_conj(q)) * float(n) ** (_inv(p) - 0.5),
    )


def known_distance(p: float, q: float, n: int) -> Optional[float]:
    """Exact l^p vs l^q distance when the pair matches a supported fact.

    Facts: d = 1 for identical exponents or n = 1; d(l^inf, l^q) =
    n^(1/q) for q >= 2; d(l^1, l^p) = n^(1 - 1/p) for p <= 2; closure
    under swapping and duality; and the planar square/diamond isometry
    d = 1 for {1, inf} at n = 2.  Returns None otherwise.
    """
    for r in (p, q):
        if not r >= 1.0:
            raise ValueError(f"exponents must be >= 1, got {r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1 or p == q:
        return 1.0
    if n == 2 and {p, q} == {1.0, math.inf}:
        return 1.0

    def fact(a: float, b: float) -> Optional[float]:
        if math.isinf(a) and b >= 2.0:
            return float(n) ** _inv(b)
        if a == 1.0 and b <= 2.0:
            return float(n) ** (1.0 - 1.0 / b)
        return None

    for a, b in ((p, q), (q, p), (_conj(p), _conj(q)), (_conj(q), _conj(p))):
        val = fact(a, b)
        if val is not None:
            return val
    return None


@dataclass(frozen=True)
class TransformBound:
    value: float
    factor_out: float
    factor_in: float
    rigorous: bool
    transform_name: str


def _extreme_points(spec: NormSpec) -> np.ndarray:
    if isinstance(spec, PolytopeGauge):
        return spec.vertices
    if math.isinf(spec.r):
        if spec.dim > _MAX_CUBE_N:
            raise ValueError(f"cube vertex enumeration supports n <= {_MAX_CUBE_N}, got {spec.dim}")
        return _sign_matrix(spec.dim)
    if spec.r == 1.0:
        eye = np.eye(spec.dim)
        return np.vstack([eye, -eye])
    raise ValueError("extreme points are enumerable only for l^1, l^inf and polytope gauges")


def upper_bound_via_transform(
    K: NormSpec, L: NormSpec, T: np.ndarray, samples: int = 4096, seed: int = 0, name: str = "custom"
) -> TransformBound:
    """r(T) = max_{Ext(K)} ||Tx||_L * max_{Ext(B_L)} ||T^-1 y||_K >= d(K, L).

    K must have enumerable extreme points (l^1, l^inf, polytope gauge).
    The second factor is exact when Ext(B_L) is enumerable, or when K is
    the cube and L is an l^q norm (row-wise Hoelder duality); otherwise
    it is maximized over a sampled unit sphere and flagged non-rigorous.
    """
    T = np.asarray(T, dtype=float)
    d = K.dim
    if L.dim != d or T.shape != (d, d):
        raise ValueError(f"shape mismatch: K dim {d}, L dim {L.dim}, T {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError("transform must be finite")
    try:
        T_inv = np.linalg.inv(T)
    except np.linalg.LinAlgError as exc:
        raise ValueError("transform is singular") from exc
    if not np.all(np.isfinite(T_inv)) or np.linalg.cond(T) > 1e12:
        raise ValueError("transform is singular or ill-conditioned")

    ext_k = _extreme_points(K)
    factor_out = float(norm_eval_many(L, ext_k @ T.T).max())

    rigorous = True
    try:
        ext_l = _extreme_points(L)
        factor_in = float(norm_eval_many(K, ext_l @ T_inv.T).max())
    except ValueError:
        if isinstance(K, LpNorm) and math.isinf(K.r) and isinstance(L, LpNorm):
            # max over B_L of ||T^-1 y||_inf is the largest dual-norm row
            factor_in = float(norm_eval_many(dual_norm_spec(L), T_inv).max())
        else:
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((samples, d))
            g = g[np.max(np.abs(g), axis=1) > 1e-12]
            y = g / norm_eval_many(L, g)[:, None]
            factor_in = float(norm_eval_many(K, y @ T_inv.T).max())
            rigorous = False
    return TransformBound(
        value=factor_out * factor_in,
        factor_out=factor_out,
        factor_in=factor_in,
        rigorous=rigorous,
        transform_name=name,
    )


def hadamard_matrix(n: int) -> np.ndarray:
    """Sylvester Hadamard matrix normalized by 1/sqrt(n); requires n = 2^k."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"Hadamard construction needs n = 2^k, got {n}")
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h / math.sqrt(n)


@dataclass(frozen=True)
class BMBoundReport:
    pair: tuple[str, str]
    n: int
    lower_bounds: tuple[LowerBound, ...]
    known_exact: Optional[float]
    upper_bound: Optional[TransformBound]
    consistent: bool
    notes: tuple[str, ...]


def _fmt_exp(r: float) -> str:
    return "inf" if math.isinf(r) else f"{r:g}"


def default_transforms(n: int) -> list[tuple[str, np.ndarray]]:
    out = [("identity", np.eye(n))]
    if n >= 2 and n & (n - 1) == 0:
        out.append(("hadamard", hadamard_matrix(n)))
    return out


def _consistent(
    lower_bounds: Sequence[LowerBound], known: Optional[float], upper: Optional[TransformBound]
) -> bool:
    # max rigorous lower <= known <= rigorous upper, where present; every
    # pair is checked, since the slack makes leq not quite transitive
    max_rig = max((lb.value for lb in lower_bounds if lb.rigorous), default=1.0)
    upper_val = upper.value if upper is not None and upper.rigorous else None
    chain = [x for x in (max_rig, known, upper_val) if x is not None]
    return all(tol.leq(a, b) for a, b in itertools.combinations(chain, 2))


def _check_sandwich_n(n: int) -> None:
    if n > _MAX_SANDWICH_N:
        raise ValueError(f"sandwich bounds support n <= {_MAX_SANDWICH_N}, got {n}")


def sandwich_report(
    p: float,
    q: float,
    n: int,
    transforms: list[tuple[str, np.ndarray]] | None = None,
    trials: int = 2048,
    seed: int = 0,
) -> BMBoundReport:
    """All applicable bounds for d(l^p ball, l^q ball) in R^n.

    Collects clamped lower bounds, the known exact value when the pair
    is supported, and the best transform upper bound.  ``consistent``
    requires max rigorous lower <= known <= upper (where present), each
    with the standard slack.  Per-method failures become notes, not
    errors.
    """
    _check_sandwich_n(n)
    K = LpNorm(p, n)
    L = LpNorm(q, n)
    lower: list[LowerBound] = []
    notes: list[str] = []

    if math.isinf(p) or math.isinf(q):
        other = L if math.isinf(p) else K
        lower.append(theorem2_general_lower(other, n, trials, seed))
        if other.r <= 2.0:
            lower.append(theorem2_cotype_lower(other, other.r, n, trials, seed))
    for exponent, body in ((p, L), (q, K)):
        r4 = prop4_lower(exponent, body, n, trials=trials, seed=seed)
        lower.append(LowerBound("prop4", r4.value, r4.raw, r4.witness_r, r4.rigorous, note=f"case {r4.case}"))
    a, b = min(p, q), max(p, q)
    if 1.0 <= a < 2.0 < b:
        raw = corollary1_lower(a, b, n)
        lower.append(LowerBound("cor1", max(1.0, raw), raw, None, True))

    known = known_distance(p, q, n)

    best_upper: Optional[TransformBound] = None
    enumerable = {1.0, math.inf}
    for tname, tmat in transforms if transforms is not None else default_transforms(n):
        if p in enumerable:
            kk, ll = K, L
        elif q in enumerable:
            kk, ll = L, K
        else:
            notes.append(f"upper({tname}): neither body has enumerable extreme points")
            continue
        try:
            cand = upper_bound_via_transform(kk, ll, tmat, seed=seed, name=tname)
        except ValueError as exc:
            notes.append(f"upper({tname}): {exc}")
            continue
        if best_upper is None or (cand.rigorous, -cand.value) > (best_upper.rigorous, -best_upper.value):
            best_upper = cand

    return BMBoundReport(
        pair=(_fmt_exp(p), _fmt_exp(q)),
        n=n,
        lower_bounds=tuple(lower),
        known_exact=known,
        upper_bound=best_upper,
        consistent=_consistent(lower, known, best_upper),
        notes=tuple(notes),
    )
