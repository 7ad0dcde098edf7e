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

The supremum over p runs over [lo, 64].  For exact comparison functions
it is the largest objective value on the breakpoints {lo, 2, r, 64}, each
piece between them being monotone or log-convex in 1/p
(``_maximize_exponent`` has the proof).  Sampled ones (a polytope body)
keep a log grid plus golden-section search.  Every fact that depends on
the kind of body comes from ``norms``, so a new kind is added there alone.

Upper bounds come from explicit linear transforms: for invertible T,

    d(K, L) <= [max over B_K of ||Tx||_L] * [max over B_L of ||T^-1 y||_K]

which is scale-invariant in T (scalar multiples cancel exactly in the
product).  Each factor is an exact maximum, never sampled: over the
extreme points of the ball, or by duality over those of the dual of the
target ball (``norms._ball_max``).  One of the two must be listed, which
holds for a polytope, l^1 or l^inf body (a cube up to n = 14) against
any l^q ball, and for two cubes of any size.  Reported
lower bounds are clamped at 1 (a distance is never smaller); the raw
formula value is kept alongside for transparency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import tolerances as tol
from .constants import lower_constant
from .norms import (
    LpNorm,
    NormSpec,
    _ball_max,
    _comparison_functions,
    _conj,
    _extreme_points,
    _inv,
    _known_cotype,
    dual_norm_spec,
)

__all__ = [
    "LowerBound",
    "TransformBound",
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


def _optimize_exponent(
    objective: Callable[[float], float], lo: float, hi: float, extras: tuple[float, ...] = ()
) -> tuple[float, float]:
    # coarse log grid, then golden-section refinement around the best
    # grid point; the returned max dominates every point evaluated.  The
    # grid holds each point once, so the bracket around the best is never
    # a single point
    grid = sorted({float(x) for x in np.geomspace(lo, hi, _GRID_POINTS)}.union(x for x in extras if lo <= x <= hi))
    best_val, best_x = max((objective(x), x) for x in grid)
    i = grid.index(best_x)
    left = grid[max(0, i - 1)]
    right = grid[min(len(grid) - 1, i + 1)]
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


def _maximize_exponent(
    objective: Callable[[float], float], lo: float, breakpoints: Optional[tuple[float, ...]]
) -> tuple[float, float]:
    """sup of a Theorem-2 objective over p in [lo, 64], and the smallest maximizer.

    For exact comparison functions, which change form at ``breakpoints``
    (r for an l^r body), it is the largest value on {lo, 2, r, 64} inside
    [lo, 64], with no search.  With t = 1/p, A_p is 2^(1/2 - t) on [1, p0]
    (two-point), ||g||_p on [p0, 2] (gaussian) and 1 from 2 on (Haagerup,
    Studia Math. 70, 1981; p0 ~ 1.847), so A_p is nondecreasing.  The
    general objective is C A_p n^(t - 1/2) min(1, n^(1/r - t)):

    * p <= r: it is A_p times a constant, nondecreasing in p;
    * p >= max(r, 2): it is n^t times a constant, nonincreasing in p;
    * r <= p <= p0, n >= 2: it is a constant times sqrt(2) (n/2)^t,
      nonincreasing in p, so p0 never beats r;
    * max(r, p0) <= p <= 2: A_p = ||g||_(1/t), and t -> log ||g||_(1/t) is
      convex (Lyapunov), so the log-objective is convex in t and peaks at
      an end of the piece: max(r, p0), covered above, or 2.

    At n = 1 the objective is A_p, which first reaches its maximum 1 at
    p = 2.  The cotype objective is A_q sqrt(n) n^(-|1/r - t|), which peaks
    at p = r clipped to [q, 64].  The witness is the smallest breakpoint
    attaining the maximum, so a flat stretch reports its left end.

    Sampled ones (``breakpoints`` None) are not covered by this argument:
    they keep the grid and golden-section search of ``_optimize_exponent``.
    """
    if breakpoints is None:
        return _optimize_exponent(objective, lo, _P_HI, extras=(lo, 2.0))
    values = [(objective(p), p) for p in {lo, 2.0, *breakpoints, _P_HI} if lo <= p <= _P_HI]
    best = max(v for v, _ in values)
    return best, min(p for v, p in values if v == best)


def theorem2_general_lower(L: NormSpec, n: int, trials: int = 2048, seed: int = 0) -> LowerBound:
    """Lower bound for d(cube, L) from the general moment inequality."""
    if L.dim != n:
        raise ValueError(f"norm dimension {L.dim} != n = {n}")
    to_lp, from_lp, breakpoints = _comparison_functions(L, trials, seed)
    one_factor = from_lp(1.0)

    def objective(p: float) -> float:
        return to_lp(p) * one_factor * lower_constant(p) * float(n) ** (_inv(p) - 0.5)

    raw, witness = _maximize_exponent(objective, 1.0, breakpoints)
    # exact comparison functions come with their breakpoints, sampled ones without
    return LowerBound("thm2-general", max(1.0, raw), raw, witness, breakpoints is not None)


def theorem2_cotype_lower(L: NormSpec, q: float, n: int, trials: int = 2048, seed: int = 0) -> LowerBound:
    """Lower bound for d(cube, L) under an asserted Hanner cotype (q, n).

    The hypothesis is recorded, not verified; the caller owns it.
    """
    if not 1.0 <= q <= _P_HI:
        raise ValueError(f"need 1 <= q <= {_P_HI:g}, got {q}")
    if L.dim != n:
        raise ValueError(f"norm dimension {L.dim} != n = {n}")

    to_lp, from_lp, breakpoints = _comparison_functions(L, trials, seed)

    def objective(p: float) -> float:
        return lower_constant(q) * to_lp(p) * from_lp(p) * math.sqrt(n)

    raw, witness = _maximize_exponent(objective, q, breakpoints)
    return LowerBound(
        "thm2-cotype", max(1.0, raw), raw, witness, breakpoints is not None, note=f"assumes Hanner cotype ({q:g}, {n})"
    )


def prop4_lower(
    p: float, L: NormSpec, n: int, q_cotype: float | None = None, trials: int = 2048, seed: int = 0
) -> LowerBound:
    """Lower bound for d(l^p ball, L) by reduction to the cube bounds.

    Four cases are evaluated where applicable: general and cotype
    versions, on L directly for p >= 2 and on the dual norm for p <= 2;
    the best raw value wins, and ``note`` names its case.  ``q_cotype``
    asserts a Hanner cotype for L itself; otherwise, and for the dual, a
    cotype is used only where ``norms._known_cotype`` knows one.
    """
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    if L.dim != n:
        raise ValueError(f"norm dimension {L.dim} != n = {n}")
    reductions = []  # (case prefix, factor, body, its cotype)
    if p >= 2.0:
        reductions.append(("", float(n) ** (-_inv(p)), L, _known_cotype(L) if q_cotype is None else q_cotype))
    if p <= 2.0:
        Ld = dual_norm_spec(L)
        reductions.append(("dual-", float(n) ** (_inv(p) - 1.0), Ld, _known_cotype(Ld)))
    cases: list[tuple[float, str, Optional[float], bool]] = []
    for prefix, factor, body, qc in reductions:
        bounds = [("general", theorem2_general_lower(body, n, trials, seed))]
        if qc is not None:
            bounds.append(("cotype", theorem2_cotype_lower(body, qc, n, trials, seed)))
        cases += [(factor * b.raw, prefix + kind, b.witness_p, b.rigorous) for kind, b in bounds]
    raw, case, witness, rigorous = max(cases, key=lambda c: c[0])
    return LowerBound("prop4", max(1.0, raw), raw, witness, rigorous, note=f"case {case}")


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
    rigorous: bool  # always True: both factors are exact maxima
    transform_name: str


def upper_bound_via_transform(K: NormSpec, L: NormSpec, T: np.ndarray, name: str = "custom") -> TransformBound:
    """r(T) = max_{B_K} ||Tx||_L * max_{B_L} ||T^-1 y||_K >= d(K, L), exactly.

    Each factor is the exact maximum of a norm over a unit ball
    (``norms._ball_max``), so ``rigorous`` is always True.  The first needs
    Ext(K) or Ext(B_L*) listed and the second Ext(B_L) or Ext(K*), which
    holds for a polytope, l^1 or l^inf body K (a cube up to n = 14)
    against any l^q body L, and for two cubes of any size; else ValueError.
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

    factor_out = _ball_max(K, L, T)
    factor_in = _ball_max(L, K, T_inv)
    return TransformBound(
        value=factor_out * factor_in,
        factor_out=factor_out,
        factor_in=factor_in,
        rigorous=True,
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
    # max rigorous lower <= known <= upper, where present; every pair is
    # checked, since the slack makes leq not quite transitive
    max_rig = max((lb.value for lb in lower_bounds if lb.rigorous), default=1.0)
    chain = [x for x in (max_rig, known, None if upper is None else upper.value) if x is not None]
    return all(tol.leq(a, b) for a, b in itertools.combinations(chain, 2))


def _check_sandwich_n(n: int) -> None:
    if n > _MAX_SANDWICH_N:
        raise ValueError(f"sandwich bounds support n <= {_MAX_SANDWICH_N}, got {n}")


def sandwich_report(
    p: float,
    q: float,
    n: int,
    transforms: list[tuple[str, np.ndarray]] | None = None,
) -> BMBoundReport:
    """All applicable bounds for d(l^p ball, l^q ball) in R^n.

    Collects clamped lower bounds, the known exact value when the pair
    is supported, and the best transform upper bound.  ``consistent``
    requires max rigorous lower <= known <= upper (where present), each
    with the standard slack.  Per-method failures become notes, not
    errors.  Every bound is closed-form or exact, so the report is
    deterministic.
    """
    _check_sandwich_n(n)
    K = LpNorm(p, n)
    L = LpNorm(q, n)
    lower: list[LowerBound] = []
    notes: list[str] = []

    if math.isinf(p) or math.isinf(q):
        other = L if math.isinf(p) else K
        lower.append(theorem2_general_lower(other, n))
        qc = _known_cotype(other)
        if qc is not None:
            lower.append(theorem2_cotype_lower(other, qc, n))
    lower += [prop4_lower(exponent, body, n) for exponent, body in ((p, L), (q, K))]
    a, b = min(p, q), max(p, q)
    if 1.0 <= a < 2.0 < b:
        raw = corollary1_lower(a, b, n)
        lower.append(LowerBound("cor1", max(1.0, raw), raw, None, True))

    known = known_distance(p, q, n)

    # Ext(K) or Ext(L) listed, else cubes past the cap whose factors may take the dual routes
    listed = [_extreme_points(s) is not None for s in (K, L, dual_norm_spec(K), dual_norm_spec(L))]
    bodies = (L, K) if listed[1] and not listed[0] else (K, L)
    best_upper: Optional[TransformBound] = None
    for tname, tmat in transforms if transforms is not None else default_transforms(n):
        if not any(listed):
            notes.append(f"upper({tname}): neither body has enumerable extreme points")
            continue
        try:
            cand = upper_bound_via_transform(*bodies, tmat, name=tname)
        except ValueError as exc:
            notes.append(f"upper({tname}): {exc}")
            continue
        if best_upper is None or cand.value < best_upper.value:
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
