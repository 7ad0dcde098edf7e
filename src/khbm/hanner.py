"""Sign-sum inequalities of Hanner type/cotype, and falsification search.

A norm has Hanner cotype (q, n) when for all x_1..x_n

    sum_{eps in {-1,1}^n} || sum eps_i x_i ||^q
        >= sum_{eps} | sum eps_i ||x_i|| |^q

and Hanner type (q, n) with the inequality reversed.  ``hanner_gap``
reports lhs - rhs for one tuple; ``falsify_hanner`` searches random
tuples for a violation of a claimed mode.  The three-vector inequality

    ||x|| + ||y|| + ||z|| + ||x+y+z|| >= ||x+y|| + ||y+z|| + ||z+x||

is checked by ``hlawka_check``; norms satisfying it have cotype (1, 3).

The lhs is 2^n I_q(x, Rademacher)^q and the rhs the same sum on the real
line over the norms ||x_i||, so ``hanner_gap`` evaluates both through the
exact kernel of ``functional``, one tuple each (meet-in-the-middle
tables, bounded blocks, the largest term factored out); the kernel's
checks apply, so q < 1 and 2^n terms over the budget are refused with
``ipf_exact``'s messages.  Both sides are invariant under negating all
signs, so enumeration fixes eps_1 = +1 and doubles the half sum, here and
in ``falsify_hanner``.  Each mirrored term is bitwise equal to its
partner (negation and absolute value are exact), so the doubling is
exact as well.  A side that leaves the double range has no usable gap,
so ``hanner_gap``, and ``falsify_hanner`` at such a trial before any
violation, raise ``ValueError`` naming q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tolerances as tol
from .functional import (
    VectorTuple,
    _as_rows,
    _check_dims,
    _check_floats,
    _edges,
    _enumerate_pth_power,
    _sign_matrix,
    default_budget,
)
from .norms import LpNorm, NormSpec, norm_eval_many

__all__ = ["HannerReport", "FalsificationResult", "HlawkaReport", "hanner_gap", "falsify_hanner", "hlawka_check"]

_MAX_N = 20
_ROWS = 1 << 14  # sign-sum rows per falsifier batch: its (rows, d) sums stay at a few hundred KB
_SIGNS, _HALVES = np.array([[-1.0, 1.0]]), np.array([[0.5, 0.5]])  # the Rademacher support, a stack of one
_ABS = LpNorm(1.0, 1)  # |t| on the real line


def _sign_sum(rows: np.ndarray, q: float, norm: NormSpec, budget: int) -> float:
    # sum over all 2^n sign vectors = 2^n I_q(rows, Rademacher)^q
    return _enumerate_pth_power(rows[None], _SIGNS, _HALVES, q, norm, budget)[0].pth_power * 2.0 ** rows.shape[0]


def _half_signs(n: int) -> np.ndarray:
    # all sign rows with the first coordinate fixed at +1
    rest = _sign_matrix(n - 1)
    return np.hstack([np.ones((rest.shape[0], 1)), rest])


@dataclass(frozen=True)
class HannerReport:
    q: float
    n: int
    lhs: float
    rhs: float
    gap: float
    verdict: str


def _verdict(gap: float, lhs: float, rhs: float, mode: Optional[str]) -> str:
    cushion = tol.slack(lhs, rhs)
    if mode is None:
        return "cotype-consistent" if gap >= 0.0 else "type-consistent"
    if mode == "cotype":
        return "violated-cotype" if gap < -cushion else "cotype-consistent"
    if mode == "type":
        return "violated-type" if gap > cushion else "type-consistent"
    raise ValueError(f"mode must be 'cotype', 'type' or None, got {mode!r}")


def hanner_gap(norm: NormSpec, vectors, q: float, mode: Optional[str] = None) -> HannerReport:
    """Exact sign-sum gap lhs - rhs for one vector tuple.

    Without ``mode`` the verdict only records which inequality the gap
    is consistent with; with a claimed mode it reports violations
    relative to the standard slack.  A side that leaves the double range
    is refused, since its gap would be inf or nan.
    """
    rows = _as_rows(vectors)
    n = rows.shape[0]
    if n > _MAX_N:
        raise ValueError(f"sign enumeration supports n <= {_MAX_N}, got {n}")
    _check_dims(rows, norm)
    budget = default_budget()
    lhs = _sign_sum(rows, q, norm, budget)
    rhs = _sign_sum(norm_eval_many(norm, rows)[:, None], q, _ABS, budget)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"the sign sums at q = {q} leave the double range")
    gap = lhs - rhs
    return HannerReport(q=q, n=n, lhs=lhs, rhs=rhs, gap=gap, verdict=_verdict(gap, lhs, rhs, mode))


@dataclass(frozen=True)
class FalsificationResult:
    witness: VectorTuple
    violation: float
    trial_index: int
    gap: float


def falsify_hanner(
    norm: NormSpec, q: float, n: int, d: int, mode: str, trials: int, seed: int
) -> Optional[FalsificationResult]:
    """Search gaussian tuples for a violation of the claimed mode.

    Returns the first violating tuple (normalized to unit Frobenius
    norm, with the relative violation magnitude) or None.  Deterministic
    in (seed, trials); trials are scanned in draw order, and a trial whose
    sign sums leave the double range before any violation is refused.
    """
    if mode not in ("cotype", "type"):
        raise ValueError(f"mode must be 'cotype' or 'type', got {mode!r}")
    if d != norm.dim:
        raise ValueError(f"d = {d} does not match norm dimension {norm.dim}")
    if not (2 <= n <= _MAX_N):
        raise ValueError(f"need 2 <= n <= {_MAX_N}, got {n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not q >= 1.0:
        raise ValueError(f"need q >= 1, got {q}")
    half = 1 << (n - 1)
    per = max(2, _ROWS // half)  # trials per batch, two at least: one trial takes the matrix-vector path
    edges = _edges(trials, per)
    # the sign table, and per sign row of the largest batch its vector sum and both sides' terms
    floats = half * n + min(trials, per + 1) * half * (d + 2)
    _check_floats(floats, default_budget(), "the sign table and largest batch")
    rng = np.random.default_rng(seed)
    signs = _half_signs(n)
    for start, stop in zip(edges, edges[1:]):
        # per-batch draws continue the one-shot (trials, n, d) stream bitwise
        b = stop - start
        batch = rng.standard_normal((b, n, d))
        sums = signs @ batch  # (b, 2^(n-1), d): one stacked product per batch
        with np.errstate(over="ignore", invalid="ignore"):  # a side that leaves the double range is refused below
            lhs = 2.0 * (norm_eval_many(norm, sums) ** q).sum(axis=1)
            vec_norms = norm_eval_many(norm, batch.reshape(-1, d)).reshape(b, n)
            rhs = 2.0 * (np.abs(vec_norms @ signs.T) ** q).sum(axis=1)
            gap = lhs - rhs
        cushion = np.maximum(tol.ABS_SLACK, tol.REL_SLACK * np.maximum(lhs, rhs))
        over = ~(np.isfinite(lhs) & np.isfinite(rhs))
        bad = (gap > cushion if mode == "type" else gap < -cushion) | over
        if np.any(bad):
            i = int(np.argmax(bad))
            if over[i]:
                raise ValueError(f"the sign sums at q = {q} leave the double range")
            scale = max(lhs[i], rhs[i])
            witness = batch[i] / np.linalg.norm(batch[i])
            return FalsificationResult(
                witness=VectorTuple(witness),
                violation=float(abs(gap[i]) / scale),
                trial_index=start + i,
                gap=float(gap[i]),
            )
    return None


@dataclass(frozen=True)
class HlawkaReport:
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    gap: float | np.ndarray
    holds: bool | np.ndarray


def hlawka_check(norm: NormSpec, x, y, z) -> HlawkaReport:
    """Three-vector inequality gap for one triple, or for each of a batch.

    x, y and z have shape (..., d) and broadcast together; for a batch
    every field is an array over the leading axes, and each triple gets
    the slack ``tol.geq`` would give it alone.
    """
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    n = norm_eval_many(norm, np.stack(np.broadcast_arrays(x, y, z, x + y + z, x + y, y + z, z + x)))
    lhs = n[0] + n[1] + n[2] + n[3]
    rhs = n[4] + n[5] + n[6]
    holds = lhs >= rhs - np.maximum(tol.ABS_SLACK, tol.REL_SLACK * np.maximum(lhs, rhs))
    if lhs.ndim == 0:
        return HlawkaReport(lhs=float(lhs), rhs=float(rhs), gap=float(lhs - rhs), holds=bool(holds))
    return HlawkaReport(lhs=lhs, rhs=rhs, gap=lhs - rhs, holds=holds)
