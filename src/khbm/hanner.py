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
exact as well.  The falsifier counts its half sign table as built in the
call (``norms._sign_floats``); past n = 14 it is freed with the call.  A
side that leaves the double range has no usable gap, so ``hanner_gap``,
and ``falsify_hanner`` at such a trial before any violation, raise
``ValueError`` naming q.

The falsifier's batches run on the lanes of ``functional._map`` when a
search forms at least ``functional._PARALLEL`` floats, counted as
trials * d * (n + 2^(n-1)): the draws and the half sign sums.  Smaller
searches, such as criterion 8's of 10^4 trials, stay on the calling
thread.  The batches draw from the one generator in batch order (a batch
waits until the one before it has drawn), so the draws are the one-shot
(trials, n, d) stream bitwise; and batch i starts only once batch
i - lanes is scanned, and no batch after a hit starts.  The results are
scanned in batch order, so the first violation or overflow is the one
a serial scan finds, whatever the lane count.  The budget holds the
sign table and one largest batch per lane.
"""

from __future__ import annotations

import math
import threading
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
    _lanes,
    _map,
    default_budget,
)
from .norms import LpNorm, NormSpec, _eval_floats, _sign_floats, _sign_matrix, norm_eval_many

__all__ = ["HannerReport", "FalsificationResult", "HlawkaReport", "hanner_gap", "falsify_hanner", "hlawka_check"]

_MAX_N = 20
_ROWS = 1 << 14  # sign-sum rows per falsifier batch: its (rows, d) sums stay at a few hundred KB
_SIGNS, _HALVES = np.array([[-1.0, 1.0]]), np.array([[0.5, 0.5]])  # the Rademacher support, a stack of one
_ABS = LpNorm(1.0, 1)  # |t| on the real line


def _sign_sum(rows: np.ndarray, q: float, norm: NormSpec, budget: int) -> float:
    # sum over all 2^n sign vectors = 2^n I_q(rows, Rademacher)^q
    return _enumerate_pth_power(rows[None], _SIGNS, _HALVES, q, norm, budget)[0].pth_power * 2.0 ** rows.shape[0]


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


def _scan(signs: np.ndarray, draws: np.ndarray, norm: NormSpec, q: float, mode: str, start: int) -> Optional[tuple]:
    """The first trial of a batch that violates ``mode`` or leaves the double range, or None.

    Returned as (trial index, whether it overflowed, gap, larger side, its draw).
    """
    b, n, d = draws.shape
    sums = signs @ draws  # (b, 2^(n-1), d): one stacked product per batch
    with np.errstate(over="ignore", invalid="ignore"):  # a side that leaves the double range is refused
        lhs = 2.0 * (norm_eval_many(norm, sums) ** q).sum(axis=1)
        vec_norms = norm_eval_many(norm, draws.reshape(-1, d)).reshape(b, n)
        rhs = 2.0 * (np.abs(vec_norms @ signs.T) ** q).sum(axis=1)
        gap = lhs - rhs
    cushion = np.maximum(tol.ABS_SLACK, tol.REL_SLACK * np.maximum(lhs, rhs))
    over = ~(np.isfinite(lhs) & np.isfinite(rhs))
    bad = (gap > cushion if mode == "type" else gap < -cushion) | over
    if not np.any(bad):
        return None
    i = int(np.argmax(bad))
    return start + i, bool(over[i]), float(gap[i]), float(max(lhs[i], rhs[i])), draws[i]


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
    batches = list(enumerate(zip(edges, edges[1:])))
    # the half sign table as built in this call; per batch in flight its draws, sums, norm temporaries and
    # powered side, the largest batch's
    budget, most = default_budget(), min(trials, per + 1)
    table = _sign_floats(n, True)
    batch_floats = most * n * d + most * half * (d + 1) + _eval_floats(norm, most * half)
    _check_floats(table + batch_floats, budget, "the sign table and largest batch")
    lanes = _lanes(len(batches), trials * d * (n + half), batch_floats, budget - table)
    rng = np.random.default_rng(seed)
    signs = _sign_matrix(n, half=True)  # eps_1 = +1
    # batches draw in batch order, so the draws are the one-shot (trials, n, d) stream; batch i starts once
    # batch i - lanes has been scanned, and no batch after a hit starts
    turn = threading.Condition()
    drawn, scanned, first_hit = [0], [False] * len(batches), [len(batches)]

    def search(batch: tuple[int, tuple[int, int]]) -> Optional[tuple]:
        i, (start, stop) = batch
        found = None
        try:
            with turn:
                turn.wait_for(lambda: first_hit[0] < i or (drawn[0] == i and (i < lanes or scanned[i - lanes])))
                if first_hit[0] < i:
                    return None
                draws = rng.standard_normal((stop - start, n, d))
                drawn[0] = i + 1
                turn.notify_all()
            found = _scan(signs, draws, norm, q, mode, start)
        finally:
            with turn:  # also after an error, so no lane waits on this batch for ever
                drawn[0], scanned[i] = max(drawn[0], i + 1), True
                if found is not None:
                    first_hit[0] = min(first_hit[0], i)
                turn.notify_all()
        return found

    # the first hit in batch order wins, as in one serial scan of the trials
    hit = next((found for found in _map(search, batches, lanes) if found is not None), None)
    if hit is None:
        return None
    index, over, gap, scale, draw = hit
    if over:
        raise ValueError(f"the sign sums at q = {q} leave the double range")
    return FalsificationResult(
        witness=VectorTuple(draw / np.linalg.norm(draw)),
        violation=abs(gap) / scale,
        trial_index=index,
        gap=gap,
    )


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
