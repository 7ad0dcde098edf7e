"""The moment functional I_p(v, f) and its verification checks.

For vectors v = (v_1, ..., v_n) in a normed space and an odd step law f,

    I_p(v, f)^p = E || sum_i c_i v_i ||^p,

where the c_i are i.i.d. draws from the law of f.  Three computation
routes are provided:

* ``ipf_exact`` -- exact enumeration of the (2m+1)^n weighted support
  assignments (zero-probability branches pruned) by a meet-in-the-middle
  kernel: the partial sums and weights of the first half of the
  coordinates and of the rest are tabulated once, and every assignment is
  one entry of their broadcast outer sum.  The law is symmetric, so the
  first coordinate runs over 0 and the positive levels only and a term
  with a nonzero first value counts twice (Horowitz & Sahni, J. ACM 21,
  1974);
* ``ipf_two_valued_exact`` -- independent subset/sign expansion for
  two-valued laws {(1, t)}:
      I_p^p = sum_{k=1}^n t^k (1-2t)^(n-k)
                  sum_{|S|=k} sum_{eps in {-1,1}^k} ||sum eps_j v_j||^p
* ``ipf_monte_carlo`` -- seeded sampling from one PCG64 stream,
  reporting the standard error of the p-th power mean.

The kernel's unit of work is one row of the first table against the
whole second table.  Units are grouped into blocks of at most ``_CHUNK``
terms (a larger unit is a block of its own), so temporaries stay at a
few MB; each unit keeps its largest norm M_i and
sum_j w_j (||s_j||/M_i)^p, and the pairs are rescaled to the overall
largest norm and combined with ``math.fsum``.  Results therefore do not
depend on the block size, and no norm is raised to the power p before
it is scaled, so large p cannot overflow (see ``IpResult``).  The half
tables' partial sums are held as coordinate planes (B, d, rows), one
transposed copy of each product, and a block is their broadcast sum
(B, d, units, unit_len), handed to the norm as a (B, units, unit_len, d)
view: the add runs along the table rows rather than along d, and every
column the norm's loop reads is a contiguous plane.  The adds and the
norm's column order are those of a row layout, so no bit depends on the
layout (``test_exact_planes_bitwise_equal_row_layout``).

The kernel, ``_enumerate_pth_power``, is the one door to exact
enumeration: it checks p >= 1 and the k^n terms against the budget,
counts the half tables and the largest block with the norm's temporaries
on it (``norms._eval_floats``), in float64 values, against the same
budget, and returns one ``IpResult`` per tuple.  It takes B
tuples (B, n, d) with one support (B, k) per tuple.  ``ipf_exact`` and
``hanner.hanner_gap``, whose sign sums are the Rademacher case, pass
one-tuple views (``rows[None]``, ``values[None]``); ``_ipf_exact_many``
passes the cases of one n, support size and p, which is how the
acceptance suites that make thousands of tiny calls evaluate them.  A
block is either a unit range of one tuple, as above, or, when a tuple
fits in one block, as many whole tuples as ``_CHUNK`` terms and the
budget hold; a stack shrinks its blocks to one tuple before refusing, so
the budget a stack needs is that of one of its tuples.  Each tuple is
still folded from its own units, so the stack is bitwise one call per
tuple.  Two things stay as they are for that: p is one scalar per stack,
since numpy's ``power`` takes a square or square-root path for a scalar
2 or 1/2 that an array of exponents does not; and ``_fold`` stays in
Python ``**`` and ``math.fsum``, since numpy's ``power`` and Python's
float ``**`` differ in the last bit on about 5% of inputs.

The two-valued route cuts the subsets of each size k into chunks of
``_CHUNK // 2^(k-1)`` consecutive colex ranks, unranked in the chunk's
own work by the combinatorial number system.  A chunk is one product of
the half sign table (the 2^(k-1) rows with entry 0 at +1) with the
chunk's gathered rows, (k, subsets * d), so each subset's half sums come
from one matrix product; the norm, the maximum, the divide and the p-th
power run on the half alone, since the other half are the negations.
Each subset's powered terms are then laid out in the full table's order
in a fresh C-ordered (subsets, 2^k) array and summed by rows, so each
subset still yields the pair that its own full product would, bitwise on
BLAS builds whose product rows do not depend on the number of columns
(d >= 2; at d = 1 a subset alone takes the matrix-vector path).  Its
half tables, held for the call and taken as built in it
(``norms._sign_floats``), and its largest chunk (subsets, gathered rows,
product, norms and their temporaries, the rebuilt array) are counted the
same way.

Monte Carlo cuts the n rows into q consecutive coordinate groups of g
rows, g the largest whose k^g joint outcomes number at most
``_MC_OUTCOMES`` (4,096) and the samples (g = n for k = 1), and draws
one uniform per group of each sample, q a sample, sample-major from one
PCG64 stream.  Per group size (at most two: g, and the rest) it
tabulates the outcomes of ``_law_support``'s values (the first row
varying slowest), the normalized cdf of their product masses, and a
guide table (``_guide``; Chen & Asau, AIIE Trans. 6, 1974; Devroye 1986,
III.2.4) of a power of two of at least 16 buckets per outcome and
``_MC_TABLE``: a bucket that no cdf point falls inside maps every uniform
in it to one outcome, and only uniforms in the buckets holding a cdf
point are searched, so each uniform becomes the outcome at
``searchsorted(cdf, u, side="right")``, as ``Generator.choice`` maps it.
Each group's partial sums over its outcomes are one matrix product, held
as d planes.  A block of samples looks up each group's planes at its
outcomes and adds them in group order into d sum planes, which the norm
reads as (samples, d).  These tables are built here, with no code shared
with the exact kernel's ``_half_table``: the sampled route stays an
independent check of the exact one.  The output is then bitwise that of
one draw of every group uniform at once
(``test_monte_carlo_blocks_bitwise_equal_one_draw``), and its law is the
product law of the draws.  The norms are stored in one sample-sized
array; the scaling, the p-th power and the sums of the mean and of the
squared deviations then run in place over ranges of ``_MC_SUMS``
samples, and ``math.fsum`` adds the ranges' sums.  That array, the group
tables and what building them holds, and per block in flight its
uniforms, buckets, outcomes, sum planes, lookups and the norm's
temporaries (``norms._eval_floats``), are counted against the budget
before the first draw.  ``test_*_memory_stays_within_its_count`` check
each route's count against the traced peak.

The blocks of these three routes are independent, and a call of at
least ``_PARALLEL`` (2^20) terms (for Monte Carlo, the uniforms and the
d lookups of each, samples * q * (d + 1)) runs them on up to
``_WORKERS`` threads, one per available core, at most ``_MAX_WORKERS``:
the calling thread and a pool that the call opens and shuts down, so no
thread outlives the call.  numpy releases the interpreter lock inside its
loops and BLAS calls, so the blocks overlap.  Smaller calls, such as
every call of the acceptance criteria and ``bm`` reports, start no
thread.  The bits cannot depend on the worker count: block edges
depend on the input alone; each exact block's pairs go through ``_fold``,
whose maximum and exactly rounded ``math.fsum`` ignore their order;
Monte Carlo's blocks are a stream that ``_map`` takes one at a time and
in order, and each block's uniforms are drawn from the one generator as
it is taken, so they are those of one loop over the blocks; and the
moments' ranges are fixed, their sums added by ``math.fsum``.  A block
makes its own temporaries and writes only its slice of the stored norms,
and results are gathered by block.  A lane lets go of its block before it
takes the next, so no more blocks are alive than there are lanes, and no
more lanes run than the budget holds copies of the counted block; a call
the budget refuses is refused before any thread starts.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import tolerances as tol
from .distributions import (
    SymmetricAtoms,
    envelope_upper,
    superlevel_reduction,
    theorem1_lower_constant,
    theorem1_upper_constant,
)
from .norms import LpNorm, NormSpec, _eval_floats, _sign_floats, _sign_matrix, norm_eval_many

__all__ = [
    "VectorTuple",
    "IpResult",
    "BoundCheck",
    "EnumerationBudgetError",
    "default_budget",
    "ipf_exact",
    "ipf_two_valued_exact",
    "ipf_monte_carlo",
    "verify_theorem1",
    "check_value_norm_axioms",
    "check_argument_norm_axioms",
    "check_level_monotonicity",
    "check_barycenter_reduction",
    "NormAxiomReport",
    "ArgumentAxiomReport",
    "MonotonicityReport",
    "BarycenterReport",
]

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 15  # terms per block: each (block, d) temporary stays at a few MB
_MC_BLOCK = 1 << 15  # uniforms per Monte Carlo block, of 2^14 samples at most: a block's arrays stay near 1.5 MB
_MC_OUTCOMES = 1 << 12  # joint outcomes a Monte Carlo coordinate group tabulates at most
_MC_TABLE = 1 << 12  # guide-table buckets at least: a power of two, so u * B is exact
_MC_SUMS = 1 << 16  # samples a sum of the mean or the deviations covers; fsum adds them, whatever the lanes
_TINY = math.ulp(0.0)  # the least positive double
_PARALLEL = 1 << 20  # terms from which a call's blocks run on the pool; below it a pool costs more than it saves
_MAX_WORKERS = 4
_WORKERS = min(_MAX_WORKERS, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


class EnumerationBudgetError(ValueError):
    """Raised when an exact enumeration would exceed the term budget."""


def default_budget() -> int:
    """Term budget: KHBM_BUDGET environment override or 10^8."""
    raw = os.environ.get("KHBM_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"KHBM_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"KHBM_BUDGET must be positive, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class VectorTuple:
    """Tuple of n vectors in R^d, stored as the rows of an (n, d) array."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError(f"rows must be a nonempty (n, d) array, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise ValueError("vector entries must be finite")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @property
    def d(self) -> int:
        return int(self.rows.shape[1])


def _as_rows(v) -> np.ndarray:
    if isinstance(v, VectorTuple):
        return v.rows
    return VectorTuple(np.asarray(v, dtype=float)).rows


@dataclass(frozen=True)
class IpResult:
    """I_p(v, f), its p-th power, and how it was obtained.

    The largest norm M is factored out before raising to the power p:
    ``value`` = M (sum w (||s||/M)^p)^(1/p) is finite for every p, and
    ``pth_power`` = M^p sum w (||s||/M)^p overflows to inf only when M^p
    itself exceeds the double range.  ``stderr`` (Monte Carlo only) is the
    standard error of ``pth_power``, scaled the same way.
    ``terms_evaluated`` counts the support assignments (or samples) covered.
    """

    value: float
    pth_power: float
    method: str
    stderr: Optional[float]
    terms_evaluated: int


@lru_cache(maxsize=256)
def _sorted_support(f: SymmetricAtoms) -> tuple[np.ndarray, np.ndarray]:
    # the support in ascending order (levels decrease), so each value sits
    # at index i and its negation at k-1-i, as the kernel's sign fold needs
    levels, masses = [a for a, _ in f.atoms], [t for _, t in f.atoms]
    w0 = f.zero_mass
    zero = [w0 if f.atoms else 1.0] if w0 > 0.0 or not f.atoms else []
    values = np.array([-a for a in levels] + [0.0] * len(zero) + levels[::-1])
    weights = np.array(masses + zero + masses[::-1])
    values.flags.writeable = False  # cached and shared by every caller
    weights.flags.writeable = False
    return values, weights


def _law_support(f: SymmetricAtoms) -> tuple[np.ndarray, np.ndarray]:
    # Monte Carlo's draw order: 0 (when it has mass), a_1, -a_1, a_2, -a_2, ...
    values, weights = _sorted_support(f)
    k = len(values)
    order = [k // 2] * (k % 2) + [i for j in range(k // 2) for i in (k - 1 - j, j)]
    return values[order], weights[order]


def _check_dims(rows: np.ndarray, norm: NormSpec):
    if rows.shape[1] != norm.dim:
        raise ValueError(f"vectors have dim {rows.shape[1]}, norm expects {norm.dim}")


def _block_rows(units: int, unit_len: int) -> int:
    # whole units per block, so per-unit totals never depend on _CHUNK
    return min(units, max(1, _CHUNK // max(unit_len, 1)))


def _check_floats(floats: int, budget: int, what: str) -> None:
    # memory is counted in float64 values against the same budget as terms
    if floats > budget:
        raise EnumerationBudgetError(f"{what} need {floats} floats, exceeding budget {budget}")


def _edges(total: int, step: int) -> list[int]:
    # block edges every step rows; a one-row tail joins the block before it,
    # since a one-row product takes BLAS's matrix-vector path, which can round differently
    edges = list(range(0, total, step)) + [total]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return edges


def _lanes(blocks: int, terms: int, floats: int, budget: int) -> int:
    """How many blocks of a call run at once.

    One below the ``_PARALLEL`` gate; above it one per worker, but no more
    than there are blocks, nor than the budget holds copies of ``floats``,
    the call's count for one block in flight.  A call the budget refuses
    is refused before this, whatever the worker count.
    """
    if blocks < 2 or terms < _PARALLEL:
        return 1
    return max(1, min(_WORKERS, blocks, budget // floats))


def _map(fn: Callable, blocks: Iterable, lanes: int) -> list:
    """``[fn(b) for b in blocks]``, by ``lanes`` threads taking blocks in turn.

    The lanes take the blocks one at a time and in order, under one lock,
    so a lazy stream is consumed as one loop would consume it; a lane lets
    go of its block before it takes the next, so at most ``lanes`` blocks
    are alive, the one being made included.  The calling thread is one
    lane, and the threads of a pool opened for this call are the others;
    the pool is shut down, its threads joined, before the call returns.
    Results are gathered by block index.  Every lane ends before an error
    from any of them, or from the stream, is raised.
    """
    if lanes < 2:
        return list(map(fn, blocks))  # map lets go of each block before it takes the next
    from concurrent.futures import ThreadPoolExecutor  # imported here: calls below _PARALLEL never load it

    # a count, not enumerate: enumerate's reused result tuple keeps the last block alive while the next is made
    out, todo, index, lock = {}, iter(blocks), itertools.count(), threading.Lock()

    def lane() -> None:
        while True:
            with lock:
                block, i = next(todo, out), next(index)
            if block is out:  # the stream is spent
                return
            out[i] = fn(block)
            del block  # before the stream makes the next one

    with ThreadPoolExecutor(lanes - 1, thread_name_prefix="khbm") as pool:
        futures = [pool.submit(lane) for _ in range(lanes - 1)]
        lane()
    for error in [f.exception() for f in futures]:
        if error is not None:
            raise error
    return [out[i] for i in range(len(out))]


@lru_cache(maxsize=64)
def _half_table(k: int, m: int, folded: bool) -> tuple[np.ndarray, np.ndarray]:
    """Support indices of every assignment to m coordinates, and its multiplicity.

    The support is ascending, so index i and k-1-i are negations; the
    first coordinate varies slowest.  ``folded`` restricts the first
    coordinate to 0 and the positive levels (indices >= k // 2); such a
    row stands for itself and its negation, multiplicity 2, unless its
    first value is 0.  Cached and read-only.
    """
    lo = k // 2 if folded else 0
    digits = np.indices((k - lo,) + (k,) * (m - 1)).reshape(m, -1).T.copy() if m else np.zeros((1, 0), np.intp)
    mult = np.ones(len(digits))
    if folded:
        digits[:, 0] += lo
        mult[(digits[:, 0] != lo) | (k % 2 == 0)] = 2.0
    digits.flags.writeable = False  # cached and shared by every caller
    mult.flags.writeable = False
    return digits, mult


def _scaled_powers(x: np.ndarray, w: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    # per row: the largest entry M and sum_j w_j (x_j / M)^p, with 0 for a zero row
    top = x.max(axis=-1, keepdims=True, initial=_TINY)  # a zero row gives 0 / _TINY = 0
    t = x / top
    np.power(t, p, out=t)
    t *= w
    return top[..., 0], t.sum(axis=-1)


def _fold(tops: list[float], sums: list[float], p: float) -> tuple[float, float]:
    """Combine per-unit pairs (M_i, S_i) into (M, S) with M^p S = sum_i M_i^p S_i.

    Each S_i is rescaled to the largest M_i before an exact ``math.fsum``,
    so no M_i^p is formed and the result does not depend on how units were
    grouped into blocks.
    """
    peak = max(tops, default=0.0)
    if peak == 0.0:
        return 0.0, 0.0
    return peak, math.fsum(s * (t / peak) ** p for t, s in zip(tops, sums))


def _fold_blocks(blocks: list[tuple[list, list]], p: float) -> tuple[float, float]:
    # the per-unit pairs of every block, folded at once
    return _fold([t for tops, _ in blocks for t in tops], [s for _, sums in blocks for s in sums], p)


def _pth_and_value(peak: float, scaled: float, p: float) -> tuple[float, float]:
    # M^p S overflows only when M^p itself does; M S^(1/p) never does
    if peak == 0.0 or scaled == 0.0:
        return 0.0, 0.0
    if peak == math.inf:  # a vector sum itself left the double range
        return math.inf, math.inf
    try:
        pth = peak**p * scaled
    except OverflowError:
        pth = math.inf
    return pth, peak * scaled ** (1.0 / p)


def _enumerate_pth_power(
    rows: np.ndarray, values: np.ndarray, weights: np.ndarray, p: float, norm: NormSpec, budget: int
) -> list[IpResult]:
    """Exact I_p for each of a stack of tuples, by meet-in-the-middle sums of w ||sum c_i v_i||^p.

    ``rows`` is a (B, n, d) stack of tuples and ``values`` and ``weights``
    one ascending support (B, k) per tuple; ``p`` is one scalar.  p >= 1
    and k^n terms within ``budget`` are checked here, before anything is
    allocated.  For each tuple the sum = M^p S is kept as M, its largest
    norm, and S.  The first h coordinates and the rest are enumerated once
    each as half tables of partial sums and weights; a unit is one row of
    the first table against the whole second table, evaluated by a
    broadcast outer sum.  The law is symmetric, so the first coordinate
    runs over {0} and the positive levels only and a nonzero first value
    counts twice (c and -c have equal weights and norms).  A block is
    either a unit range of one tuple or, when a tuple fits in one, as many
    whole tuples as ``_CHUNK`` and the budget hold.
    """
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    count, n, d = rows.shape
    k = values.shape[1]
    if k**n > budget:
        raise EnumerationBudgetError(
            f"{k}^{n} = {k**n} weighted terms exceed budget {budget}; use ipf_monte_carlo instead"
        )
    h = max(1, n // 2)
    units, unit_len = (k - k // 2) * k ** (h - 1), k ** (n - h)
    step = _block_rows(units, unit_len)
    # one tuple's half tables (sums, weights), its largest block's sums, norm temporaries and _scaled_powers copy
    floats = (units + unit_len + step * unit_len) * (d + 1) + _eval_floats(norm, step * unit_len)
    _check_floats(floats, budget, "the half tables and the largest block")
    per = 1 if step < units else min(count, max(1, _CHUNK // (units * unit_len)), budget // floats)
    digits_a, mult = _half_table(k, h, True)
    digits_b, _ = _half_table(k, n - h, False)

    def block(tables: tuple, i: int) -> tuple[list, list]:
        # the block's sums as coordinate planes (B, d, step, unit_len), read by the norm as (B, step, unit_len, d)
        planes_a, planes_b, w_a, w_b = tables
        planes = planes_a[:, :, i : i + step, None] + planes_b[:, :, None]
        top, scaled = _scaled_powers(norm_eval_many(norm, planes.transpose(0, 2, 3, 1)), w_b, p)
        return top.tolist(), (w_a[..., i : i + step] * scaled).tolist()

    out = []
    for a in range(0, count, per):
        b = min(a + per, count)
        vals, wts = values[a:b], weights[a:b]
        # take keeps a gathered stack C-contiguous: numpy multiplies a strided one without BLAS, rounding differently.
        # Each half table's sums are then held as coordinate planes (B, d, rows), so a block's add runs along rows,
        # not along d, and every column the norm reads is contiguous
        planes_a = (vals.take(digits_a, -1) @ rows[a:b, :h]).transpose(0, 2, 1).copy()
        planes_b = (vals.take(digits_b, -1) @ rows[a:b, h:]).transpose(0, 2, 1).copy()
        w_a = wts.take(digits_a, -1).prod(axis=-1) * mult
        w_b = wts.take(digits_b, -1).prod(axis=-1)[..., None, :]
        starts = range(0, units, step)
        parts = _map(partial(block, (planes_a, planes_b, w_a, w_b)), starts, _lanes(len(starts), k**n, floats, budget))
        for j in range(b - a):
            pth, value = _pth_and_value(*_fold_blocks([(tops[j], sums[j]) for tops, sums in parts], p), p)
            out.append(IpResult(value=value, pth_power=pth, method="exact", stderr=None, terms_evaluated=k**n))
    return out


def ipf_exact(v, f: SymmetricAtoms, p: float, norm: NormSpec) -> IpResult:
    """I_p(v, f) by exhaustive weighted enumeration of the law's support."""
    rows = _as_rows(v)
    _check_dims(rows, norm)
    values, weights = _sorted_support(f)
    return _enumerate_pth_power(rows[None], values[None], weights[None], p, norm, default_budget())[0]


def _ipf_exact_many(cases: Sequence[tuple[np.ndarray, SymmetricAtoms, float]], norm: NormSpec) -> list[IpResult]:
    """``[ipf_exact(v, f, p, norm) for v, f, p in cases]``, bitwise, by stacks of one shape.

    Each v is a finite (n, d) array with d the norm's dimension, as
    ``_as_rows`` and ``_check_dims`` ensure for ``ipf_exact``.  The cases
    of one n, support size and p form one stack of the kernel, each with
    its own law.  Stacks run in the order of their first case:
    a refusal depends on the shape alone, so it is the one that the first
    refused case would raise in a loop of ``ipf_exact`` calls.
    """
    budget = default_budget()
    supports = [_sorted_support(f) for _, f, _ in cases]
    stacks: dict[tuple, list[int]] = {}
    for i, ((v, _, p), (values, _)) in enumerate(zip(cases, supports)):
        stacks.setdefault((len(v), len(values), p), []).append(i)
    out = [None] * len(cases)
    for (_, _, p), idx in stacks.items():
        values, weights = (np.stack([supports[i][j] for i in idx]) for j in (0, 1))
        results = _enumerate_pth_power(np.stack([cases[i][0] for i in idx]), values, weights, p, norm, budget)
        for i, res in zip(idx, results):
            out[i] = res
    return out


@lru_cache(maxsize=256)
def _binomials(n: int, i: int) -> np.ndarray:
    table = np.array([math.comb(c, i) for c in range(n)], dtype=np.int64)
    table.flags.writeable = False  # cached and shared by every caller
    return table


def _subsets(n: int, k: int, lo: int, hi: int) -> np.ndarray:
    """The k-subsets of range(n) of colex ranks lo, ..., hi - 1, one ascending row each.

    The subset c_1 < ... < c_k has rank sum_i C(c_i, i), so c_k is the
    largest c with C(c, k) <= rank, and so on down (the combinatorial
    number system; Knuth, TAOCP 4A, 7.2.1.3).
    """
    rank = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, k), dtype=np.intp)
    for i in range(k, 0, -1):
        table = _binomials(n, i)
        out[:, i - 1] = c = table.searchsorted(rank, side="right") - 1
        rank -= table[c]
    return out


def ipf_two_valued_exact(v, t: float, p: float, norm: NormSpec) -> IpResult:
    """I_p for the two-valued law {(1, t)} via the subset/sign expansion.

    This is an independent route from ``ipf_exact``: it groups
    assignments by the set S of coordinates with a nonzero draw.  The
    k = 0 term vanishes.  The convention 0^0 = 1 makes t = 1/2 reduce
    to the pure sign sum over all n coordinates.
    """
    if not (0.0 < t <= 0.5):
        raise ValueError(f"need one-sided mass 0 < t <= 1/2, got {t}")
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    rows = _as_rows(v)
    _check_dims(rows, norm)
    budget = default_budget()
    n = rows.shape[0]
    w0 = 1.0 - 2.0 * t
    bound = 3**n if w0 > 0.0 else 2**n
    if bound > budget:
        raise EnumerationBudgetError(
            f"subset expansion needs up to {bound} terms, exceeding budget {budget}; "
            "use ipf_monte_carlo instead"
        )
    d = rows.shape[1]
    chunks, most = [], 0  # (k, coefficient, first rank, end rank) over every k; the largest chunk's floats
    for k in range(1, n + 1):
        coef = t**k * w0 ** (n - k)
        if coef != 0.0:
            count, step = math.comb(n, k), max(1, _CHUNK >> (k - 1))
            chunks += [(k, coef, lo, min(lo + step, count)) for lo in range(0, count, step)]
            # its subsets and gathered rows, the half product, its norms and their temporaries, the rebuilt rows
            m = min(step, count)
            most = max(most, m * k * (d + 1) + (m << (k - 1)) * (d + 3) + _eval_floats(norm, m << (k - 1)))
    ks = {c[0] for c in chunks}
    floats = sum(_sign_floats(k, True) for k in ks) + most  # the half tables as built in this call
    _check_floats(floats, budget, "the sign tables and their vector sums")
    signs = {k: _sign_matrix(k, half=True) for k in ks}  # one table per size for the whole call, freed with it

    def chunk(unit: tuple[int, float, int, int]) -> tuple[list, list]:
        # the half rows (entry 0 at +1) of every subset of the chunk in one product, (2^(k-1), subsets, d);
        # row 2j + 1 of a subset's full table is half row j, and row 2j the negation of half row 2^(k-1) - 1 - j
        k, coef, lo, hi = unit
        m = hi - lo
        half = norm_eval_many(norm, (signs[k] @ rows[_subsets(n, k, lo, hi).T].reshape(k, m * d)).reshape(-1, m, d))
        top = half.max(axis=0)
        half /= np.maximum(top, _TINY)
        half **= p
        full = np.empty((m, 1 << k))  # C-ordered, so each subset's sum adds in the full table's order
        full[:, 1::2] = half.T
        full[:, 0::2] = half[::-1].T
        return top.tolist(), (coef * full.sum(axis=1)).tolist()

    terms = sum((hi - lo) << k for k, _, lo, hi in chunks)
    pth, value = _pth_and_value(*_fold_blocks(_map(chunk, chunks, _lanes(len(chunks), terms, floats, budget)), p), p)
    return IpResult(value=value, pth_power=pth, method="exact", stderr=None, terms_evaluated=terms)


def _buckets(points: int) -> int:
    # a guide table's size: a power of two of at least 16 buckets a cdf point and _MC_TABLE
    return 1 << (max(_MC_TABLE, 16 * points) - 1).bit_length()


def _guide(cdf: np.ndarray) -> tuple:
    """A guide table for ``searchsorted(cdf, u, side="right")`` on [0, 1) (Chen & Asau 1974).

    Returned as (cdf, B, first, split).  B buckets, a power of two of at
    least 16 per cdf point and ``_MC_TABLE``, so floor(u * B) is exact.
    ``first[b]`` is #{cdf <= b / B}, which is the index of every uniform
    in bucket b unless some cdf point falls inside (b / B, (b + 1) / B);
    ``split`` marks those buckets, at most len(cdf) - 1, whose uniforms are
    searched, and is None when there are none (every cdf point on a bucket
    edge, as for dyadic masses).  Both counts are cumulative ``bincount``s
    of ceil and floor of cdf * B, which is exact: O(B + len(cdf)).
    """
    B = _buckets(len(cdf))
    scaled = cdf * B
    first = np.bincount(np.ceil(scaled).astype(np.intp), minlength=B + 1)[:B]
    below = np.bincount(scaled.astype(np.intp), minlength=B + 1)[:B]  # #{cdf < (b + 1) / B}, once summed
    np.cumsum(first, out=first)
    np.cumsum(below, out=below)
    split = first != below
    return cdf, B, first, split if split.any() else None


def _draw_outcomes(u: np.ndarray, guide: tuple, bucket: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``index[:] = searchsorted(cdf, u, side="right")`` for uniforms u in [0, 1), by ``_guide``'s table.

    That is ``Generator.choice``'s map.  ``bucket`` and ``index`` are intp
    buffers of u's length.
    """
    cdf, B, first, split = guide
    np.multiply(u, B, out=bucket, casting="unsafe")  # u * B is exact, so this is floor(u * B)
    np.take(first, bucket, out=index, mode="clip")
    if split is not None:
        far = np.flatnonzero(split[bucket])
        index[far] = cdf.searchsorted(u[far], side="right")
    return index


def _scaled_moments(x: np.ndarray, p: float, lanes: int) -> tuple[float, float, float]:
    """The largest entry M of x, then the mean and ``std(ddof=1)`` of (x / M)^p, overwriting x.

    x is cut into ranges of ``_MC_SUMS``, which run on ``lanes``: each is
    scaled and raised in place, and summed by numpy's pairwise
    ``np.add.reduce``; the deviations from the mean are then squared in
    place and summed the same way.  ``math.fsum`` adds the ranges' sums,
    so the bits depend on x alone, and up to ``_MC_SUMS`` entries they are
    those of numpy's ``mean`` and ``std``, without their sample-sized
    temporaries.  ``**=`` keeps numpy's scalar-power path (a square for
    p = 2) that ``(x / M) ** p`` takes.  A zero x (M = 0) is not scaled.
    """
    peak = float(x.max())
    parts = [x[lo : lo + _MC_SUMS] for lo in range(0, x.size, _MC_SUMS)]
    lanes = min(lanes, len(parts))

    def powers(part: np.ndarray) -> float:
        if peak > 0.0:
            part /= peak
            part **= p
        return float(np.add.reduce(part))

    mean = math.fsum(_map(powers, parts, lanes)) / x.size

    def squares(part: np.ndarray) -> float:
        part -= mean
        part *= part
        return float(np.add.reduce(part))

    return peak, mean, math.sqrt(math.fsum(_map(squares, parts, lanes)) / (x.size - 1))


def ipf_monte_carlo(v, f: SymmetricAtoms, p: float, norm: NormSpec, samples: int, seed: int) -> IpResult:
    """Monte Carlo I_p from one PCG64 stream, one uniform per coordinate group of each sample.

    ``stderr`` is the standard error of the p-th power mean, not of the
    root; the result is fully determined by (seed, samples).
    """
    if samples < 2:
        raise ValueError(f"need samples >= 2 for a standard error, got {samples}")
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    rows = _as_rows(v)
    _check_dims(rows, norm)
    values, weights = _law_support(f)
    (n, d), k = rows.shape, len(values)
    # g rows a group: the most whose k^g joint outcomes number at most _MC_OUTCOMES and the samples
    g = 1
    while g < n and k ** (g + 1) <= min(_MC_OUTCOMES, samples):
        g += 1
    q = -(-n // g)
    sizes = {g, n - (q - 1) * g}
    step = max(1, min(samples, _MC_BLOCK // max(q, 2)))
    # the stored samples and the group tables (each group's sum planes; per group size its cdf and guide,
    # and what building them holds); per block in flight its uniforms, buckets, outcomes, sum planes and one
    # plane of lookups, the split buckets' search, the norm's temporaries and result
    budget = default_budget()
    held = samples + q * d * k**g + sum(k**m * (3 * m + d + 4) + 3 * _buckets(k**m) for m in sizes)
    lane_floats = step * (q + d + 6) + _eval_floats(norm, step)
    _check_floats(held + lane_floats, budget, "the Monte Carlo samples and largest block")
    lanes = _lanes(-(-samples // step), samples * q * (d + 1), lane_floats, budget - held)
    guides = {}
    for m in sizes:
        # the k^m joint outcomes of m rows, the first row varying slowest, and their normalized cdf
        digits = np.indices((k,) * m).reshape(m, -1).T.copy()  # C-ordered: a product rounds by its operands' layout
        cdf = weights[digits].prod(axis=1).cumsum()
        cdf /= cdf[-1]
        guides[m] = values[digits], _guide(cdf)
    groups = []
    for lo in range(0, n, g):
        outcomes, guide = guides[min(g, n - lo)]
        groups.append(((outcomes @ rows[lo : lo + g]).T.copy(), guide))  # the group's partial sums, d planes
    norms = np.empty(samples)
    gen = np.random.Generator(np.random.PCG64(seed))

    def stream():
        # the blocks' uniforms, drawn in block order as the lanes take them: q a sample, sample-major
        for lo in range(0, samples, step):
            hi = min(lo + step, samples)
            yield lo, hi, gen.random((hi - lo, q))

    def draw_block(block: tuple[int, int, np.ndarray]) -> None:
        lo, hi, u = block
        acc, bucket, index = np.empty((d, hi - lo)), np.empty(hi - lo, np.intp), np.empty(hi - lo, np.intp)
        look = bucket.view(np.float64)  # a group's looked-up sums, once its buckets are read
        for j, (planes, guide) in enumerate(groups):
            _draw_outcomes(u[:, j], guide, bucket, index)
            for c in range(d):  # the groups' partial sums add in group order
                if j == 0:
                    np.take(planes[c], index, out=acc[c], mode="clip")
                else:
                    acc[c] += np.take(planes[c], index, out=look, mode="clip")
        norms[lo:hi] = norm_eval_many(norm, acc.T)

    _map(draw_block, stream(), lanes)
    peak, mean, std = _scaled_moments(norms, p, lanes)
    pth, value = _pth_and_value(peak, mean, p)
    stderr, _ = _pth_and_value(peak, std / math.sqrt(samples), p)
    return IpResult(value=value, pth_power=pth, method="monte_carlo", stderr=stderr, terms_evaluated=samples)


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of comparing I_p against one side of the moment bound."""

    side: str
    i_p: float
    bound_constant: float
    rhs: float
    margin: float
    holds: bool
    witness_s: Optional[float]


def _l2_of_norms(rows: np.ndarray, norm: NormSpec) -> float:
    norms = norm_eval_many(norm, rows)
    return float(np.sqrt((norms**2).sum()))


def verify_theorem1(v, f: SymmetricAtoms, p: float, q: float, norm: NormSpec, side: str) -> BoundCheck:
    """Check one side of the moment bound by exact enumeration.

    ``side='lower'`` requires q <= p and the caller's assertion that the
    norm has Hanner cotype (q, n); ``side='upper'`` requires q >= p and
    Hanner type (q, n).  The hypothesis itself is not verified here.
    ``holds`` allows the one verdict slack that ``tolerances`` states.
    """
    rows = _as_rows(v)
    ip = ipf_exact(rows, f, p, norm)
    scale = _l2_of_norms(rows, norm)
    if side == "lower":
        c, witness = theorem1_lower_constant(f, p, q)
        rhs = c * scale
        margin = ip.value - rhs
        holds = tol.geq(ip.value, rhs)
        return BoundCheck("lower", ip.value, c, rhs, margin, holds, witness)
    if side == "upper":
        c = theorem1_upper_constant(f, p, q)
        rhs = c * scale
        margin = rhs - ip.value
        holds = tol.leq(ip.value, rhs)
        return BoundCheck("upper", ip.value, c, rhs, margin, holds, None)
    raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")


@dataclass(frozen=True)
class NormAxiomReport:
    trials: int
    homogeneity_max_rel_err: float
    triangle_max_violation: float
    min_nonzero_value: float
    passed: bool
    note: str


def check_value_norm_axioms(
    f: SymmetricAtoms, p: float, norm: NormSpec, trials: int = 1000, seed: int = 0
) -> NormAxiomReport:
    """Randomized check that v -> I_p(v, f) behaves like a norm.

    Homogeneity and the triangle inequality are asserted up to slack;
    definiteness is a falsification search (nonzero samples must give a
    strictly positive value).  Requires a nonzero law.
    """
    if not f.atoms:
        raise ValueError("value-norm axioms need a nonzero law (f is identically zero)")
    rng = np.random.default_rng(seed)
    d = norm.dim
    hom_err = 0.0
    tri_viol = 0.0
    min_pos = math.inf
    passed = True
    lams, cases = [], []
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        u = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        lam = float(rng.uniform(-2.0, 2.0))
        lams.append(lam)
        cases += [(v, f, p), (u, f, p), (lam * v, f, p), (u + v, f, p)]
    values = [res.value for res in _ipf_exact_many(cases, norm)]
    for lam, iv, iu, ilam, isum in zip(lams, *[iter(values)] * 4):
        scale = max(abs(lam) * iv, ilam, 1e-300)
        hom_err = max(hom_err, abs(ilam - abs(lam) * iv) / scale)
        tri_viol = max(tri_viol, (isum - (iu + iv)) / max(isum, iu + iv, 1e-300))
        min_pos = min(min_pos, iv, iu)
        if not (
            tol.close(ilam, abs(lam) * iv, rel=tol.REL_SLACK)
            and tol.leq(isum, iu + iv)
            and iv > 0.0
            and iu > 0.0
        ):
            passed = False
    # zero vector maps to zero exactly
    zero_val = ipf_exact(np.zeros((2, d)), f, p, norm).value
    if zero_val != 0.0:
        passed = False
    return NormAxiomReport(
        trials=trials,
        homogeneity_max_rel_err=hom_err,
        triangle_max_violation=tri_viol,
        min_nonzero_value=min_pos,
        passed=passed,
        note="definiteness is a falsification search, not a proof",
    )


@dataclass(frozen=True)
class ArgumentAxiomReport:
    trials: int
    homogeneity_max_rel_err: float
    min_nonzero_value: float
    zero_law_value: float
    passed: bool


def _random_law(rng: np.random.Generator, max_atoms: int = 3) -> SymmetricAtoms:
    # 1..max_atoms levels in [0.3, 2], total mass on each side in [0.1, 0.45]
    m = int(rng.integers(1, max_atoms + 1))
    levels = np.sort(rng.uniform(0.3, 2.0, size=m))[::-1]
    while len(set(levels.tolist())) < m:  # enforce strict decrease
        levels = np.sort(rng.uniform(0.3, 2.0, size=m))[::-1]
    shares = rng.uniform(0.2, 1.0, size=m)
    shares *= rng.uniform(0.1, 0.45) / shares.sum()
    return SymmetricAtoms(tuple((float(a), float(t)) for a, t in zip(levels, shares)))


def check_argument_norm_axioms(
    v, p: float, trials: int = 1000, seed: int = 0, norm: NormSpec | None = None
) -> ArgumentAxiomReport:
    """Randomized check that f -> I_p(v, f) behaves like a norm on laws.

    Tests positive 1-homogeneity in the levels and definiteness over
    sampled nonzero step laws.  Evenness (negating the support values
    leaves I_p unchanged) holds by construction and is not measured: a
    ``SymmetricAtoms`` law is its own negation, and the kernel sorts its
    support, so the negated support is the same array.  Requires
    sum(v_i) != 0, without which definiteness fails (the constant-like
    direction is annihilated).
    """
    rows = _as_rows(v)
    if norm is None:
        norm = LpNorm(2.0, rows.shape[1])
    _check_dims(rows, norm)
    if float(np.abs(rows.sum(axis=0)).max()) == 0.0:
        raise ValueError("sum(v_i) must be nonzero: the law-argument norm requires a nonzero vector sum")
    rng = np.random.default_rng(seed)
    hom_err = 0.0
    min_pos = math.inf
    passed = True
    ks, cases = [], []
    for _ in range(trials):
        f = _random_law(rng, max_atoms=2)
        k = float(rng.uniform(0.1, 2.0))
        ks.append(k)
        cases += [(rows, f, p), (rows, SymmetricAtoms(tuple((k * a, t) for a, t in f.atoms)), p)]
    values = [res.value for res in _ipf_exact_many(cases, norm)]
    for k, base, scaled in zip(ks, *[iter(values)] * 2):
        scale = max(scaled, k * base, 1e-300)
        hom_err = max(hom_err, abs(scaled - k * base) / scale)
        min_pos = min(min_pos, base)
        if not (tol.close(scaled, k * base, rel=tol.REL_SLACK) and base > 0.0):
            passed = False
    zero_val = ipf_exact(rows, SymmetricAtoms(()), p, norm).value
    if zero_val != 0.0:
        passed = False
    return ArgumentAxiomReport(
        trials=trials,
        homogeneity_max_rel_err=hom_err,
        min_nonzero_value=min_pos,
        zero_law_value=zero_val,
        passed=passed,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    i_p_f: float
    i_p_g: float
    margin: float
    holds: bool


def check_level_monotonicity(v, p: float, norm: NormSpec, f: SymmetricAtoms, g: SymmetricAtoms) -> MonotonicityReport:
    """Coupled level monotonicity: same masses, f levels >= g levels => I_p(f) >= I_p(g).

    The coupling is positional: both laws must carry the same mass
    vector in the same (descending level) order.
    """
    if len(f.atoms) != len(g.atoms) or any(tf != tg for (_, tf), (_, tg) in zip(f.atoms, g.atoms)):
        raise ValueError("mass vectors must match positionally for the level coupling")
    if any(af < ag for (af, _), (ag, _) in zip(f.atoms, g.atoms)):
        raise ValueError("need f levels >= g levels coordinatewise")
    i_f = ipf_exact(v, f, p, norm).value
    i_g = ipf_exact(v, g, p, norm).value
    return MonotonicityReport(i_p_f=i_f, i_p_g=i_g, margin=i_f - i_g, holds=tol.geq(i_f, i_g))


@dataclass(frozen=True)
class BarycenterReport:
    envelope_value: float
    f_value: float
    reductions: tuple[tuple[float, float], ...]
    holds: bool


def check_barycenter_reduction(v, p: float, norm: NormSpec, f: SymmetricAtoms) -> BarycenterReport:
    """Check the reduction chain I_p(envelope) >= I_p(f) >= I_p(top-s average law).

    The right inequality is checked at every atom-prefix breakpoint s.
    """
    if not f.atoms:
        raise ValueError("reduction chain needs a nonzero law")
    i_f = ipf_exact(v, f, p, norm).value
    i_env = ipf_exact(v, envelope_upper(f), p, norm).value
    holds = tol.geq(i_env, i_f)
    reductions = []
    s = 0.0
    for _, t in f.atoms:
        s += t
        i_red = ipf_exact(v, superlevel_reduction(f, s), p, norm).value
        reductions.append((s, i_red))
        holds = holds and tol.geq(i_f, i_red)
    return BarycenterReport(envelope_value=i_env, f_value=i_f, reductions=tuple(reductions), holds=holds)
