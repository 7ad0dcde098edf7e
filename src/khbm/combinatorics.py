"""Subset power-mean ratio and its sharp combinatorial bounds.

For nonnegative x_1..x_n, 1 <= k <= n and alpha >= 0:

    min{k/n, (k/n)^alpha}
        <= sum over k-subsets (subset sum)^alpha
           / [ C(n,k) * (sum x)^alpha ]
        <= max{k/n, (k/n)^alpha}

Both ends are attained: x = (1, 0, ..., 0) gives k/n (for alpha > 0)
and x = (1, ..., 1) gives (k/n)^alpha.  The convention 0^0 = 1 is used
throughout, so at alpha = 0 the ratio is exactly 1.

The numerator is enumerated exactly, by splitting x in two halves and
combining their subset sums by size (Horowitz & Sahni, J. ACM 21, 1974);
the subset index tables are cached and read-only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import tolerances as tol
from .functional import EnumerationBudgetError, _block_rows, _check_floats, default_budget

__all__ = ["SubsetRatioInput", "Lemma1Report", "subset_power_ratio", "lemma1_bounds", "verify_lemma1"]

_MAX_N = 24
_SPLIT_N = 12  # up to here one table of all k-subsets beats two halves (crossover near n = 14)


@dataclass(frozen=True)
class SubsetRatioInput:
    x: tuple[float, ...]
    k: int
    alpha: float

    def __post_init__(self):
        x = tuple(float(v) for v in self.x)
        if not x:
            raise ValueError("x must be nonempty")
        if len(x) > _MAX_N:
            raise ValueError(f"n <= {_MAX_N} required, got {len(x)}")
        if any(not (v >= 0.0 and math.isfinite(v)) for v in x):
            raise ValueError("entries must be finite and nonnegative")
        if math.fsum(x) <= 0.0:
            raise ValueError("sum of x must be positive")
        if not (1 <= self.k <= len(x)):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={len(x)}")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        object.__setattr__(self, "x", x)


@lru_cache(maxsize=128)
def _subset_rows(m: int, j: int) -> np.ndarray:
    # the j-subsets of range(m), one per row; cached and read-only
    rows = np.array(list(combinations(range(m), j)), dtype=np.intp).reshape(math.comb(m, j), j)
    rows.flags.writeable = False
    return rows


def subset_power_ratio(inp: SubsetRatioInput) -> float:
    """Exact ratio by meet-in-the-middle over the two halves of x.

    A k-subset is a j-subset of the first h entries joined with a
    (k-j)-subset of the rest, so the numerator is
    sum_j sum (outer(A_j, B_(k-j)))^alpha over the subset sums A_j and
    B_(k-j) of the two halves.  One row of A_j against all of B_(k-j) is a
    unit; units fill blocks of at most ``_CHUNK`` terms and their totals
    are combined with ``math.fsum``, so the result does not depend on the
    block size.  For n <= ``_SPLIT_N`` the first half is empty and one
    unit holds all C(n, k) subset sums.
    """
    budget = default_budget()
    n, k = len(inp.x), inp.k
    count = math.comb(n, k)
    if count > budget:
        raise EnumerationBudgetError(f"C({n},{k}) = {count} subsets exceed budget {budget}")
    x = np.array(inp.x)
    total = math.fsum(inp.x)
    try:
        t_pow = total**inp.alpha
    except OverflowError:
        t_pow = math.inf
    if sys.float_info.min <= t_pow <= sys.float_info.max:
        denom = count * t_pow
    else:
        # total**alpha left the normal range (all-tiny or all-huge input);
        # the ratio is scale-free, so divide through by the total instead
        x = x / total
        denom = float(count)
    h = n // 2 if n > _SPLIT_N else 0
    halves = [(_subset_rows(h, j), _subset_rows(n - h, k - j)) for j in range(max(0, k - n + h), min(k, h) + 1)]
    _check_floats(
        max(len(a) + len(b) + _block_rows(len(a), len(b)) * len(b) for a, b in halves),
        budget,
        "the half subset sums and the largest block",
    )
    unit_totals = []
    for rows_a, rows_b in halves:
        sums_a, sums_b = x[:h][rows_a].sum(axis=1), x[h:][rows_b].sum(axis=1)
        step = _block_rows(len(sums_a), len(sums_b))
        for i in range(0, len(sums_a), step):
            unit_totals.append(((sums_a[i : i + step, None] + sums_b) ** inp.alpha).sum(axis=1))
    return math.fsum(np.concatenate(unit_totals).tolist()) / denom


def lemma1_bounds(n: int, k: int, alpha: float) -> tuple[float, float]:
    """Sharp (min, max) envelope of the subset power ratio."""
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    linear = k / n
    powered = (k / n) ** alpha
    return (min(linear, powered), max(linear, powered))


@dataclass(frozen=True)
class Lemma1Report:
    n: int
    k: int
    alpha: float
    ratio: float
    lower: float
    upper: float
    holds: bool


def verify_lemma1(inp: SubsetRatioInput) -> Lemma1Report:
    """Compute the ratio and check it against the sharp bounds (1e-12 slack)."""
    ratio = subset_power_ratio(inp)
    lower, upper = lemma1_bounds(len(inp.x), inp.k, inp.alpha)
    holds = tol.geq(ratio, lower, rel=tol.REL_IDENTITY) and tol.leq(ratio, upper, rel=tol.REL_IDENTITY)
    return Lemma1Report(
        n=len(inp.x), k=inp.k, alpha=inp.alpha, ratio=ratio, lower=lower, upper=upper, holds=holds
    )
