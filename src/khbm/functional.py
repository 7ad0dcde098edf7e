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
* ``ipf_monte_carlo`` -- seeded sampling with a counter-based generator
  (Philox), reporting the standard error of the p-th power mean.

The kernel's unit of work is one row of the first table against the
whole second table.  Units are grouped into blocks of at most ``_CHUNK``
terms (a larger unit is a block of its own), so temporaries stay at a
few MB; each unit keeps its largest norm M_i and
sum_j w_j (||s_j||/M_i)^p, and the pairs are rescaled to the overall
largest norm and combined with ``math.fsum``.  Results therefore do not
depend on the block size, and no norm is raised to the power p before
it is scaled, so large p cannot overflow (see ``IpResult``).  The half
tables and the largest block are counted, in float64 values, against the
same budget as the terms.  ``hanner.hanner_gap`` uses the same kernel
for its sign sums.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from . import tolerances as tol
from .distributions import (
    SymmetricAtoms,
    envelope_upper,
    superlevel_reduction,
    theorem1_lower_constant,
    theorem1_upper_constant,
)
from .norms import LpNorm, NormSpec, norm_eval_many

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
_TINY = math.ulp(0.0)  # the least positive double


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


def _law_support(f: SymmetricAtoms) -> tuple[np.ndarray, np.ndarray]:
    # support values and weights, with the zero atom dropped when its
    # probability is exactly zero; Monte Carlo draws indices in this order
    values, weights = [], []
    w0 = f.zero_mass
    if w0 > 0.0 or not f.atoms:
        values.append(0.0)
        weights.append(w0 if f.atoms else 1.0)
    for a, t in f.atoms:
        values.extend((a, -a))
        weights.extend((t, t))
    return np.array(values), np.array(weights)


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
    rows: np.ndarray, values: np.ndarray, weights: np.ndarray, p: float, norm: NormSpec, budget: int | None = None
) -> tuple[float, float, int]:
    """Meet-in-the-middle sum over all k^n support assignments of w ||sum c_i v_i||^p.

    Returns (M, S, k^n) with sum = M^p S, M the largest norm.  The first
    h coordinates and the rest are enumerated once each as half tables of
    partial sums and weights; a unit is one row of the first table against
    the whole second table, evaluated by a broadcast outer sum.  The law is
    symmetric, so the first coordinate runs over {0} and the positive
    levels only and a nonzero first value counts twice (c and -c have
    equal weights and norms).  ``values`` must be sorted, ascending or
    (for a negated support) descending.
    """
    budget = default_budget() if budget is None else budget
    n, d, k = rows.shape[0], rows.shape[1], len(values)
    if values[0] > values[-1]:  # a negated support: reversed, it is the same array
        values, weights = values[::-1], weights[::-1]
    h = max(1, n // 2)
    units, unit_len = (k - k // 2) * k ** (h - 1), k ** (n - h)
    step = _block_rows(units, unit_len)
    _check_floats((units + unit_len + step * unit_len) * d, budget, "the half tables and the largest block")
    digits_a, mult = _half_table(k, h, True)
    digits_b, _ = _half_table(k, n - h, False)
    sums_a, sums_b = values[digits_a] @ rows[:h], values[digits_b] @ rows[h:]
    w_a, w_b = weights[digits_a].prod(axis=1) * mult, weights[digits_b].prod(axis=1)
    tops, sums = [], []
    for i in range(0, units, step):
        top, scaled = _scaled_powers(norm_eval_many(norm, sums_a[i : i + step, None, :] + sums_b), w_b, p)
        tops += top.tolist()
        sums += (w_a[i : i + step] * scaled).tolist()
    return (*_fold(tops, sums, p), k**n)


def ipf_exact(v, f: SymmetricAtoms, p: float, norm: NormSpec, budget: int | None = None) -> IpResult:
    """I_p(v, f) by exhaustive weighted enumeration of the law's support."""
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    rows = _as_rows(v)
    _check_dims(rows, norm)
    budget = default_budget() if budget is None else budget
    values, weights = _sorted_support(f)
    k, n = len(values), rows.shape[0]
    if k**n > budget:
        raise EnumerationBudgetError(
            f"{k}^{n} = {k**n} weighted terms exceed budget {budget}; "
            "use ipf_monte_carlo instead"
        )
    peak, scaled, terms = _enumerate_pth_power(rows, values, weights, p, norm, budget)
    pth, value = _pth_and_value(peak, scaled, p)
    return IpResult(value=value, pth_power=pth, method="exact", stderr=None, terms_evaluated=terms)


@lru_cache(maxsize=32)
def _sign_matrix(k: int) -> np.ndarray:
    idx = np.arange(1 << k, dtype=np.int64)
    signs = 2.0 * ((idx[:, None] >> np.arange(k)) & 1) - 1.0
    signs.flags.writeable = False  # cached and shared by every caller
    return signs


def ipf_two_valued_exact(v, t: float, p: float, norm: NormSpec, budget: int | None = None) -> IpResult:
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
    budget = default_budget() if budget is None else budget
    n = rows.shape[0]
    w0 = 1.0 - 2.0 * t
    bound = 3**n if w0 > 0.0 else 2**n
    if bound > budget:
        raise EnumerationBudgetError(
            f"subset expansion needs up to {bound} terms, exceeding budget {budget}; "
            "use ipf_monte_carlo instead"
        )
    tops, sums = [], []
    terms = 0
    for k in range(1, n + 1):
        coef = t**k * w0 ** (n - k)
        if coef == 0.0:
            continue
        signs = _sign_matrix(k)
        for subset in combinations(range(n), k):
            norms = norm_eval_many(norm, signs @ rows[list(subset)])
            top = float(norms.max())
            tops.append(top)
            sums.append(coef * float(((norms / max(top, _TINY)) ** p).sum()))
            terms += signs.shape[0]
    pth, value = _pth_and_value(*_fold(tops, sums, p), p)
    return IpResult(value=value, pth_power=pth, method="exact", stderr=None, terms_evaluated=terms)


def ipf_monte_carlo(v, f: SymmetricAtoms, p: float, norm: NormSpec, samples: int, seed: int) -> IpResult:
    """Monte Carlo I_p with a counter-based (Philox) sample stream.

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
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(len(values), size=(samples, rows.shape[0]), p=weights)
    norms = norm_eval_many(norm, values[idx] @ rows)
    peak = float(norms.max())
    scaled = (norms / peak) ** p if peak > 0.0 else norms
    mean, value = _pth_and_value(peak, float(scaled.mean()), p)
    stderr, _ = _pth_and_value(peak, float(scaled.std(ddof=1) / math.sqrt(samples)), p)
    return IpResult(value=value, pth_power=mean, method="monte_carlo", stderr=stderr, terms_evaluated=samples)


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


def verify_theorem1(
    v,
    f: SymmetricAtoms,
    p: float,
    q: float,
    norm: NormSpec,
    side: str,
    rel_slack: float = tol.REL_SLACK,
    abs_slack: float = tol.ABS_SLACK,
    budget: int | None = None,
) -> BoundCheck:
    """Check one side of the moment bound by exact enumeration.

    ``side='lower'`` requires q <= p and the caller's assertion that the
    norm has Hanner cotype (q, n); ``side='upper'`` requires q >= p and
    Hanner type (q, n).  The hypothesis itself is not verified here.
    """
    rows = _as_rows(v)
    ip = ipf_exact(rows, f, p, norm, budget=budget)
    scale = _l2_of_norms(rows, norm)
    if side == "lower":
        c, witness = theorem1_lower_constant(f, p, q)
        rhs = c * scale
        margin = ip.value - rhs
        holds = tol.geq(ip.value, rhs, rel=rel_slack, abs_=abs_slack)
        return BoundCheck("lower", ip.value, c, rhs, margin, holds, witness)
    if side == "upper":
        c = theorem1_upper_constant(f, p, q)
        rhs = c * scale
        margin = rhs - ip.value
        holds = tol.leq(ip.value, rhs, rel=rel_slack, abs_=abs_slack)
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
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        u = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        lam = float(rng.uniform(-2.0, 2.0))
        iv = ipf_exact(v, f, p, norm).value
        iu = ipf_exact(u, f, p, norm).value
        ilam = ipf_exact(lam * v, f, p, norm).value
        isum = ipf_exact(u + v, f, p, norm).value
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
    evenness_max_rel_err: float
    min_nonzero_value: float
    zero_law_value: float
    passed: bool


def _random_law(rng: np.random.Generator, max_atoms: int = 2) -> SymmetricAtoms:
    m = int(rng.integers(1, max_atoms + 1))
    levels = np.sort(rng.uniform(0.2, 2.0, size=m))[::-1]
    while len(set(levels.tolist())) < m:  # enforce strict decrease
        levels = np.sort(rng.uniform(0.2, 2.0, size=m))[::-1]
    shares = rng.uniform(0.2, 1.0, size=m)
    shares *= rng.uniform(0.2, 0.5) / shares.sum()
    return SymmetricAtoms(tuple((float(a), float(t)) for a, t in zip(levels, shares)))


def check_argument_norm_axioms(
    v, p: float, trials: int = 1000, seed: int = 0, norm: NormSpec | None = None
) -> ArgumentAxiomReport:
    """Randomized check that f -> I_p(v, f) behaves like a norm on laws.

    Tests positive 1-homogeneity in the levels, invariance under
    negating the support values (the law of an odd function equals the
    law of its negation), and definiteness over sampled nonzero step
    laws.  Requires sum(v_i) != 0, without which definiteness fails
    (the constant-like direction is annihilated).
    """
    rows = _as_rows(v)
    if norm is None:
        norm = LpNorm(2.0, rows.shape[1])
    _check_dims(rows, norm)
    if float(np.abs(rows.sum(axis=0)).max()) == 0.0:
        raise ValueError("sum(v_i) must be nonzero: the law-argument norm requires a nonzero vector sum")
    rng = np.random.default_rng(seed)
    hom_err = 0.0
    even_err = 0.0
    min_pos = math.inf
    passed = True
    for _ in range(trials):
        f = _random_law(rng)
        k = float(rng.uniform(0.1, 2.0))
        base = ipf_exact(rows, f, p, norm).value
        scaled_law = SymmetricAtoms(tuple((k * a, t) for a, t in f.atoms))
        scaled = ipf_exact(rows, scaled_law, p, norm).value
        scale = max(scaled, k * base, 1e-300)
        hom_err = max(hom_err, abs(scaled - k * base) / scale)
        # negating every support value leaves the law invariant
        values, weights = _sorted_support(f)
        _, neg = _pth_and_value(*_enumerate_pth_power(rows, -values, weights, p, norm)[:2], p)
        even_err = max(even_err, abs(neg - base) / max(base, 1e-300))
        min_pos = min(min_pos, base)
        if not (
            tol.close(scaled, k * base, rel=tol.REL_SLACK)
            and tol.close(neg, base, rel=tol.REL_IDENTITY)
            and base > 0.0
        ):
            passed = False
    zero_val = ipf_exact(rows, SymmetricAtoms(()), p, norm).value
    if zero_val != 0.0:
        passed = False
    return ArgumentAxiomReport(
        trials=trials,
        homogeneity_max_rel_err=hom_err,
        evenness_max_rel_err=even_err,
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
