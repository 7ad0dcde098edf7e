"""Symmetric step laws and the bound constants attached to them.

An odd bounded function is represented purely through its law: a finite
list of symmetric atom pairs.  ``SymmetricAtoms((a_1, t_1), ...)`` is
the distribution taking values +-a_j with probability t_j each and 0
with the remaining mass 1 - 2 sum(t_j).  Levels are strictly decreasing
and positive; masses are positive with 2 sum(t_j) <= 1.

The module also computes the constants of the two-sided moment bounds

    I_p(v, f) >= c * sqrt(sum ||v_i||^2)   (Hanner cotype (q, n), q <= p)
    I_p(v, f) <= C * sqrt(sum ||v_i||^2)   (Hanner type (q, n),  q >= p)

with

    c = A_q * sup_s min{(2s)^(1/p-1), (2s)^(-1/2)} * (mass-s restricted L1 norm)
    C = B_q * max{m^(1/p), m^(1/2)} * (sup level),   m = total support mass

where the supremum ranges over one-sided superlevel masses s.  The
supremum is attained at an atom-prefix breakpoint, so only those are
evaluated (see ``theorem1_lower_constant``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import lower_constant, upper_constant

__all__ = [
    "SymmetricAtoms",
    "rademacher",
    "f_norms",
    "superlevel_reduction",
    "envelope_upper",
    "theorem1_lower_constant",
    "theorem1_upper_constant",
    "l2_lower_constant",
    "parse_atoms",
]

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class SymmetricAtoms:
    """Law of an odd step function: pairs (level, one-sided mass).

    The zero atom carries the implicit mass 1 - 2 sum(t_j).  An empty
    atom tuple is the law of the zero function.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(a), float(t)) for a, t in self.atoms)
        for a, t in atoms:
            if not (a > 0.0 and math.isfinite(a)):
                raise ValueError(f"levels must be positive and finite, got {a}")
            if not (t > 0.0 and math.isfinite(t)):
                raise ValueError(f"masses must be positive and finite, got {t}")
        levels = [a for a, _ in atoms]
        if any(levels[i] <= levels[i + 1] for i in range(len(levels) - 1)):
            raise ValueError("levels must be strictly decreasing")
        total = 2.0 * sum(t for _, t in atoms)
        if total > 1.0 + _MASS_TOL:
            raise ValueError(f"total atom mass 2*sum(t) = {total} exceeds 1")
        object.__setattr__(self, "atoms", atoms)

    @property
    def levels(self) -> np.ndarray:
        return np.array([a for a, _ in self.atoms])

    @property
    def masses(self) -> np.ndarray:
        return np.array([t for _, t in self.atoms])

    @property
    def zero_mass(self) -> float:
        return max(0.0, 1.0 - 2.0 * sum(t for _, t in self.atoms))


def rademacher() -> SymmetricAtoms:
    """The two-point law: +-1 with probability 1/2 each."""
    return SymmetricAtoms(((1.0, 0.5),))


def parse_atoms(text: str) -> SymmetricAtoms:
    """Parse the CLI spelling ``atoms:a1,t1;a2,t2;...`` (empty tail allowed)."""
    kind, sep, rest = text.partition(":")
    if kind != "atoms" or not sep:
        raise ValueError(f"bad atoms spec {text!r}, expected atoms:a1,t1;a2,t2;...")
    pairs = []
    if rest:
        for chunk in rest.split(";"):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad atom {chunk!r} in {text!r}")
            pairs.append((float(parts[0]), float(parts[1])))
    return SymmetricAtoms(tuple(pairs))


def f_norms(f: SymmetricAtoms) -> tuple[float, float, float]:
    """(L1 norm, sup level, support mass) of the law.

    L1 = 2 sum(a_j t_j), sup = a_1 (0 for the zero law), support mass
    = 2 sum(t_j).
    """
    if not f.atoms:
        return (0.0, 0.0, 0.0)
    l1 = 2.0 * float(np.dot(f.levels, f.masses))
    return (l1, f.atoms[0][0], 2.0 * float(f.masses.sum()))


def _top_mass_integral(f: SymmetricAtoms, s: float) -> float:
    # G(s): the integral of the s largest one-sided levels, splitting the
    # boundary atom fractionally
    remaining, weighted = s, 0.0
    for a, t in f.atoms:
        take = min(t, remaining)
        weighted += a * take
        remaining -= take
        if remaining <= 0.0:
            break
    return weighted


def superlevel_reduction(f: SymmetricAtoms, s: float) -> SymmetricAtoms:
    """Two-valued law carrying the top-s mass of f at its average level.

    Takes the s largest one-sided levels (splitting the boundary atom
    fractionally) and returns the single-atom law {(h, s)} where h is
    the average level over that mass.  Requires 0 < s <= sum(t_j).
    """
    total = float(f.masses.sum()) if f.atoms else 0.0
    if not (0.0 < s <= total + _MASS_TOL):
        raise ValueError(f"target mass s = {s} outside (0, {total}]")
    s = min(s, total)
    return SymmetricAtoms(((_top_mass_integral(f, s) / s, s),))


def envelope_upper(f: SymmetricAtoms) -> SymmetricAtoms:
    """Two-valued law at the sup level carrying the full support mass."""
    if not f.atoms:
        raise ValueError("envelope of the zero law is undefined")
    return SymmetricAtoms(((f.atoms[0][0], float(f.masses.sum())),))


def theorem1_lower_constant(f: SymmetricAtoms, p: float, q: float) -> tuple[float, float]:
    """Lower bound constant and the maximizing one-sided mass.

    c = A_q * sup over superlevel masses s of
        min{(2s)^(1/p-1), (2s)^(-1/2)} * 2*G(s)
    where G(s) is the integral of the s largest one-sided levels.  Since
    2s <= 1, the min picks the branch (2s)^beta with the larger exponent,
    beta in [-1/2, 0], which does not depend on s.  On the piece of atom j,
    G(s) = c + a_j s with c >= 0, and the derivative of s^beta (c + a_j s)
    has the sign of beta c + (1 + beta) a_j s, which changes from - to +:
    its one critical point is a minimum.  So the supremum is attained at
    an atom-prefix mass s = t_1 + ... + t_j, and only those are evaluated.
    """
    if not (1.0 <= q <= p):
        raise ValueError(f"need 1 <= q <= p, got q={q}, p={p}")
    if not f.atoms:
        raise ValueError("lower constant of the zero law is undefined")
    beta = max(1.0 / p - 1.0, -0.5)
    best_val, best_s = -math.inf, None
    for s in np.cumsum(f.masses):
        val = (2.0 * s) ** beta * 2.0 * _top_mass_integral(f, s)
        if val > best_val:
            best_val, best_s = val, s
    return (float(lower_constant(q) * best_val), float(best_s))


def theorem1_upper_constant(f: SymmetricAtoms, p: float, q: float) -> float:
    """Upper bound constant B_q * max{m^(1/p), m^(1/2)} * sup|f|."""
    if not (1.0 <= p <= q):
        raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
    _, sup_level, supp = f_norms(f)
    if supp == 0.0:
        return 0.0
    return upper_constant(q) * max(supp ** (1.0 / p), supp**0.5) * sup_level


def l2_lower_constant(f: SymmetricAtoms, p: float, paper_variant: bool = False) -> float:
    """Inner-product-space lower constant.

    The safe default is A_p * min{m^(1/p-1), m^(-1/2)} * ||f||_1 with m
    the support mass, matching the derivation through the two-valued
    reduction.  ``paper_variant=True`` switches min to max; that form is
    stated elsewhere but fails on small-support laws, so it is exposed
    only for numerical probing, never asserted.
    """
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    if not f.atoms:
        raise ValueError("lower constant of the zero law is undefined")
    l1, _, supp = f_norms(f)
    branches = (supp ** (1.0 / p - 1.0), supp**-0.5)
    pick = max(branches) if paper_variant else min(branches)
    return lower_constant(p) * pick * l1
