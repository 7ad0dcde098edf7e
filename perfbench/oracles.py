"""Reference values computed apart from khbm.

Nothing here imports the package under test.  Each oracle reaches its
value by a different route from the one khbm takes:

* even moments from the Gram matrix (exact rational arithmetic);
* the p-invariance of orthogonal equal-norm tuples under a fair sign;
* a lattice-convolution enumeration of the law of sum c_i v_i for
  small-integer vectors and integer levels, exact for any norm and p;
* a facet-form polytope gauge from qhull (``scipy.spatial.ConvexHull``)
  and the closed-form cube and cross-polytope gauges;
* exact polytope comparison constants from vertices and facets;
* closed-form Banach-Mazur distances between l^p balls;
* subset power ratios from ``itertools.combinations`` and ``math.fsum``;
* A_p and B_p from mpmath's Gamma function at 50 digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

Law = Sequence[tuple[float, float]]  # (level, one-sided mass) pairs
NormFn = Callable[[np.ndarray], np.ndarray]  # rows -> norms


def lp_norm(r: float) -> NormFn:
    """l^r norm of each row, written out per case."""

    def norm(points: np.ndarray) -> np.ndarray:
        a = np.abs(np.asarray(points, dtype=float))
        if math.isinf(r):
            return a.max(axis=-1)
        if r == 1.0:
            return a.sum(axis=-1)
        return (a**r).sum(axis=-1) ** (1.0 / r)

    return norm


def cube_gauge(points: np.ndarray) -> np.ndarray:
    """Gauge of conv{-1, 1}^d: the largest absolute coordinate."""
    return np.abs(np.asarray(points, dtype=float)).max(axis=-1)


def cross_polytope_gauge(points: np.ndarray) -> np.ndarray:
    """Gauge of conv{+-e_i}: the sum of absolute coordinates."""
    return np.abs(np.asarray(points, dtype=float)).sum(axis=-1)


class FacetGauge:
    """Gauge of a symmetric polytope in facet form {x : A x <= 1}.

    qhull returns each facet as n . x + c <= 0 with c < 0 for a body
    around the origin, so the facet row is a = n / (-c) and the gauge
    is max_a a . x.
    """

    def __init__(self, vertices: np.ndarray):
        from scipy.spatial import ConvexHull

        hull = ConvexHull(np.asarray(vertices, dtype=float))
        normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
        if not np.all(offsets < 0.0):
            raise ValueError("the origin must lie inside the polytope")
        self.facets = normals / (-offsets)[:, None]
        self.vertices = hull.points[hull.vertices]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=float) @ self.facets.T).max(axis=-1)


def comparison_bounds(gauge: FacetGauge, r: float) -> dict[str, float]:
    """Exact extremes of ||x||_P / ||x||_r and ||x||_r / ||x||_P.

    A convex function peaks at a vertex, so sup ||x||_r / ||x||_P is
    max_v ||v||_r; by Hoelder, sup ||x||_P / ||x||_r is max_a ||a||_r*.
    The infima are the reciprocals of the opposite suprema.
    """
    r_star = math.inf if r == 1.0 else (1.0 if math.isinf(r) else r / (r - 1.0))
    max_vertex = float(lp_norm(r)(gauge.vertices).max())
    max_facet = float(lp_norm(r_star)(gauge.facets).max())
    return {
        "inf_P_over_r": 1.0 / max_vertex,
        "sup_P_over_r": max_facet,
        "inf_r_over_P": 1.0 / max_facet,
        "sup_r_over_P": max_vertex,
    }


def _integer_rows(V) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    if not np.array_equal(V, np.round(V)):
        raise ValueError("lattice oracle needs integer vectors")
    return V.astype(np.int64)


def _support_weights(law: Law) -> tuple[list[tuple[int, int]], int]:
    # integer support values with integer weights over a common denominator
    masses = [Fraction(t) for _, t in law]
    zero = 1 - 2 * sum(masses, Fraction(0))
    denom = math.lcm(*(m.denominator for m in masses + [zero]))
    support = []
    if zero > 0 or not law:
        support.append((0, int(zero * denom) if law else denom))
    for (a, _), m in zip(law, masses):
        if a != round(a):
            raise ValueError("lattice oracle needs integer levels")
        support += [(int(a), int(m * denom)), (-int(a), int(m * denom))]
    return support, denom


def lattice_distribution(V, law: Law) -> tuple[np.ndarray, np.ndarray, int]:
    """Law of S = sum_i c_i v_i on Z^d, by convolving one vector at a time.

    Returns the lattice points S can reach, their integer counts and
    the denominator D^n with P(S = x) = count / D^n, all exact.
    """
    V = _integer_rows(V)
    support, denom = _support_weights(law)
    n, d = V.shape
    if denom**n >= 2**62:
        raise ValueError("counts would overflow int64")
    top = max(abs(a) for a, _ in support)
    reach = top * np.abs(V).sum(axis=0)
    counts = np.zeros(tuple(2 * reach + 1), dtype=np.int64)
    counts[tuple(reach)] = 1
    axes = tuple(range(d))
    for row in V:
        nxt = np.zeros_like(counts)
        for a, w in support:
            # partial sums stay inside the box, so the roll never wraps mass
            nxt += w * np.roll(counts, tuple(a * row), axis=axes)
        counts = nxt
    idx = np.nonzero(counts)
    points = np.stack(idx, axis=1) - reach
    return points, counts[idx], denom**n


def lattice_moment(V, law: Law, p: float, norm: NormFn) -> float:
    """E ||sum c_i v_i||^p from the exact lattice law (the p-th power of I_p)."""
    points, counts, total = lattice_distribution(V, law)
    terms = counts.astype(float) * norm(points) ** p
    return math.fsum(terms.tolist()) / total


def sign_power_sum(a: Sequence[float], q: float) -> float:
    """sum over eps in {-1, 1}^n of |sum eps_i a_i|^q.

    Integer entries go through the exact 1-D lattice law; other entries
    are enumerated sign by sign (n <= 16).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if np.array_equal(a, np.round(a)):
        return 2.0**n * lattice_moment(a[:, None], ((1.0, 0.5),), q, lp_norm(1.0))
    if n > 16:
        raise ValueError("sign-by-sign enumeration supports n <= 16")
    from itertools import product

    sums = (math.fsum(e * x for e, x in zip(eps, a)) for eps in product((-1.0, 1.0), repeat=n))
    return math.fsum(abs(s) ** q for s in sums)


def even_moment(V, law: Law, p: int) -> Fraction:
    """E ||sum c_i v_i||_2^p for p = 2 or 4, exactly, from the Gram matrix.

    I_2^2 = m_2 sum_i G_ii and
    I_4^4 = m_4 sum_i G_ii^2 + m_2^2 (sum_{i!=k} G_ii G_kk + 2 sum_{i!=j} G_ij^2),
    with G = V V^T and m_2, m_4 the law's second and fourth moments.
    """
    rows = [[Fraction(x) for x in row] for row in np.asarray(V, dtype=float).tolist()]
    gram = [[sum((x * y for x, y in zip(u, v)), Fraction(0)) for v in rows] for u in rows]
    m2 = sum((2 * Fraction(t) * Fraction(a) ** 2 for a, t in law), Fraction(0))
    diag = [gram[i][i] for i in range(len(rows))]
    if p == 2:
        return m2 * sum(diag, Fraction(0))
    if p != 4:
        raise ValueError("even_moment covers p = 2 and p = 4")
    m4 = sum((2 * Fraction(t) * Fraction(a) ** 4 for a, t in law), Fraction(0))
    n = len(rows)
    square_diag = sum((g * g for g in diag), Fraction(0))
    cross_diag = sum(diag, Fraction(0)) ** 2 - square_diag
    off = sum((gram[i][j] ** 2 for i in range(n) for j in range(n) if i != j), Fraction(0))
    return m4 * square_diag + m2 * m2 * (cross_diag + 2 * off)


def orthogonal_equal_norm_value(V) -> float:
    """I_p under a fair sign and the Euclidean norm, the same for every p.

    For orthogonal v_i of equal length every sign sum has squared length
    sum ||v_i||^2, so I_p = sqrt(sum ||v_i||^2) whatever p is.
    """
    V = np.asarray(V, dtype=float)
    gram = V @ V.T
    if np.any(gram - np.diag(np.diag(gram))) or len(set(np.diag(gram).tolist())) != 1:
        raise ValueError("vectors must be orthogonal and of equal length")
    return math.sqrt(math.fsum(np.diag(gram).tolist()))


def bm_distance(p: float, q: float, n: int) -> Optional[float]:
    """d(l^p_n ball, l^q_n ball) where a closed form is known, else None.

    With p and q on the same side of 2 the identity is optimal and
    d = n^|1/p - 1/q| (n^(1/q) for the cube against l^q, q >= 2, and
    n^(1 - 1/p) for the cross-polytope against l^p, p <= 2); in the
    plane the square and the diamond are isometric.
    """
    if n == 1 or p == q:
        return 1.0
    if n == 2 and {p, q} == {1.0, math.inf}:
        return 1.0
    if (p <= 2.0 and q <= 2.0) or (p >= 2.0 and q >= 2.0):
        inv = lambda r: 0.0 if math.isinf(r) else 1.0 / r  # noqa: E731
        return float(n) ** abs(inv(p) - inv(q))
    return None


def crosspolytope_cube_lower(n: int) -> float:
    """The corollary bound for d(l^1_n, l^inf_n): sqrt(n / 2)."""
    return math.sqrt(n / 2.0)


def subset_ratio(x: Sequence[float], k: int, alpha: float) -> float:
    """sum over k-subsets of (subset sum)^alpha / (C(n, k) (sum x)^alpha)."""
    num = math.fsum(math.fsum(c) ** alpha for c in combinations(x, k))
    return num / (math.comb(len(x), k) * math.fsum(x) ** alpha)


def subset_ratio_bounds(n: int, k: int, alpha: float) -> tuple[float, float]:
    """The sharp envelope min/max of k/n and (k/n)^alpha."""
    a, b = k / n, (k / n) ** alpha
    return min(a, b), max(a, b)


def khinchine_ab(p: float) -> tuple[float, float]:
    """(A_p, B_p): min and max of {1, 2^(1/2 - 1/p), sqrt(2) (Gamma((p+1)/2)/sqrt(pi))^(1/p)}."""
    import mpmath

    with mpmath.workdps(50):
        pm = mpmath.mpf(p)
        elements = (
            mpmath.mpf(1),
            mpmath.mpf(2) ** (mpmath.mpf(1) / 2 - 1 / pm),
            mpmath.sqrt(2) * (mpmath.gamma((pm + 1) / 2) / mpmath.sqrt(mpmath.pi)) ** (1 / pm),
        )
        return float(min(elements)), float(max(elements))


def theorem1_lower(law: Law, p: float, q: float) -> float:
    """A_q * max over prefix masses s of (2s)^beta * 2 G(s), beta = max(1/p - 1, -1/2).

    G(s) is the integral of the s largest one-sided levels; on each atom
    the expression has only an interior minimum, so its maximum sits at
    a prefix of whole atoms.
    """
    beta = max(1.0 / p - 1.0, -0.5)
    best, s, g = 0.0, 0.0, 0.0
    for a, t in law:
        s += t
        g += a * t
        best = max(best, (2.0 * s) ** beta * 2.0 * g)
    return khinchine_ab(q)[0] * best


def theorem1_upper(law: Law, p: float, q: float) -> float:
    """B_q * max(m^(1/p), m^(1/2)) * (largest level), m = 2 sum t."""
    m = 2.0 * sum(t for _, t in law)
    return khinchine_ab(q)[1] * max(m ** (1.0 / p), m**0.5) * law[0][0]
