"""The three workloads: operation lists built from a seed, as plain data.

Nothing here imports khbm.  The worker turns each ``Op`` into a call on
the package; the checker turns it into an oracle value.  The same seed
gives the same operations, and every pass runs the whole list in order.

Norms are ``("lp", r, d)`` or ``("polytope", vertices)``; laws are
tuples of (level, one-sided mass) pairs with integer levels and dyadic
masses, so the lattice oracle is exact for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FAIR = ((1.0, 0.5),)
TWO_ATOM = ((2.0, 0.125), (1.0, 0.25))
EXPONENTS = ("1", "1.5", "2", "3", "inf")


@dataclass(frozen=True)
class Op:
    """One call into khbm.  ``kind`` names the entry point, ``oracle`` the check."""

    name: str
    kind: str
    args: dict
    oracle: str = ""
    # a fault the program is known to have: a wrong result counts as
    # failed, not as incorrect
    known_fault: bool = False
    files: dict = field(default_factory=dict)


def _int_rows(rng: np.random.Generator, n: int, d: int, top: int) -> np.ndarray:
    rows = rng.integers(-top, top + 1, size=(n, d))
    for i in range(n):
        while not rows[i].any():
            rows[i] = rng.integers(-top, top + 1, size=d)
    return rows.astype(float)


def _large_p_ops() -> list[Op]:
    # orthogonal equal-norm vectors with ||sum|| = 16 under every sign;
    # 16^p overflows a double once p > 256.  The inputs do not depend on
    # the seed, so these operations fail the same way in every run.
    V = 8.0 * np.eye(4)
    ops = []
    for p in (300.0, 400.0):
        norm = ("lp", 2.0, 4)
        common = dict(V=V, p=p, norm=norm)
        ops += [
            Op(f"ipf_exact.large-p.{p:g}", "ipf_exact", dict(common, law=FAIR), "p-invariance", True),
            Op(
                f"ipf_two_valued_exact.large-p.{p:g}",
                "ipf_two_valued_exact",
                dict(common, t=0.5),
                "p-invariance",
                True,
            ),
            Op(
                f"ipf_monte_carlo.large-p.{p:g}",
                "ipf_monte_carlo",
                dict(common, law=FAIR, samples=10_000, seed=0),
                "p-invariance",
                True,
            ),
        ]
    return ops


def exact_large(seed: int) -> list[Op]:
    """A few large exact and sampled calls on l^r norms, r = 1, 2, 3, inf."""
    rng = np.random.default_rng(seed)
    return [
        Op(
            "ipf_exact.fair.n20.l2.p4",
            "ipf_exact",
            dict(V=_int_rows(rng, 20, 3, 3), law=FAIR, p=4.0, norm=("lp", 2.0, 3)),
            "gram",
        ),
        Op(
            "ipf_exact.two-atom.n9.l3.p3",
            "ipf_exact",
            dict(V=_int_rows(rng, 9, 3, 2), law=TWO_ATOM, p=3.0, norm=("lp", 3.0, 3)),
            "lattice",
        ),
        Op(
            "ipf_two_valued_exact.n14.linf.p2.5",
            "ipf_two_valued_exact",
            dict(V=_int_rows(rng, 14, 3, 3), t=0.25, p=2.5, norm=("lp", math.inf, 3)),
            "lattice",
        ),
        Op(
            "ipf_monte_carlo.n10.l1.p3",
            "ipf_monte_carlo",
            dict(
                V=_int_rows(rng, 10, 3, 2),
                law=TWO_ATOM,
                p=3.0,
                norm=("lp", 1.0, 3),
                samples=1_000_000,
                seed=int(rng.integers(2**31)),
            ),
            "sampled",
        ),
        Op(
            "hanner_gap.n18.l1.q1.5",
            "hanner_gap",
            dict(V=_int_rows(rng, 18, 3, 2), q=1.5, norm=("lp", 1.0, 3)),
            "lattice",
        ),
        Op(
            "falsify_hanner.l3.type.n2",
            "falsify_hanner",
            dict(norm=("lp", 3.0, 3), q=3.0, n=2, d=3, mode="type", trials=100_000, seed=int(rng.integers(2**31))),
            "hanner-theorem",
        ),
        Op(
            "subset_power_ratio.n22.k11",
            "subset_power_ratio",
            dict(x=tuple(rng.uniform(0.0, 1.0, size=22).tolist()), k=11, alpha=1.7),
            "subsets",
        ),
    ] + _large_p_ops()


def verify_small(seed: int) -> list[Op]:
    """Thousands of small calls through the in-process command line."""
    rng = np.random.default_rng(seed)
    s = str(seed)
    ops = [Op("cli.acceptance", "cli", dict(argv=["acceptance", "--seed", s]), "acceptance")]
    for p in EXPONENTS:
        for q in EXPONENTS:
            if p == q:
                continue
            for n in range(2, 9):
                argv = ["bm", "--pair", p, q, str(n), "--seed", s]
                ops.append(Op(f"cli.bm.{p}.{q}.{n}", "cli", dict(argv=argv, p=float(p), q=float(q), n=n), "bm"))
    lemma_seed = str(int(rng.integers(2**31)))
    ops.append(Op("cli.lemma1.random", "cli", dict(argv=["lemma1", "--random", "8", "20", lemma_seed]), "lemma1"))
    for p in (1.0, 2.0, 3.0, round(float(rng.uniform(1.0, 10.0)), 3)):
        ops.append(Op(f"cli.constants.{p:g}", "cli", dict(argv=["constants", "--p", repr(p)], p=p), "constants"))
    atoms = "atoms:" + ";".join(f"{a:g},{t:g}" for a, t in TWO_ATOM)
    for side, p, q, r in (("lower", 3.0, 1.5, 1.5), ("upper", 2.0, 3.0, 3.0)):
        V = _int_rows(rng, 6, 3, 2)
        argv = ["verify-theorem1", "--vectors", "{v}", "--atoms", atoms, "--p", repr(p), "--q", repr(q),
                "--norm", f"lp:{r:g}:3", "--side", side]
        ops.append(
            Op(f"cli.verify-theorem1.{side}", "cli",
               dict(argv=argv, V=V, law=TWO_ATOM, p=p, q=q, side=side, norm=("lp", r, 3)),
               "theorem1", files={"v": V})
        )
    V = _int_rows(rng, 8, 3, 2)
    argv = ["hanner", "--norm", "lp:inf:3", "--q", "2", "--vectors", "{v}"]
    ops.append(Op("cli.hanner.linf", "cli", dict(argv=argv, V=V, q=2.0, norm=("lp", math.inf, 3)), "hanner",
                  files={"v": V}))
    return ops


def _hexagon(rng: np.random.Generator) -> np.ndarray:
    angles = np.arange(3) * math.pi / 3.0 + rng.uniform(-0.25, 0.25, size=3)
    radii = rng.uniform(0.7, 1.3, size=3)
    half = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return np.vstack([half, -half])


def polytope(seed: int) -> list[Op]:
    """The LP gauge path: every gauge value is one linear program today."""
    rng = np.random.default_rng(seed)
    hexagon = ("polytope", _hexagon(rng))
    cube = ("polytope", np.array([[a, b, c] for a in (-1.0, 1.0) for b in (-1.0, 1.0) for c in (-1.0, 1.0)]))
    cross = ("polytope", np.vstack([np.eye(3), -np.eye(3)]))
    l2 = ("lp", 2.0, 2)
    angle = float(rng.uniform(0.0, math.pi / 2.0))
    rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    return [
        Op("norm_eval_many.hexagon", "norm_eval_many", dict(norm=hexagon, pts=rng.standard_normal((200, 2))), "facet"),
        Op("norm_eval_many.cube", "norm_eval_many", dict(norm=cube, pts=rng.standard_normal((50, 3))), "cube"),
        Op("norm_eval_many.cross", "norm_eval_many", dict(norm=cross, pts=rng.standard_normal((50, 3))), "cross"),
        Op(
            "ipf_exact.hexagon.n8.p3",
            "ipf_exact",
            dict(V=_int_rows(rng, 8, 2, 2), law=FAIR, p=3.0, norm=hexagon),
            "lattice",
        ),
        Op("hanner_gap.hexagon.n8", "hanner_gap", dict(V=_int_rows(rng, 8, 2, 2), q=1.5, norm=hexagon), "lattice"),
        Op(
            "estimate_comparison.hexagon-l2",
            "estimate_comparison",
            dict(a=hexagon, b=l2, trials=64, seed=int(rng.integers(2**31))),
            "comparison",
        ),
        Op(
            "estimate_comparison.l2-hexagon",
            "estimate_comparison",
            dict(a=l2, b=hexagon, trials=64, seed=int(rng.integers(2**31))),
            "comparison",
        ),
        Op(
            "theorem2_general_lower.hexagon",
            "theorem2_general_lower",
            dict(norm=hexagon, n=2, trials=2, seed=int(rng.integers(2**31))),
            "thm2",
        ),
        Op(
            "upper_bound_via_transform.cube-hexagon",
            "upper_bound_via_transform",
            dict(K=("lp", math.inf, 2), L=hexagon, T=rotation),
            "transform",
        ),
    ]


WORKLOADS = {"exact-large": exact_large, "verify-small": verify_small, "polytope": polytope}
