"""Compare each operation's output with its oracle.

``check(op, out)`` returns None when the output is right and a short
reason when it is not.  Exact routes are held to khbm's own identity
tolerance (``REL_IDENTITY = 1e-12`` in ``khbm/tolerances.py``), LP gauge
values to its inequality slack (1e-9), and Monte Carlo to 6 standard
errors.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

import oracles
from workloads import FAIR, Op

EXACT = 1e-12
LP = 1e-9
SIGMAS = 6.0


def _rel(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


def _close(what: str, got: float, want: float, tol: float) -> Optional[str]:
    err = _rel(got, want)
    return None if err <= tol else f"{what} {got!r} != oracle {want!r} (rel {err:.2e})"


def _norm(spec):
    if spec[0] == "lp":
        return oracles.lp_norm(spec[1])
    return oracles.FacetGauge(spec[1])


def _gauge(spec, kind: str):
    return {"cube": oracles.cube_gauge, "cross": oracles.cross_polytope_gauge}.get(kind) or _norm(spec)


def _moment(op: Op) -> float:
    a = op.args
    law = a.get("law") or ((1.0, a["t"]),)
    if op.oracle == "gram":
        return float(oracles.even_moment(a["V"], law, int(a["p"])))
    return oracles.lattice_moment(a["V"], law, a["p"], _norm(a["norm"]))


def _check_ip(op: Op, out: dict) -> Optional[str]:
    a = op.args
    if op.oracle == "p-invariance":
        want = oracles.orthogonal_equal_norm_value(a["V"])
        return _close("value", out["value"], want, EXACT)
    want = _moment(op)
    if op.kind == "ipf_monte_carlo":
        err = abs(out["pth_power"] - want)
        if not (math.isfinite(out["stderr"]) and out["stderr"] > 0.0 and err <= SIGMAS * out["stderr"]):
            return f"sampled p-th power {out['pth_power']!r} is {err:.3g} from {want!r}, stderr {out['stderr']!r}"
        return None
    return _close("p-th power", out["pth_power"], want, EXACT) or _close(
        "value", out["value"], want ** (1.0 / a["p"]), EXACT
    )


def _hanner_sides(V, q: float, norm) -> tuple[float, float]:
    n = len(V)
    lhs = 2.0**n * oracles.lattice_moment(V, FAIR, q, norm)
    rhs = oracles.sign_power_sum(norm(np.asarray(V, dtype=float)), q)
    return lhs, rhs


def _check_gap(lhs: float, rhs: float, gap: float, V, q: float, spec) -> Optional[str]:
    want_lhs, want_rhs = _hanner_sides(V, q, _norm(spec))
    tol = LP if spec[0] == "polytope" else EXACT
    scale = max(want_lhs, want_rhs)
    if abs(gap - (want_lhs - want_rhs)) > tol * scale:
        return f"gap {gap!r} != oracle {want_lhs - want_rhs!r}"
    return _close("lhs", lhs, want_lhs, tol) or _close("rhs", rhs, want_rhs, tol)


def _check_subsets(x, k, alpha, ratio) -> Optional[str]:
    lo, hi = oracles.subset_ratio_bounds(len(x), k, alpha)
    if not (lo * (1 - EXACT) <= ratio <= hi * (1 + EXACT)):
        return f"ratio {ratio!r} outside [{lo!r}, {hi!r}]"
    return _close("subset ratio", ratio, oracles.subset_ratio(x, k, alpha), EXACT)


def _check_comparison(a, b, out) -> Optional[str]:
    # sampled extremes can only sit inside the exact ones
    if a[0] == "polytope":
        exact = oracles.comparison_bounds(oracles.FacetGauge(a[1]), b[1])
        lo, hi = exact["inf_P_over_r"], exact["sup_P_over_r"]
    else:
        exact = oracles.comparison_bounds(oracles.FacetGauge(b[1]), a[1])
        lo, hi = exact["inf_r_over_P"], exact["sup_r_over_P"]
    if out["rigorous"]:
        return "a sampled comparison is flagged rigorous"
    if out["lower"] < lo * (1 - LP) or out["upper"] > hi * (1 + LP):
        return f"sampled [{out['lower']!r}, {out['upper']!r}] leaves the exact [{lo!r}, {hi!r}]"
    return None


def _check_thm2(a, out) -> Optional[str]:
    # the sampled comparison constants overstate the exact ones, so the
    # reported raw value is at least the exact objective at its witness
    gauge, n, p = oracles.FacetGauge(a["norm"][1]), a["n"], out["witness_p"]
    exact = (
        oracles.comparison_bounds(gauge, p)["inf_P_over_r"]
        * oracles.comparison_bounds(gauge, 1.0)["inf_r_over_P"]
        * oracles.khinchine_ab(p)[0]
        * float(n) ** (1.0 / p - 0.5)
    )
    if out["rigorous"]:
        return "a sampled polytope bound is flagged rigorous"
    if out["value"] != max(1.0, out["raw"]):
        return f"value {out['value']!r} is not max(1, raw {out['raw']!r})"
    if out["raw"] < exact * (1 - LP):
        return f"raw {out['raw']!r} below the exact objective {exact!r} at p = {p!r}"
    return None


def _check_transform(a, out) -> Optional[str]:
    gauge = oracles.FacetGauge(a["L"][1])
    T = np.asarray(a["T"])
    cube = np.array(np.meshgrid(*[[-1.0, 1.0]] * T.shape[0])).reshape(T.shape[0], -1).T
    factor_out = float(gauge(cube @ T.T).max())
    factor_in = float(oracles.cube_gauge(gauge.vertices @ np.linalg.inv(T).T).max())
    if not out["rigorous"]:
        return "an enumerable transform bound is flagged non-rigorous"
    return (
        _close("factor_out", out["factor_out"], factor_out, LP)
        or _close("factor_in", out["factor_in"], factor_in, LP)
        or _close("value", out["value"], factor_out * factor_in, LP)
    )


def _check_bm(a, rep) -> Optional[str]:
    p, q, n = a["p"], a["q"], a["n"]
    dist = oracles.bm_distance(p, q, n)
    if not rep["consistent"]:
        return "report is inconsistent"
    known = rep["known_exact"]
    if known is not None and (dist is None or _rel(known, dist) > EXACT):
        return f"known distance {known!r} != closed form {dist!r}"
    rigorous = [lb for lb in rep["lower_bounds"] if lb["rigorous"]]
    upper = rep["upper_bound"]
    for lb in rep["lower_bounds"]:
        if lb["value"] != max(1.0, lb["raw"]):
            return f"{lb['method']} value {lb['value']!r} is not max(1, raw)"
        if lb["method"] == "cor1" and {p, q} == {1.0, math.inf}:
            err = _close("cor1", lb["raw"], oracles.crosspolytope_cube_lower(n), EXACT)
            if err:
                return err
    for lb in rigorous:
        if dist is not None and lb["value"] > dist * (1 + LP):
            return f"{lb['method']} lower {lb['value']!r} exceeds the distance {dist!r}"
        if upper is not None and upper["rigorous"] and lb["value"] > upper["value"] * (1 + LP):
            return f"{lb['method']} lower {lb['value']!r} exceeds the upper bound {upper['value']!r}"
    if dist is not None and upper is not None and upper["rigorous"] and upper["value"] < dist * (1 - LP):
        return f"upper bound {upper['value']!r} below the distance {dist!r}"
    return None


def _check_cli(op: Op, out: dict) -> Optional[str]:
    if out["code"] != 0:
        return f"exit code {out['code']}: {out['err'].strip()[:200]}"
    rep = json.loads(out["out"])["report"]
    a = op.args
    if op.oracle == "acceptance":
        ids = [c["cid"] for c in rep["criteria"]]
        failed = [c["cid"] for c in rep["criteria"] if not c["passed"]]
        if ids != list(range(1, 11)) or failed or not rep["all_passed"]:
            return f"criteria {ids}, failed {failed}"
        return None
    if op.oracle == "bm":
        return _check_bm(a, rep)
    if op.oracle == "lemma1":
        if not rep["all_hold"] or len(rep["cases"]) != 8 * 20 * 5:
            return "lemma1 sweep incomplete or violated"
        for case in rep["cases"]:
            err = _check_subsets(case["x"], case["k"], case["alpha"], case["ratio"])
            if err:
                return err
        return None
    if op.oracle == "constants":
        A, B = oracles.khinchine_ab(a["p"])
        return _close("A_p", rep["a_p"], A, EXACT) or _close("B_p", rep["b_p"], B, EXACT)
    if op.oracle == "theorem1":
        (chk,) = rep["checks"]
        norm = _norm(a["norm"])
        want_ip = oracles.lattice_moment(a["V"], a["law"], a["p"], norm) ** (1.0 / a["p"])
        scale = math.sqrt(math.fsum((norm(a["V"]) ** 2).tolist()))
        const = (oracles.theorem1_lower if a["side"] == "lower" else oracles.theorem1_upper)(a["law"], a["p"], a["q"])
        if not (chk["holds"] and rep["all_hold"]):
            return f"moment bound reported violated: {chk}"
        return (
            _close("i_p", chk["i_p"], want_ip, EXACT)
            or _close("constant", chk["bound_constant"], const, EXACT)
            or _close("rhs", chk["rhs"], const * scale, EXACT)
        )
    if op.oracle == "hanner":
        return _check_gap(rep["lhs"], rep["rhs"], rep["gap"], a["V"], a["q"], a["norm"])
    raise ValueError(f"no check for {op.oracle!r}")


def check(op: Op, out) -> Optional[str]:
    """None when ``out`` agrees with the oracle for ``op``, else the reason."""
    if isinstance(out, dict) and "error" in out:
        return out["error"]
    a = op.args
    if op.kind in ("ipf_exact", "ipf_two_valued_exact", "ipf_monte_carlo"):
        return _check_ip(op, out)
    if op.kind == "hanner_gap":
        return _check_gap(out["lhs"], out["rhs"], out["gap"], a["V"], a["q"], a["norm"])
    if op.kind == "falsify_hanner":
        # Hanner's inequality: l^q with q >= 2 has type (q, 2), so a search
        # for a type violation in the plane of two vectors finds none
        return None if out is None else f"spurious type violation {out['violation']!r} at trial {out['trial_index']}"
    if op.kind == "subset_power_ratio":
        return _check_subsets(a["x"], a["k"], a["alpha"], out)
    if op.kind == "norm_eval_many":
        want = _gauge(a["norm"], op.oracle)(a["pts"])
        err = float(np.max(np.abs(np.asarray(out) - want) / want))
        return None if err <= LP else f"gauge off by rel {err:.2e}"
    if op.kind == "estimate_comparison":
        return _check_comparison(a["a"], a["b"], out)
    if op.kind == "theorem2_general_lower":
        return _check_thm2(a, out)
    if op.kind == "upper_bound_via_transform":
        return _check_transform(a, out)
    if op.kind == "cli":
        return _check_cli(op, out)
    raise ValueError(f"no check for operation kind {op.kind!r}")
