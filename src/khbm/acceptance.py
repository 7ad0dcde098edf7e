"""One-shot acceptance suite: ten numbered deterministic checks.

Each criterion is a pure function of a base seed.  Per-criterion seeds
are derived through ``numpy.random.SeedSequence`` spawn keys so the
criteria stay independent: rerunning one never perturbs another.  The
suite doubles as the CLI ``acceptance`` subcommand and as the backing
for the pytest acceptance module, so both surfaces agree by
construction.

``run_criteria`` runs a list of criteria in lanes, one per available
core (``functional._WORKERS``) and no more than there are distinct
criteria: the calling process is one lane and ``os.fork()``ed children
are the others.  The lanes share a queue, a pipe holding one byte per
criterion in id order, and each takes its next criterion until the pipe
is empty.  A child sends each result it finishes through its own pipe
and leaves with ``os._exit``, so it never returns into the caller,
flushes inherited stdio or runs exit hooks.  Processes, not threads,
because the criteria's tiny calls hold the interpreter lock; a fork,
not a fresh interpreter, because it costs no start-up or import.  The
suite falls back to the serial loop when the platform cannot fork, when
other threads are alive (a child could deadlock on a lock held by a
thread that does not exist in it) or when one lane would do.  The bits
cannot change: a result depends on its criterion id and base seed
alone, not on the lane or the order that ran it, and any criterion
whose result did not arrive, because it raised or its child died, is
run again by the caller in serial order, so an error is the one the
serial loop raises.  A lane that raises empties the queue, so the
others stop after the criterion in hand.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import functional
from . import tolerances as tol
from .banach_mazur import corollary1_lower, sandwich_report, theorem2_cotype_lower
from .combinatorics import SubsetRatioInput, subset_power_ratio, verify_lemma1
from .constants import khinchine_constants
from .distributions import SymmetricAtoms, rademacher
from .functional import (
    _ipf_exact_many,
    _random_law,
    check_argument_norm_axioms,
    check_barycenter_reduction,
    check_level_monotonicity,
    check_value_norm_axioms,
    ipf_exact,
    ipf_monte_carlo,
    ipf_two_valued_exact,
    verify_theorem1,
)
from .hanner import falsify_hanner, hanner_gap, hlawka_check
from .norms import LpNorm

__all__ = ["CriterionResult", "criterion_ids", "run_criteria", "run_criterion"]


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str


def _subseed(base_seed: int, cid: int) -> int:
    return int(np.random.SeedSequence(base_seed, spawn_key=(cid,)).generate_state(1, np.uint64)[0])


def _c1_constants(seed: int) -> tuple[bool, str]:
    # closed forms at p = 2, 1, 4
    c2 = khinchine_constants(2.0)
    exact2 = c2.a_p == 1.0 and c2.b_p == 1.0
    a1 = khinchine_constants(1.0).a_p
    b4 = khinchine_constants(4.0).b_p
    err_a1 = abs(a1 - 2.0**-0.5) / 2.0**-0.5
    err_b4 = abs(b4 - 3.0**0.25) / 3.0**0.25
    ok = exact2 and err_a1 <= 1e-12 and err_b4 <= 1e-12
    return ok, (
        f"a_2={c2.a_p!r} b_2={c2.b_p!r} (exact: {exact2}); "
        f"rel err a_1={err_a1:.2e}, b_4={err_b4:.2e}"
    )


def _c2_classical(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    law = rademacher()
    norm = LpNorm(2.0, 1)
    ps = (1.0, 1.5, 2.0, 3.0, 4.0)
    failures = 0
    worst = math.inf
    cases = []
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        p = float(ps[rng.integers(len(ps))])
        cases.append((rng.standard_normal((n, 1)), law, p))
    for (v, _, p), res in zip(cases, _ipf_exact_many(cases, norm)):
        ip = res.value
        l2 = float(np.sqrt((v**2).sum()))
        cons = khinchine_constants(p)
        lo_ok = tol.geq(ip, cons.a_p * l2, rel=1e-9)
        hi_ok = tol.leq(ip, cons.b_p * l2, rel=1e-9)
        worst = min(worst, ip - cons.a_p * l2, cons.b_p * l2 - ip)
        if not (lo_ok and hi_ok):
            failures += 1
    return failures == 0, f"1000 cases, {failures} failures, worst margin {worst:.3e}"


def _c3_two_valued(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    cases = 0
    for n in range(1, 9):
        for t in (0.125, 0.25, 0.5):
            for p in (1.0, 1.5, 2.0, 3.0):
                d = int(rng.integers(1, 4))
                norm = LpNorm(float(rng.choice([1.0, 2.0, math.inf])), d)
                a = float(rng.uniform(0.5, 2.0))
                v = rng.standard_normal((n, d))
                exact = ipf_exact(v, SymmetricAtoms(((a, t),)), p, norm).value
                # level a folds into the vectors by homogeneity
                two = ipf_two_valued_exact(a * v, t, p, norm).value
                worst = max(worst, abs(exact - two) / max(exact, two))
                cases += 1
    return worst <= 1e-12, f"{cases} single-atom cases, max rel route gap {worst:.3e}"


def _c4_monte_carlo(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    hits = 0
    worst_sigma = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        f = _random_law(rng, max_atoms=2)
        v = rng.standard_normal((n, d))
        norm = LpNorm(2.0, d)
        exact = ipf_exact(v, f, p, norm).pth_power
        mc = ipf_monte_carlo(v, f, p, norm, samples=100_000, seed=int(rng.integers(2**31)))
        sigmas = abs(mc.pth_power - exact) / mc.stderr
        worst_sigma = max(worst_sigma, sigmas)
        if sigmas <= 4.0:
            hits += 1
    return hits >= 19, f"{hits}/20 within 4 stderr, worst deviation {worst_sigma:.2f} sigma"


def _c5_moment_bounds(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    fail_lo = fail_hi = 0
    worst = math.inf
    for _ in range(500):
        q = float(rng.choice([1.0, 1.5, 2.0]))
        p = q + float(rng.uniform(0.0, 3.0))
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 5))
        v = rng.standard_normal((n, d))
        chk = verify_theorem1(v, _random_law(rng), p, q, LpNorm(q, d), side="lower", rel_slack=1e-9)
        worst = min(worst, chk.margin)
        if not chk.holds:
            fail_lo += 1
    for _ in range(500):
        q = float(rng.choice([2.0, 3.0, 4.0]))
        p = 1.0 + float(rng.uniform(0.0, 1.0)) * (q - 1.0)
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 5))
        v = rng.standard_normal((n, d))
        chk = verify_theorem1(v, _random_law(rng), p, q, LpNorm(q, d), side="upper", rel_slack=1e-9)
        worst = min(worst, chk.margin)
        if not chk.holds:
            fail_hi += 1
    ok = fail_lo == 0 and fail_hi == 0
    return ok, f"500+500 cases, {fail_lo} lower / {fail_hi} upper failures, min margin {worst:.3e}"


def _c6_structure(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    fails = {"level": 0, "chain": 0, "p-mono": 0, "l2-identity": 0}
    worst_id = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        v = rng.standard_normal((n, d))
        norm = LpNorm(float(rng.choice([1.0, 2.0, math.inf])), d)
        f = _random_law(rng)
        shrink = float(rng.uniform(0.3, 1.0))
        g = SymmetricAtoms(tuple((a * shrink, t) for a, t in f.atoms))
        p = float(rng.uniform(1.0, 4.0))
        mono = check_level_monotonicity(v, p, norm, f, g)
        if not mono.holds:
            fails["level"] += 1
        if not check_barycenter_reduction(v, p, norm, f).holds:
            fails["chain"] += 1
        hi = p + float(rng.uniform(0.0, 2.0))
        i_lo = mono.i_p_f  # ipf_exact(v, f, p, norm).value, computed once
        i_hi = ipf_exact(v, f, hi, norm).value
        if not tol.leq(i_lo, i_hi, rel=1e-9):
            fails["p-mono"] += 1
        # closed form at p = 2 under the Euclidean norm
        e2 = LpNorm(2.0, d)
        second_moment = 2.0 * sum(t * a * a for a, t in f.atoms)
        lhs = ipf_exact(v, f, 2.0, e2).pth_power
        rhs = second_moment * float((v**2).sum())
        rel = abs(lhs - rhs) / max(lhs, rhs)
        worst_id = max(worst_id, rel)
        if rel > 1e-9:
            fails["l2-identity"] += 1
    ok = not any(fails.values())
    return ok, f"200 cases/property, failures {fails}, max p=2 identity rel err {worst_id:.3e}"


def _c7_subset_ratio(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    alphas = (0.0, 0.5, 1.0, 2.0, 3.0)
    checked = 0
    violations = 0
    while checked < 1000:
        n = int(rng.integers(1, 9))
        x = tuple(float(t) for t in rng.uniform(0.0, 1.0, size=n) ** 2)
        if sum(x) == 0.0:
            continue
        for k in range(1, n + 1):
            for alpha in alphas:
                rep = verify_lemma1(SubsetRatioInput(x, k, alpha))
                checked += 1
                if not rep.holds:
                    violations += 1
    sharp_bad = 0
    for n in range(1, 9):
        axis = tuple([1.0] + [0.0] * (n - 1))
        ones = tuple([1.0] * n)
        for k in range(1, n + 1):
            for alpha in alphas:
                if alpha > 0.0 and subset_power_ratio(SubsetRatioInput(axis, k, alpha)) != k / n:
                    sharp_bad += 1
                r_ones = subset_power_ratio(SubsetRatioInput(ones, k, alpha))
                want = (k / n) ** alpha
                # float exponentiation order costs at most one ulp here
                if abs(r_ones - want) > 5e-16 * want:
                    sharp_bad += 1
    ok = violations == 0 and sharp_bad == 0
    return ok, f"{checked} ratio checks, {violations} bound violations, {sharp_bad} sharpness misses"


def _c8_hanner(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    problems: list[str] = []
    worst_l2 = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        rep = hanner_gap(LpNorm(2.0, d), rng.standard_normal((n, d)), 2.0)
        rel = abs(rep.gap) / max(rep.lhs, rep.rhs)
        worst_l2 = max(worst_l2, rel)
        if rel > 1e-9:
            problems.append(f"euclidean gap {rel:.2e}")
    found = falsify_hanner(LpNorm(1.0, 2), q=1.0, n=2, d=2, mode="type", trials=10_000, seed=seed)
    if found is None:
        problems.append("no type-(1,2) counterexample found for the absolute-sum norm in the plane")
    for p in (1.0, 1.5, 2.0):
        for n in (2, 3, 4):
            for d in (2, 4):
                hit = falsify_hanner(LpNorm(p, d), q=p, n=n, d=d, mode="cotype", trials=10_000, seed=seed + n + d)
                if hit is not None:
                    problems.append(f"spurious cotype-{p:g} violation at n={n}, d={d}: {hit.violation:.2e}")
    for p in (2.0, 3.0, 4.0):
        for n in (2, 3, 4):
            for d in (2, 4):
                hit = falsify_hanner(LpNorm(p, d), q=p, n=n, d=d, mode="type", trials=10_000, seed=seed + 7 * n + d)
                if hit is not None:
                    problems.append(f"spurious type-{p:g} violation at n={n}, d={d}: {hit.violation:.2e}")
    hlawka_fails = 0
    for r in (1.0, 2.0):
        # one draw of 10^4 triples continues the per-triple stream bitwise
        x, y, z = np.moveaxis(rng.standard_normal((10_000, 3, 3)), 1, 0)
        hlawka_fails += int(np.count_nonzero(~hlawka_check(LpNorm(r, 3), x, y, z).holds))
    if hlawka_fails:
        problems.append(f"{hlawka_fails} three-vector inequality failures")
    ok = not problems
    return ok, "; ".join(problems) if problems else (
        f"euclidean gap <= {worst_l2:.2e}; planar counterexample found; "
        "no spurious violations in 10^4-trial searches; three-vector inequality clean"
    )


def _c9_banach_mazur(seed: int) -> tuple[bool, str]:
    problems: list[str] = []
    grid = (2, 3, 4, 5, 8, 16, 32, 100, 1000, 10_000, 100_000, 1_000_000)
    worst = 0.0
    for n in grid:
        got = corollary1_lower(1.0, math.inf, n)
        want = math.sqrt(n / 2.0)
        rel = abs(got - want) / want
        worst = max(worst, rel)
        if rel > 1e-12:
            problems.append(f"crosspolytope-vs-cube value off at n={n}: rel {rel:.2e}")
    rep = sandwich_report(1.0, math.inf, 2)
    ub = rep.upper_bound
    max_low = max(lb.value for lb in rep.lower_bounds if lb.rigorous)
    if rep.known_exact != 1.0 or ub is None:
        problems.append("planar sandwich lacks exact value or upper bound")
    elif not (abs(ub.value - 1.0) <= 1e-12 and abs(max_low - 1.0) <= 1e-12 and rep.consistent):
        problems.append(f"planar sandwich not pinched at 1: lower {max_low!r}, upper {ub.value!r}")
    for q in (2.0, 3.0, 4.0, math.inf):
        for n in range(2, 17):
            r = sandwich_report(math.inf, q, n)
            known = 1.0 if math.isinf(q) else float(n) ** (1.0 / q)
            if r.known_exact is None or not tol.close(r.known_exact, known):
                problems.append(f"missing known value for (inf, {q:g}, {n})")
                continue
            for lb in r.lower_bounds:
                if lb.rigorous and not tol.leq(lb.value, known, rel=1e-9):
                    problems.append(f"lower {lb.method} exceeds known at (inf, {q:g}, {n}): {lb.value}")
            if not r.consistent:
                problems.append(f"inconsistent report at (inf, {q:g}, {n})")
    worst_cot = 0.0
    for n in range(2, 17):
        got = theorem2_cotype_lower(LpNorm(2.0, n), 2.0, n).raw
        rel = abs(got - math.sqrt(n)) / math.sqrt(n)
        worst_cot = max(worst_cot, rel)
        if rel > 1e-9:
            problems.append(f"euclidean cotype bound off at n={n}: rel {rel:.2e}")
    ok = not problems
    return ok, "; ".join(problems[:4]) if problems else (
        f"closed form rel err <= {worst:.2e} up to n=10^6; planar pair pinched at 1; "
        f"60 cube reports consistent; cotype bound rel err <= {worst_cot:.2e}"
    )


def _c10_norm_axioms(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    f = SymmetricAtoms(((1.5, 0.2), (0.5, 0.15)))
    value_rep = check_value_norm_axioms(f, p=1.5, norm=LpNorm(2.0, 3), trials=1000, seed=seed)
    v = rng.standard_normal((3, 2))
    while float(np.abs(v.sum(axis=0)).max()) < 0.1:
        v = rng.standard_normal((3, 2))
    arg_rep = check_argument_norm_axioms(v, p=2.5, trials=1000, seed=seed)
    try:
        check_argument_norm_axioms(np.array([[1.0, -2.0], [-1.0, 2.0]]), p=2.0, trials=1)
        precondition_fired = False
    except ValueError:
        precondition_fired = True
    ok = value_rep.passed and arg_rep.passed and precondition_fired
    return ok, (
        f"value-argument suite: {value_rep.passed} (hom {value_rep.homogeneity_max_rel_err:.1e}); "
        f"law-argument suite: {arg_rep.passed}; "
        f"zero-sum precondition error fired: {precondition_fired}"
    )


_CRITERIA: tuple[tuple[int, str, Callable[[int], tuple[bool, str]]], ...] = (
    (1, "constants-closed-forms", _c1_constants),
    (2, "classical-rademacher-reproduction", _c2_classical),
    (3, "two-valued-route-equivalence", _c3_two_valued),
    (4, "monte-carlo-consistency", _c4_monte_carlo),
    (5, "moment-bounds-desk-scale", _c5_moment_bounds),
    (6, "structure-properties", _c6_structure),
    (7, "subset-power-ratio-bounds", _c7_subset_ratio),
    (8, "sign-inequality-suite", _c8_hanner),
    (9, "distance-sandwich-suite", _c9_banach_mazur),
    (10, "norm-axiom-suites", _c10_norm_axioms),
)


def criterion_ids() -> tuple[int, ...]:
    return tuple(cid for cid, _, _ in _CRITERIA)


def _unknown(cid: int) -> ValueError:
    return ValueError(f"unknown criterion id {cid}; valid ids are 1..{len(_CRITERIA)}")


def run_criterion(cid: int, base_seed: int = 0) -> CriterionResult:
    for k, name, fn in _CRITERIA:
        if k == cid:
            passed, detail = fn(_subseed(base_seed, k))
            return CriterionResult(cid=k, name=name, passed=passed, detail=detail)
    raise _unknown(cid)


def run_criteria(ids: Sequence[int], base_seed: int = 0) -> list[CriterionResult]:
    """``[run_criterion(c, base_seed) for c in ids]``, in lanes of forked processes.

    Every id is checked before any criterion runs.  A repeated id
    repeats its result, not its work.
    """
    for cid in ids:
        if cid not in criterion_ids():
            raise _unknown(cid)
    todo = list(dict.fromkeys(ids))
    lanes = min(functional._WORKERS, len(todo))
    forks = lanes > 1 and hasattr(os, "fork") and threading.active_count() == 1
    done = _run_lanes(todo, base_seed, lanes) if forks else {}
    for cid in todo:  # what no lane delivered, in serial order: an error raises here again
        if cid not in done:
            done[cid] = run_criterion(cid, base_seed)
    return [done[cid] for cid in ids]


def _run_lanes(todo: list[int], base_seed: int, lanes: int) -> dict[int, CriterionResult]:
    """The results, by id, that ``lanes`` processes sharing the criteria of ``todo`` delivered."""
    done: dict[int, CriterionResult] = {}
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(todo))))  # at most ten bytes, far below a pipe's capacity
    os.close(feed)

    def lane(deliver: Callable[[CriterionResult], object]) -> None:
        try:
            for index in iter(lambda: os.read(queue, 1), b""):
                deliver(run_criterion(todo[index[0]], base_seed))
        finally:
            # a lane that stops on an error empties the queue, so the others stop after the
            # criterion in hand and the serial rerun meets the error without running the rest
            os.read(queue, len(todo))

    children: list[int] = []  # pids not yet reaped
    pipes: list[int] = []  # read ends of their result pipes not yet closed
    try:
        for _ in range(lanes - 1):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: go on with the lanes there are
                os.close(out)
                os.close(into)
                break
            if pid == 0:
                try:
                    os.close(out)
                    with os.fdopen(into, "wb") as sink:

                        def send(res: CriterionResult) -> None:
                            pickle.dump(res, sink)
                            sink.flush()

                        lane(send)
                finally:
                    os._exit(0)
            os.close(into)
            children.append(pid)
            pipes.append(out)
        try:
            lane(lambda res: done.__setitem__(res.cid, res))
        except Exception:
            pass  # run_criteria runs it again in serial order, which raises it again
        while pipes:
            with os.fdopen(pipes.pop(), "rb") as source:
                while True:
                    try:
                        res = pickle.load(source)
                    except (EOFError, pickle.UnpicklingError):  # the end, or a child cut short
                        break
                    done[res.cid] = res
        while children:
            os.waitpid(children[-1], 0)
            children.pop()
    finally:
        os.close(queue)
        for out in pipes:  # left only when unwinding: an error or an interrupt
            os.close(out)
        if children:
            from signal import SIGKILL

            for pid in children:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return done
