"""Command-line front end: every module as a subcommand, reproducible by seed.

Reports stream to stdout as JSON (sorted keys, so identical argv and
seed give byte-identical output) or as CSV with 17-significant-digit
numbers.  Exit codes: 0 all checks passed, 1 a checked inequality was
violated (the report carries the witness), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import sys
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import __version__
from . import tolerances as tol
from .acceptance import criterion_ids, run_criteria
from .banach_mazur import BMBoundReport, _check_sandwich_n, _consistent, hadamard_matrix, sandwich_report
from .combinatorics import SubsetRatioInput, verify_lemma1
from .constants import khinchine_constants
from .distributions import l2_lower_constant, parse_atoms
from .functional import BoundCheck, default_budget, ipf_exact, ipf_monte_carlo, verify_theorem1
from .hanner import falsify_hanner, hanner_gap
from .norms import LpNorm, describe_norm, parse_norm_spec

__all__ = ["main"]


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _jsonable(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return x
        return "inf" if x == math.inf else ("-inf" if x == -math.inf else "nan")
    return obj


def _flatten(obj: Any, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flatten(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    elif isinstance(obj, float):
        rows.append((prefix[:-1], _fmt(obj)))
    else:
        rows.append((prefix[:-1], "" if obj is None else str(obj)))
    return rows


def _load_vectors(path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise UsageError(f"cannot read vector csv {path!r}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"malformed vector csv {path!r}: {exc}") from exc


def _x_hash(x: Sequence[float]) -> str:
    blob = ",".join(_fmt(float(t)) for t in x).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _envelope(args: argparse.Namespace, report: Any) -> dict:
    return {
        "version": __version__,
        "subcommand": args.cmd,
        "seed": getattr(args, "seed", 0),
        "budget": default_budget(),
        "slack": {"rel": tol.REL_SLACK, "abs": tol.ABS_SLACK},
        "report": report,
    }


def _emit(args: argparse.Namespace, payload: dict, rows: Optional[list[Sequence[str]]]) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")
        return
    buf = io.StringIO()
    meta = " ".join(
        f"{k}={v}" for k, v in (
            ("version", payload["version"]),
            ("seed", payload["seed"]),
            ("budget", payload["budget"]),
            ("rel_slack", _fmt(payload["slack"]["rel"])),
            ("abs_slack", _fmt(payload["slack"]["abs"])),
        )
    )
    buf.write(f"# {meta}\n")
    writer = csv.writer(buf, lineterminator="\n")
    if rows is None:
        writer.writerow(["key", "value"])
        writer.writerows(_flatten(_jsonable(payload["report"])))
    else:
        writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------- handlers


def _run_constants(args: argparse.Namespace) -> tuple[Any, Optional[list], int]:
    c = khinchine_constants(args.p)
    return c, None, 0


def _run_ipf(args: argparse.Namespace) -> tuple[Any, Optional[list], int]:
    v = _load_vectors(args.vectors)
    f = parse_atoms(args.atoms)
    norm = parse_norm_spec(args.norm)
    if args.method == "exact":
        res = ipf_exact(v, f, args.p, norm)
    else:
        res = ipf_monte_carlo(v, f, args.p, norm, samples=args.samples, seed=args.seed)
    report = dict(dataclasses.asdict(res), norm=describe_norm(norm), p=args.p, n=v.shape[0])
    return report, None, 0


def _run_lemma1(args: argparse.Namespace) -> tuple[Any, Optional[list], int]:
    alphas = (0.0, 0.5, 1.0, 2.0, 3.0)
    cases: list[tuple[tuple[float, ...], int, float]] = []
    if args.x is not None:
        if args.k is None or args.alpha is None:
            raise UsageError("--x requires --k and --alpha")
        x = tuple(float(t) for t in args.x.split(","))
        cases.append((x, args.k, args.alpha))
    elif args.random is not None:
        n, trials, sweep_seed = args.random
        if n < 1 or trials < 1 or sweep_seed < 0:
            raise UsageError("--random needs n >= 1, trials >= 1 and seed >= 0")
        rng = np.random.default_rng(sweep_seed)
        for _ in range(trials):
            x = tuple(float(t) for t in rng.uniform(0.0, 1.0, size=n))
            for k in range(1, n + 1):
                for alpha in alphas:
                    cases.append((x, k, alpha))
    else:
        raise UsageError("lemma1 needs either --x/--k/--alpha or --random n trials seed")

    entries = []
    rows: list[Sequence[str]] = [("x_hash", "k", "alpha", "ratio", "lo", "hi", "holds")]
    violated = False
    for x, k, alpha in cases:
        rep = verify_lemma1(SubsetRatioInput(x, k, alpha))
        violated = violated or not rep.holds
        h = _x_hash(x)
        entries.append(dict(dataclasses.asdict(rep), x_hash=h, x=list(x)))
        rows.append((h, str(k), _fmt(alpha), _fmt(rep.ratio), _fmt(rep.lower), _fmt(rep.upper), str(rep.holds)))
    return {"cases": entries, "all_hold": not violated}, rows, 1 if violated else 0


def _run_hanner(args: argparse.Namespace) -> tuple[Any, Optional[list], int]:
    norm = parse_norm_spec(args.norm)
    if args.vectors is not None:
        v = _load_vectors(args.vectors)
        rep = hanner_gap(norm, v, args.q, mode=args.mode)
        code = 1 if rep.verdict.startswith("violated") else 0
        return dict(dataclasses.asdict(rep), norm=describe_norm(norm)), None, code
    if args.mode is None:
        raise UsageError("falsification search requires --mode cotype|type (or pass --vectors for a single check)")
    if args.n is None or args.d is None:
        raise UsageError("falsification search requires --n and --d")
    found = falsify_hanner(norm, q=args.q, n=args.n, d=args.d, mode=args.mode, trials=args.trials, seed=args.seed)
    report = {
        "norm": describe_norm(norm),
        "q": args.q,
        "n": args.n,
        "d": args.d,
        "mode": args.mode,
        "trials": args.trials,
        "found": None if found is None else dict(
            dataclasses.asdict(found), witness=found.witness.rows.tolist()
        ),
    }
    return report, None, 1 if found is not None else 0


_METHOD_GROUPS = {
    "all": None,
    "thm2": ("thm2-general", "thm2-cotype"),
    "prop4": ("prop4",),
    "cor1": ("cor1",),
}


def _parse_transforms(text: str, n: int) -> list[tuple[str, np.ndarray]]:
    out: list[tuple[str, np.ndarray]] = []
    for token in text.split(","):
        token = token.strip()
        if token == "identity":
            out.append(("identity", np.eye(n)))
        elif token == "hadamard":
            out.append(("hadamard", hadamard_matrix(n)))
        elif token.startswith("diag:"):
            vec = np.atleast_1d(np.loadtxt(token[5:], delimiter=","))
            if vec.shape != (n,):
                raise UsageError(f"diag transform needs {n} entries, got shape {vec.shape}")
            out.append((token, np.diag(vec)))
        else:
            raise UsageError(f"unknown transform {token!r} (expected identity, hadamard or diag:<csv>)")
    if not out:
        raise UsageError("empty transform list")
    return out


def _filter_report(rep: BMBoundReport, methods: Optional[tuple[str, ...]]) -> BMBoundReport:
    if methods is None:
        return rep
    kept = tuple(lb for lb in rep.lower_bounds if lb.method in methods)
    return dataclasses.replace(rep, lower_bounds=kept, consistent=_consistent(kept, rep.known_exact, rep.upper_bound))


def _parse_exponent(text: str) -> float:
    try:
        val = float(text)
    except ValueError as exc:
        raise UsageError(f"bad exponent {text!r} (use a float >= 1 or 'inf')") from exc
    return val


def _run_bm(args: argparse.Namespace) -> tuple[Any, Optional[list], int]:
    p = _parse_exponent(args.pair[0])
    q = _parse_exponent(args.pair[1])
    try:
        n = int(args.pair[2])
    except ValueError as exc:
        raise UsageError(f"bad dimension {args.pair[2]!r}") from exc
    _check_sandwich_n(n)  # before the transforms allocate n x n
    transforms = None if args.transforms is None else _parse_transforms(args.transforms, n)
    rep = _filter_report(sandwich_report(p, q, n, transforms=transforms), _METHOD_GROUPS[args.methods])
    known = "" if rep.known_exact is None else _fmt(rep.known_exact)
    upper = "" if rep.upper_bound is None else _fmt(rep.upper_bound.value)
    rows: list[Sequence[str]] = [("method", "value", "witness_p", "rigorous", "known", "upper", "consistent")]
    for lb in rep.lower_bounds:
        rows.append(
            (
                lb.method,
                _fmt(lb.value),
                "" if lb.witness_p is None else _fmt(lb.witness_p),
                str(lb.rigorous),
                known,
                upper,
                str(rep.consistent),
            )
        )
    return rep, rows, 0 if rep.consistent else 1


def _run_verify_theorem1(args: argparse.Namespace) -> tuple[Any, Optional[list], int]:
    v = _load_vectors(args.vectors)
    f = parse_atoms(args.atoms)
    norm = parse_norm_spec(args.norm)
    sides = ("lower", "upper") if args.side == "both" else (args.side,)
    checks = [dataclasses.asdict(verify_theorem1(v, f, args.p, args.q, norm, side=s)) for s in sides]
    if args.paper_l2_constant:
        # probe of the stronger euclidean lower constant (max of the two
        # exponent branches); it is not asserted anywhere else because it
        # fails on small-support laws, and a failure here is a finding
        if not (isinstance(norm, LpNorm) and norm.r == 2.0):
            raise UsageError("--paper-l2-constant requires a euclidean norm (lp:2:<d>)")
        ip = ipf_exact(v, f, args.p, norm).value
        c = l2_lower_constant(f, args.p, paper_variant=True)
        rhs = c * float(np.sqrt((np.asarray(v, dtype=float) ** 2).sum()))
        checks.append(
            dataclasses.asdict(
                BoundCheck(
                    side="lower-l2-max-variant", i_p=ip, bound_constant=c, rhs=rhs, margin=ip - rhs,
                    holds=tol.geq(ip, rhs), witness_s=None,
                )
            )
        )
    all_hold = all(c["holds"] for c in checks)
    report = {
        "norm": describe_norm(norm),
        "p": args.p,
        "q": args.q,
        "checks": checks,
        "all_hold": all_hold,
    }
    return report, None, 0 if all_hold else 1


def _run_acceptance(args: argparse.Namespace) -> tuple[Any, Optional[list], int]:
    ids = args.criterion if args.criterion else list(criterion_ids())
    results = run_criteria(ids, args.seed)
    rows: list[Sequence[str]] = [("criterion", "name", "passed", "detail")]
    for r in results:
        rows.append((str(r.cid), r.name, str(r.passed), r.detail))
    all_passed = all(r.passed for r in results)
    report = {"criteria": [dataclasses.asdict(r) for r in results], "all_passed": all_passed}
    return report, rows, 0 if all_passed else 1


# ---------------------------------------------------------------- parser


def _seed(text: str) -> int:
    # numpy's generators take no negative seed; every subcommand refuses one, not only those that draw
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=_seed, default=0, help="seed for every randomized step (default 0)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache  # parsing never mutates the parser, so one per process serves every main() call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="khbm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"khbm {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("constants", help="moment-comparison constants for one exponent")
    sp.add_argument("--p", type=float, required=True)
    _add_common(sp)

    sp = sub.add_parser("ipf", help="p-th moment of a signed-law vector sum")
    sp.add_argument("--vectors", required=True, help="csv file, one vector per row")
    sp.add_argument("--atoms", required=True, help="law spec: atoms:a1,t1;a2,t2;...")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--norm", required=True, help="lp:<r>:<d> or polytope:<vertex csv>")
    sp.add_argument("--method", choices=("exact", "mc"), default="exact")
    sp.add_argument("--samples", type=int, default=100_000)
    _add_common(sp)

    sp = sub.add_parser("lemma1", help="subset power-sum ratio bounds")
    sp.add_argument("--x", help="comma-separated nonnegative entries")
    sp.add_argument("--k", type=int)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--random", nargs=3, type=int, metavar=("N", "TRIALS", "SEED"), help="sweep mode")
    _add_common(sp)

    sp = sub.add_parser("hanner", help="sign-sum inequality checks and counterexample search")
    sp.add_argument("--norm", required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--mode", choices=("cotype", "type"))
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--vectors", help="csv file for a single exact check")
    _add_common(sp)

    sp = sub.add_parser("bm", help="distance bounds between two classical balls")
    sp.add_argument("--pair", nargs=3, required=True, metavar=("P", "Q", "N"))
    sp.add_argument("--methods", choices=tuple(_METHOD_GROUPS), default="all")
    sp.add_argument("--transforms", help="comma list: identity,hadamard,diag:<csv>")
    _add_common(sp)

    sp = sub.add_parser("verify-theorem1", help="check the two-sided moment bound on one instance")
    sp.add_argument("--vectors", required=True)
    sp.add_argument("--atoms", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--norm", required=True)
    # the two sides have disjoint exponent preconditions (q <= p vs
    # q >= p), so "both" is only satisfiable at p == q; no silent default
    sp.add_argument("--side", choices=("lower", "upper", "both"), required=True)
    sp.add_argument(
        "--paper-l2-constant",
        action="store_true",
        help="also check the stronger (max-form) euclidean lower constant;"
        " it can fail on small-support laws, and then the exit code is 1",
    )
    _add_common(sp)

    sp = sub.add_parser("acceptance", help="run the numbered acceptance criteria")
    sp.add_argument("--criterion", type=int, action="append", help="run one criterion (repeatable)")
    _add_common(sp)

    return parser


_DISPATCH: dict[str, Callable[[argparse.Namespace], tuple[Any, Optional[list], int]]] = {
    "constants": _run_constants,
    "ipf": _run_ipf,
    "lemma1": _run_lemma1,
    "hanner": _run_hanner,
    "bm": _run_bm,
    "verify-theorem1": _run_verify_theorem1,
    "acceptance": _run_acceptance,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, rows, code = _DISPATCH[args.cmd](args)
        # the envelope reads KHBM_BUDGET, which can be malformed
        payload = _envelope(args, report)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, payload, rows if args.format == "csv" else None)
    return code


if __name__ == "__main__":
    sys.exit(main())
