"""One workload in one fresh interpreter: set up, then time whole passes.

Started by run.py with khbm's source directory on PYTHONPATH.  Prints a
single JSON object on stdout: the clock reading when set-up finished,
the pass wall times, the outputs of the first pass (the checker compares
them with the oracles), whether every later pass repeated them exactly,
peak RSS and, when traced, the per-layer metrics; a traced run also
writes its last traced pass's spans into the --tmp directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import resource
import sys
import time
import warnings
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

MIN_PASSES = 3
TRACE_FILE = "trace.npz"  # the last traced pass's spans, written into --tmp


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


class Calls:
    """Turns workload operations into calls on khbm, made at call time
    through the module attributes, so an installed tracer sees them."""

    def __init__(self, tmp: Path):
        import khbm
        from khbm import banach_mazur, cli, combinatorics, functional, hanner, norms

        self.k, self.fn, self.hn, self.cb, self.nm, self.bm, self.cli = (
            khbm, functional, hanner, combinatorics, norms, banach_mazur, cli)
        self.tmp = tmp
        self._norms: dict[int, object] = {}

    def norm(self, spec):
        if spec[0] == "lp":
            return self.k.LpNorm(spec[1], spec[2])
        key = id(spec[1])
        if key not in self._norms:
            self._norms[key] = self.k.PolytopeGauge(spec[1])
        return self._norms[key]

    def make(self, op, minimal: bool = False):
        """A zero-argument callable for ``op``; ``minimal`` shrinks it to the
        smallest call into the same entry point."""
        a, fn, hn, cb, nm, bm = op.args, self.fn, self.hn, self.cb, self.nm, self.bm
        V = a.get("V")
        if minimal and V is not None:
            V = V[:1]
        if op.kind == "ipf_exact":
            law, norm = self.k.SymmetricAtoms(a["law"]), self.norm(a["norm"])
            return lambda: fn.ipf_exact(V, law, a["p"], norm)
        if op.kind == "ipf_two_valued_exact":
            norm = self.norm(a["norm"])
            return lambda: fn.ipf_two_valued_exact(V, a["t"], a["p"], norm)
        if op.kind == "ipf_monte_carlo":
            law, norm = self.k.SymmetricAtoms(a["law"]), self.norm(a["norm"])
            samples = 2 if minimal else a["samples"]
            return lambda: fn.ipf_monte_carlo(V, law, a["p"], norm, samples, a["seed"])
        if op.kind == "hanner_gap":
            norm = self.norm(a["norm"])
            return lambda: hn.hanner_gap(norm, V, a["q"])
        if op.kind == "falsify_hanner":
            norm = self.norm(a["norm"])
            trials = 1 if minimal else a["trials"]
            return lambda: hn.falsify_hanner(norm, a["q"], a["n"], a["d"], a["mode"], trials, a["seed"])
        if op.kind == "subset_power_ratio":
            x = a["x"][:2] if minimal else a["x"]
            inp = self.k.SubsetRatioInput(x, 1 if minimal else a["k"], a["alpha"])
            return lambda: cb.subset_power_ratio(inp)
        if op.kind == "norm_eval_many":
            norm, pts = self.norm(a["norm"]), a["pts"][:1] if minimal else a["pts"]
            return lambda: nm.norm_eval_many(norm, pts)
        if op.kind == "estimate_comparison":
            na, nb = self.norm(a["a"]), self.norm(a["b"])
            trials = 1 if minimal else a["trials"]
            return lambda: nm.estimate_comparison(na, nb, trials, a["seed"])
        if op.kind == "theorem2_general_lower":
            if minimal:
                small = self.k.LpNorm(2.0, a["n"])
                return lambda: bm.theorem2_general_lower(small, a["n"], 1, a["seed"])
            norm = self.norm(a["norm"])
            return lambda: bm.theorem2_general_lower(norm, a["n"], a["trials"], a["seed"])
        if op.kind == "upper_bound_via_transform":
            K, L = self.norm(a["K"]), self.norm(a["L"])
            return lambda: bm.upper_bound_via_transform(K, L, a["T"])
        if op.kind == "cli":
            argv = ["constants", "--p", "2"] if minimal else self._argv(op)
            return lambda: self._cli(argv)
        raise ValueError(f"unknown operation kind {op.kind!r}")

    def _argv(self, op) -> list[str]:
        import numpy as np

        paths = {}
        for key, rows in op.files.items():
            path = self.tmp / f"{op.name}.{key}.csv"
            np.savetxt(path, rows, delimiter=",", fmt="%.17g")
            paths[key] = str(path)
        return [arg.format(**paths) for arg in op.args["argv"]]

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def run_pass(calls) -> tuple[float, list]:
    gc.collect()
    outs = []
    t0 = time.perf_counter()
    for call in calls:
        try:
            outs.append(call())
        except Exception as exc:  # an operation that raises is a failed operation
            outs.append({"error": f"{type(exc).__name__}: {exc}"})
    return time.perf_counter() - t0, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tmp", required=True, help="scratch directory for input files and the trace")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore", RuntimeWarning)  # the large-p overflow warns on every pass

    # set-up: import, inputs, one minimal call into each entry point
    import khbm  # noqa: F401
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    maker = Calls(Path(args.tmp))
    calls = [maker.make(op) for op in ops]
    first_of_kind = {op.kind: op for op in reversed(ops)}
    for op in first_of_kind.values():
        maker.make(op, minimal=True)()
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    # the first pass in a process runs slower; it is checked but not timed
    start = time.perf_counter()
    _, first = run_pass(calls)
    reference = json.dumps(_jsonable(first))
    passes, identical = 1, True
    walls, traced_walls, layers = [], [], []
    while True:
        traced = tracer is not None and len(traced_walls) < len(walls)
        if traced:
            tracer.reset()
            tracer.install()
        wall, outs = run_pass(calls)
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
            layers.append(tracer.summarize())
        else:
            walls.append(wall)
        passes += 1
        identical = identical and json.dumps(_jsonable(outs)) == reference
        measured = min(len(walls), len(traced_walls)) if tracer else len(walls)
        elapsed = time.perf_counter() - start
        if measured >= MIN_PASSES and elapsed + median(walls + traced_walls) > args.seconds:
            break

    result = {
        "ready": ready,
        "walls": walls,
        "passes": passes,
        "identical": identical,
        "outputs": json.loads(reference),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        metrics = {key: median(pass_[key] for pass_ in layers) for key in layers[0]}
        metrics["trace.wall_s"] = median(traced_walls)
        metrics["trace.overhead"] = median(traced_walls) / median(walls)
        result["layers"] = metrics
        tracer.save(Path(args.tmp) / TRACE_FILE)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
