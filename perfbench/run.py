"""Run one workload of the khbm benchmark and print its metrics.

    python3 perfbench/run.py --workload exact-large --seed 1 --seconds 30 --trace 0

Run from the root of a khbm checkout; the package is imported from its
``src`` directory.  Set-up time is taken from fresh interpreters; the
workload itself runs in one more fresh interpreter (worker.py) with one
BLAS thread.  The outputs of the first pass are checked against the
independent oracles.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``), with
``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SETUP_SAMPLES = 5  # fresh interpreters whose set-up time gives the median
BLAS_THREADS = "1"
# A worker measures for --seconds after a warm-up pass and ends with one
# more pass; a traced one needs at least 2 * MIN_PASSES passes (up to
# about 10 s each) whatever --seconds is.
TIMEOUT_MARGIN_S = 70


def _env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("KHBM_")}
    env.update(
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS=BLAS_THREADS,
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def _run(cmd: list[str], env: dict[str, str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return t0, proc


def import_times(env: dict[str, str]) -> dict[str, float]:
    """``import khbm`` and the scipy part of it, from ``python -X importtime``."""
    _, proc = _run([sys.executable, "-X", "importtime", "-c", "import khbm"], env, TIMEOUT_MARGIN_S)
    nodes = []  # (depth, name, cumulative us, children), in post-order
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            depth = len(m.group(2)) // 2
            children = []
            while nodes and nodes[-1][0] > depth:
                children.append(nodes.pop())
            nodes.append((depth, m.group(3), int(m.group(1)), children))

    def scipy_us(node) -> int:
        depth, name, cum, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cum
        return sum(scipy_us(c) for c in children)

    khbm = next(n for n in nodes if n[1] == "khbm")
    return {"cli.import_s": khbm[2] / 1e6, "cli.import_scipy_s": scipy_us(khbm) / 1e6}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from worker import TRACE_FILE
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    root = Path.cwd()
    src = root / "src"
    if not (src / "khbm" / "__init__.py").is_file():
        print(f"error: no khbm sources under {src}; run from the root of a khbm checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(src / "khbm", quiet=1)
    env = _env(src)
    out_dir = root / ".perfbench"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp)]
    timeout = 3 * args.seconds + TIMEOUT_MARGIN_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                t0, proc = _run(worker + ["--setup-only"], env, timeout)
                setups.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - t0)
        t0, proc = _run(worker, env, timeout)
        res = json.loads(proc.stdout.splitlines()[-1])
        setups.append(res["ready"] - t0)
        layers = {}
        if args.trace:
            (tmp / TRACE_FILE).replace(out_dir / f"trace-{args.workload}.npz")
            layers = dict(res["layers"], **import_times(env))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    import checks

    ops = workloads.WORKLOADS[args.workload](args.seed)
    failing, wrong = 0, []
    for op, out in zip(ops, res["outputs"]):
        reason = checks.check(op, out)
        if reason is not None:
            failing += 1
            if not op.known_fault:
                wrong.append(f"{op.name}: {reason}")
    for line in wrong:
        print(f"# wrong: {line}", file=sys.stderr)
    if not res["identical"]:
        print("# wrong: a later pass did not repeat the first pass's outputs", file=sys.stderr)

    if args.trace:
        units = {m["name"]: m["unit"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": median(res["walls"]), "unit": "s"},
            "peak_rss_mb": {"value": res["rss_kb"] / 1024.0, "unit": "MB"},
        }
    info = dict(environment(), workload=args.workload, seed=args.seed, passes=res["passes"],
                pass_walls=res["walls"], setup_samples=setups)
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": not wrong and res["identical"],
        "attempted": res["passes"] * len(ops),
        "failed": res["passes"] * failing,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
