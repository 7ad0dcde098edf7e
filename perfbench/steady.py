"""Steadiness of the end-to-end metrics over repeated runs.

    python3 perfbench/steady.py --runs 10 --seed0 100 --label A
    python3 perfbench/steady.py --compare .perfbench/steady-A.json .perfbench/steady-B.json

Runs every workload ``--runs`` times through run.py, one fresh seed per
round, alternating the workload order from round to round.  For each
end-to-end metric it prints the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json, plus
the operations attempted and failed.  ``--runs 1`` runs every workload
once.  Each set is saved with its environment under ``.perfbench/``;
``--compare`` checks that two saved sets agree: every median within its
bound of the other set's, in either direction, and the same share of
failed operations.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, median(values), q3


def summarize(record: dict) -> list[dict]:
    rows = []
    bounds = {m["name"]: m["bound"] for m in record["spec"]["end_to_end"]}
    for workload, runs in record["runs"].items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = _quartiles(values)
            rows.append(dict(workload=workload, metric=name, unit=runs[0]["metrics"][name]["unit"],
                             median=med, q1=q1, q3=q3,
                             spread=(q3 - q1) / med, bound=bound,
                             attempted=sum(r["attempted"] for r in runs), failed=sum(r["failed"] for r in runs),
                             correct=all(r["correct"] for r in runs)))
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':13s} {'metric':12s} {'unit':4s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}"
          f" {'attempted':>9s} {'failed':>7s} correct")
    for r in rows:
        print(f"{r['workload']:13s} {r['metric']:12s} {r['unit']:4s} {r['median']:10.4f} {r['q1']:10.4f} {r['q3']:10.4f}"
              f" {r['spread']:7.4f} {r['bound']:6.2f} {r['attempted']:9d} {r['failed']:7d} {r['correct']}")


def run_set(runs: int, seed0: int, workloads: list[str], seconds: int) -> dict:
    record = {"runs": {w: [] for w in workloads}, "seeds": []}
    for i in range(runs):
        seed = seed0 + i
        record["seeds"].append(seed)
        for w in workloads if i % 2 == 0 else workloads[::-1]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                raise RuntimeError(f"{w} seed {seed} failed:\n{proc.stderr[-2000:]}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            result["info"] = json.loads(lines[-2][2:])
            record["runs"][w].append(result)
            vals = " ".join(f"{k}={v['value']:.4f} {v['unit']}" for k, v in result["metrics"].items())
            print(f"round {i} {w:13s} seed {seed}: {vals} attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}", flush=True)
    return record


def compare(a: dict, b: dict) -> bool:
    ok = True
    rows_b = {(r["workload"], r["metric"]): r for r in summarize(b)}
    for ra in summarize(a):
        rb = rows_b[(ra["workload"], ra["metric"])]
        change = rb["median"] / ra["median"] - 1.0
        share_a, share_b = ra["failed"] / ra["attempted"], rb["failed"] / rb["attempted"]
        good = abs(change) <= ra["bound"] and share_a == share_b
        ok = ok and good
        print(f"{ra['workload']:13s} {ra['metric']:12s} {ra['median']:10.4f} -> {rb['median']:10.4f}"
              f" ({change:+.4f}, bound {ra['bound']:.2f}) failed share {share_a:.6f} / {share_b:.6f}"
              f" {'ok' if good else 'DIFFERS'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--label", default="latest")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(a, b) else 1

    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    record = run_set(args.runs, args.seed0, workloads, spec["run_seconds"])
    record.update(spec=spec, environment=dict(environment(), git_sha=_git_sha(), run_seconds=spec["run_seconds"]))
    rows = summarize(record)
    record["summary"] = rows
    out = Path.cwd() / ".perfbench" / f"steady-{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(record["environment"]))
    print_rows(rows)
    print(f"saved {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
