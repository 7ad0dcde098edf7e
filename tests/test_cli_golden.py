"""Pinned CLI outputs: every recorded argv reproduces its exit code and stdout byte for byte.

The argv list is ``golden_argvs()``; the recorded outputs live in
``tests/data/cli_golden.json``, and vector files named in an argv are
read from ``tests/data``.  A change meant to alter a pinned output
regenerates the file with ``python tests/test_cli_golden.py``, which
prints each changed argv with its changed lines, old -> new, for the
change's declaration.
"""

import contextlib
import difflib
import io
import json
import os
from pathlib import Path

from khbm.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

_EXPONENTS = ("1", "1.5", "2", "3", "inf")


def golden_argvs() -> list[list[str]]:
    argvs = [
        ["bm", "--pair", *pair, "--methods", methods, "--format", fmt]
        for pair in (("1", "inf", "8"), ("2.5", "4", "6"), ("1.5", "3", "4"))
        for methods in ("all", "thm2", "prop4", "cor1")
        for fmt in ("json", "csv")
    ]
    argvs += [["bm", "--pair", p, q, n] for n in ("2", "4") for p in _EXPONENTS for q in _EXPONENTS if p != q]
    argvs += [["constants", "--p", "3"], ["constants", "--p", "3", "--format", "csv"]]
    verify = ["verify-theorem1", "--norm", "lp:2:2", "--side", "lower"]
    argvs += [
        verify + ["--vectors", "basis.csv", "--atoms", "atoms:2,0.25;1,0.125", "--p", "3", "--q", "2"],
        verify + ["--vectors", "basis.csv", "--atoms", "atoms:1,0.5", "--p", "2", "--q", "1", "--format", "csv"],
        # the max-form euclidean constant overshoots I_1 on this small-support law: exit 1
        verify + ["--vectors", "axis.csv", "--atoms", "atoms:1,0.01", "--p", "1", "--q", "1", "--paper-l2-constant"],
    ]
    return argvs


def _replay(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_pinned_cli_outputs(monkeypatch):
    monkeypatch.chdir(DATA)
    monkeypatch.delenv("KHBM_BUDGET", raising=False)
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == golden_argvs()
    changed = [
        " ".join(entry["argv"])
        for entry in golden
        if _replay(entry["argv"]) != (entry["exit_code"], entry["stdout"])
    ]
    assert not changed, f"{len(changed)} pinned outputs changed: {changed}"


def _changed_lines(old: dict, code: int, out: str) -> list[str]:
    # the exit code and each differing stdout line, old -> new
    lines = [f"exit code: {old['exit_code']} -> {code}"] if old["exit_code"] != code else []
    diff = difflib.unified_diff(old["stdout"].splitlines(), out.splitlines(), lineterm="", n=0)
    return lines + [line for line in diff if not line.startswith(("---", "+++", "@@"))]


if __name__ == "__main__":
    os.chdir(DATA)
    os.environ.pop("KHBM_BUDGET", None)
    recorded = {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text())} if GOLDEN.exists() else {}
    entries = []
    for argv in golden_argvs():
        code, out = _replay(argv)
        entries.append({"argv": argv, "exit_code": code, "stdout": out})
        old = recorded.get(tuple(argv))
        if old is None:
            print(f"new: {' '.join(argv)}")
        elif (old["exit_code"], old["stdout"]) != (code, out):
            print(f"changed: {' '.join(argv)}")
            for line in _changed_lines(old, code, out):
                print(f"  {line}")
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} outputs to {GOLDEN}")
