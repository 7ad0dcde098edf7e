"""Acceptance gate: every numbered criterion runs at its stated tolerance.

One pytest case per criterion, so `pytest -v` prints one pass/fail line
each; the same functions back the CLI `acceptance` subcommand.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from khbm import acceptance, functional
from khbm.acceptance import criterion_ids, run_criteria, run_criterion
from khbm.cli import main
from khbm.distributions import rademacher
from khbm.norms import LpNorm

BASE_SEED = 0

# each criterion's detail string at BASE_SEED, pinned so that a refactor
# which shifts a random draw or a last digit is seen
PINNED_DETAILS = {
    1: "a_2=1.0 b_2=1.0 (exact: True); rel err a_1=0.00e+00, b_4=1.69e-16",
    2: "1000 cases, 0 failures, worst margin -8.882e-16",
    3: "96 single-atom cases, max rel route gap 2.555e-16",
    4: "20/20 within 4 stderr, worst deviation 1.74 sigma",
    5: "500+500 cases, 0 lower / 0 upper failures, min margin 1.733e-03",
    6: "200 cases/property, failures {'level': 0, 'chain': 0, 'p-mono': 0, 'l2-identity': 0},"
    " max p=2 identity rel err 5.817e-16",
    7: "1005 ratio checks, 0 bound violations, 0 sharpness misses",
    8: "euclidean gap <= 4.88e-16; planar counterexample found; no spurious violations in 10^4-trial searches;"
    " three-vector inequality clean",
    9: "closed form rel err <= 2.22e-16 up to n=10^6; planar pair pinched at 1; 60 cube reports consistent;"
    " cotype bound rel err <= 0.00e+00",
    10: "value-argument suite: True (hom 4.1e-16); law-argument suite: True;"
    " zero-sum precondition error fired: True",
}


def _label(cid):
    return f"criterion-{cid:02d}"


@pytest.mark.parametrize("cid", criterion_ids(), ids=[_label(c) for c in criterion_ids()])
def test_criterion(cid):
    result = run_criterion(cid, BASE_SEED)
    line = f"[{'PASS' if result.passed else 'FAIL'}] criterion {result.cid} ({result.name}): {result.detail}"
    print(line)
    assert result.passed, line
    assert result.detail == PINNED_DETAILS[cid]


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        run_criterion(99, BASE_SEED)


def test_criterion_ids_are_one_to_ten():
    assert criterion_ids() == tuple(range(1, 11))


@pytest.mark.parametrize(
    "cid, budget, error",
    [
        (10, 3160, "the half tables and the largest block need 3160 floats, exceeding budget 3159"),
        (2, 560, "the half tables and the largest block need 560 floats, exceeding budget 559"),
    ],
)
def test_stacked_criteria_need_the_budget_of_their_largest_case(monkeypatch, capsys, cid, budget, error):
    # a stack shrinks its blocks down to one tuple, so the smallest passing budget is
    # that of one call per case, and a refusal names the same case
    argv = ["acceptance", "--seed", str(BASE_SEED), "--criterion", str(cid)]
    monkeypatch.setenv("KHBM_BUDGET", str(budget - 1))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    monkeypatch.setenv("KHBM_BUDGET", str(budget))
    assert main(argv) == 0


def test_stacked_criterion_memory():
    # the stacks are evaluated block by block: whole groups at once would hold every case's sums
    tracemalloc.start()
    try:
        run_criterion(10, BASE_SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_000_000


# ------------------------------------------------------------ forked lanes


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks of the test and checks that no child outlives it.

    No thread may be alive when it starts, since the suite runs serially
    while other threads are alive.
    """
    assert threading.active_count() == 1
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_fork():
    raise AssertionError("os.fork called")


def _cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    with pytest.raises(ChildProcessError):  # main left no child behind
        os.waitpid(-1, os.WNOHANG)
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [["--criterion", "99"], ["--criterion", "1", "--criterion", "99"]])
def test_unknown_criterion_refused_before_any_lane(monkeypatch, capsys, argv):
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(acceptance, "run_criterion", lambda *a: pytest.fail("a criterion ran"))
    assert _cli(capsys, ["acceptance", *argv]) == (2, "", "error: unknown criterion id 99; valid ids are 1..10\n")


def test_a_large_call_leaves_no_thread_behind(monkeypatch, forks):
    # an ipf_exact call of 2^20 terms runs on two lanes, whose threads end with the
    # call, so the suite run after it still forks instead of running serially
    lanes = []
    real_map = functional._map

    def spy(fn, blocks, n_lanes):
        lanes.append(n_lanes)
        return real_map(fn, blocks, n_lanes)

    monkeypatch.setattr(functional, "_map", spy)
    monkeypatch.setattr(functional, "_WORKERS", 2)
    functional.ipf_exact(np.random.default_rng(0).standard_normal((20, 2)), rademacher(), 2.0, LpNorm(2.0, 2))
    assert lanes == [2]
    assert threading.active_count() == 1
    assert run_criteria([1, 2], 0) == [run_criterion(1, 0), run_criterion(2, 0)]
    assert len(forks) == 1


def test_repeated_ids_repeat_their_rows(forks):
    assert run_criteria([7, 1, 7], 3) == [run_criterion(7, 3), run_criterion(1, 3), run_criterion(7, 3)]
    assert forks


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_acceptance_output_is_independent_of_lane_count(monkeypatch, capsys, forks, seed):
    # JSON and CSV render the same result list, so the full suite is compared
    # in JSON and a subset, out of id order, in CSV; 1 lane is the serial
    # loop, and 3 lanes on a 2-core box share the cores
    argvs = [
        ["acceptance", "--seed", str(seed)],
        ["acceptance", "--seed", str(seed), "--criterion", "8", "--criterion", "4", "--format", "csv"],
    ]
    outputs = {}
    for lanes in (1, 2, 3):
        monkeypatch.setattr(functional, "_WORKERS", lanes)
        outputs[lanes] = [_cli(capsys, argv) for argv in argvs]
    assert [code for code, _, _ in outputs[1]] == [0, 0]
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
    assert len(forks) == 2 + 3  # a child per extra lane; the two-criterion subset has two lanes at most


@pytest.mark.parametrize("budget", [255, 1244, 480_956, 100_000])
def test_refusals_are_independent_of_lane_count(monkeypatch, capsys, forks, budget):
    # each budget refuses some criteria of the suite (at 255 seven of them); the
    # error is the one that the plain serial loop meets first.  480,956 is one
    # float short of criterion 4's largest Monte Carlo count, which alone refuses
    monkeypatch.setenv("KHBM_BUDGET", str(budget))
    with pytest.raises(ValueError) as first:
        [run_criterion(cid, 0) for cid in criterion_ids()]
    if budget == 480_956:
        assert str(first.value) == "the Monte Carlo samples and largest block need 480957 floats, exceeding budget 480956"
    got = {}
    for lanes in (1, 2):
        monkeypatch.setattr(functional, "_WORKERS", lanes)
        got[lanes] = _cli(capsys, ["acceptance", "--seed", "0"])
    assert got[1] == got[2] == (2, "", f"error: {first.value}\n")
    assert forks


def _patched(monkeypatch, in_parent, in_child):
    """Replace every criterion's function with one that acts by process."""
    parent = os.getpid()

    def wrap(fn):
        return lambda seed: (in_parent if os.getpid() == parent else in_child)(fn, seed)

    monkeypatch.setattr(acceptance, "_CRITERIA", tuple((k, name, wrap(fn)) for k, name, fn in acceptance._CRITERIA))


def test_a_child_that_dies_is_rerun_by_the_parent(monkeypatch, forks):
    ids = [2, 1, 7, 3]
    want = [run_criterion(cid, 5) for cid in ids]
    monkeypatch.setattr(functional, "_WORKERS", 3)
    _patched(monkeypatch, lambda fn, seed: fn(seed), lambda fn, seed: os._exit(9))
    assert run_criteria(ids, 5) == want
    assert len(forks) == 2


def test_an_interrupt_kills_and_reaps_the_children(monkeypatch, forks):
    def interrupt(fn, seed):
        raise KeyboardInterrupt

    monkeypatch.setattr(functional, "_WORKERS", 2)
    _patched(monkeypatch, interrupt, lambda fn, seed: time.sleep(60))
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_criteria([1, 2, 3], 0)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1


def test_errors_are_the_serial_loops_first(monkeypatch, forks):
    def refuse(fn, seed):
        raise ValueError(fn.__name__)

    counted_fork = os.fork

    def fork():
        pid = counted_fork()
        if pid:
            time.sleep(0.2)  # the child takes the first criterion, the caller a later one
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(functional, "_WORKERS", 2)
    _patched(monkeypatch, refuse, refuse)
    with pytest.raises(ValueError, match="^_c1_constants$"):
        run_criteria([1, 2, 3], 0)
    assert forks


def test_a_failing_caller_kills_the_children(monkeypatch, forks):
    # the caller's lane raises while the child is in a criterion that would take a minute:
    # the child is killed and reaped, not waited for, and the serial rerun raises the first error
    def refuse(fn, seed):
        raise ValueError(fn.__name__)

    counted_fork = os.fork

    def fork():
        pid = counted_fork()
        if pid:
            time.sleep(0.2)  # the child takes the first criterion, the caller a later one
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(functional, "_WORKERS", 2)
    _patched(monkeypatch, refuse, lambda fn, seed: time.sleep(60))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^_c1_constants$"):
        run_criteria([1, 2, 3], 0)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1


def test_a_lane_that_fails_stops_the_others(monkeypatch, forks, tmp_path):
    log = tmp_path / "ran"

    def run(fn, seed):
        with open(log, "a") as f:
            f.write(f"{fn.__name__}\n")
        if fn.__name__ == "_c1_constants":
            raise ValueError("refused")
        time.sleep(0.5)
        return True, ""

    monkeypatch.setattr(functional, "_WORKERS", 2)
    _patched(monkeypatch, run, run)
    with pytest.raises(ValueError, match="^refused$"):
        run_criteria([1, 2, 3, 4, 5, 6], 0)
    # criterion 1 twice (its lane, then the serial rerun) and at most the other lane's criterion in hand
    assert set(log.read_text().split()) <= {"_c1_constants", "_c2_classical"}
    assert forks


def test_other_threads_keep_the_suite_serial(monkeypatch):
    monkeypatch.setattr(functional, "_WORKERS", 2)
    monkeypatch.setattr(os, "fork", _no_fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert run_criteria([1, 7], 0) == [run_criterion(1, 0), run_criterion(7, 0)]
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


def test_a_refused_fork_leaves_fewer_lanes(monkeypatch):
    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(functional, "_WORKERS", 2)
    monkeypatch.setattr(os, "fork", refuse)
    assert run_criteria([1, 7], 0) == [run_criterion(1, 0), run_criterion(7, 0)]


def test_lanes_load_no_pool_machinery():
    code = (
        "import os, sys, io, contextlib\n"
        "from khbm import functional\n"
        "from khbm.cli import main\n"
        "functional._WORKERS = 2\n"
        "forks, real_fork = [], os.fork\n"
        "os.fork = lambda: forks.append(None) or real_fork()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['acceptance', '--criterion', '1', '--criterion', '7'])\n"
        "print(code, len(forks), 'multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "False", "False"]
