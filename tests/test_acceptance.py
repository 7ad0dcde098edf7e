"""Acceptance gate: every numbered criterion runs at its stated tolerance.

One pytest case per criterion, so `pytest -v` prints one pass/fail line
each; the same functions back the CLI `acceptance` subcommand.
"""

import tracemalloc

import pytest

from khbm.acceptance import criterion_ids, run_criterion
from khbm.cli import main

BASE_SEED = 0

# each criterion's detail string at BASE_SEED, pinned so that a refactor
# which shifts a random draw or a last digit is seen
PINNED_DETAILS = {
    1: "a_2=1.0 b_2=1.0 (exact: True); rel err a_1=0.00e+00, b_4=1.69e-16",
    2: "1000 cases, 0 failures, worst margin -8.882e-16",
    3: "96 single-atom cases, max rel route gap 2.555e-16",
    4: "20/20 within 4 stderr, worst deviation 2.18 sigma",
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
        (10, 1245, "the half tables and the largest block need 1245 floats, exceeding budget 1244"),
        (2, 256, "2^8 = 256 weighted terms exceed budget 255; use ipf_monte_carlo instead"),
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
