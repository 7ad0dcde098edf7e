import json
import subprocess
import sys

import numpy as np
import pytest

from khbm import tolerances as tol
from khbm.cli import main


@pytest.fixture
def vectors_csv(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1,0\n0,1\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["a_p"] == 1.0
    assert payload["report"]["b_p"] == 1.0
    assert payload["version"]
    assert payload["seed"] == 0
    assert "budget" in payload and "slack" in payload


def test_constants_past_the_gamma_range(capsys):
    # Gamma((p + 1)/2) leaves the double range past p ~ 342.3; B_p then comes from its logarithm
    b = []
    for p in ("342", "343", "345", "1e4"):
        code, out, err = run_cli(capsys, "constants", "--p", p)
        assert (code, err) == (0, ""), p
        rep = json.loads(out)["report"]
        assert rep["a_p"] == 1.0 and isinstance(rep["b_p"], float)
        b.append(rep["b_p"])
    assert b == sorted(set(b))
    # past p ~ 5e305 the logarithm overflows too: refused, never a traceback
    code, out, err = run_cli(capsys, "constants", "--p", "1e308")
    assert code in (0, 2) and (code == 0 or err.startswith("error: moment exponent 1e+308 is too large"))


@pytest.mark.parametrize("side, p, q", [("upper", "2", "400"), ("lower", "500", "400")])
def test_verify_theorem1_past_the_gamma_range(capsys, vectors_csv, side, p, q):
    argv = ["verify-theorem1", "--vectors", vectors_csv, "--atoms", "atoms:1,0.5", "--norm", "lp:2:2"]
    code, out, err = run_cli(capsys, *argv, "--p", p, "--q", q, "--side", side)
    assert (code, err) == (0, "")
    assert json.loads(out)["report"]


def test_json_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "bm", "--pair", "2.5", "4", "6", "--seed", "11")
    _, second, _ = run_cli(capsys, "bm", "--pair", "2.5", "4", "6", "--seed", "11")
    assert first == second


def test_ipf_exact_value(capsys, vectors_csv):
    code, out, _ = run_cli(
        capsys, "ipf", "--vectors", vectors_csv, "--atoms", "atoms:1,0.5",
        "--p", "3", "--norm", "lp:2:2",
    )
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["value"] == 2.0**0.5
    assert rep["terms_evaluated"] == 4


def test_ipf_mc_seeded(capsys, vectors_csv):
    args = ["ipf", "--vectors", vectors_csv, "--atoms", "atoms:1,0.25", "--p", "2",
            "--norm", "lp:1:2", "--method", "mc", "--samples", "1000", "--seed", "9"]
    _, a, _ = run_cli(capsys, *args)
    _, b, _ = run_cli(capsys, *args)
    assert a == b
    assert json.loads(a)["report"]["stderr"] > 0


def test_lemma1_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "lemma1", "--x", "1,0,0", "--k", "2", "--alpha", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1] == "x_hash,k,alpha,ratio,lo,hi,holds"
    fields = lines[2].split(",")
    assert fields[3] == "0.66666666666666663"  # 17 significant digits
    assert fields[-1] == "True"


def test_lemma1_sweep_deterministic(capsys):
    _, a, _ = run_cli(capsys, "lemma1", "--random", "4", "2", "7", "--format", "csv")
    _, b, _ = run_cli(capsys, "lemma1", "--random", "4", "2", "7", "--format", "csv")
    assert a == b
    assert len(a.strip().splitlines()) == 2 + 2 * 4 * 5  # meta + header + rows


def test_lemma1_usage_error(capsys):
    code, _, err = run_cli(capsys, "lemma1", "--x", "1,2")
    assert code == 2
    assert "error:" in err


def test_hanner_single_check_exit_code(capsys, vectors_csv):
    code, out, _ = run_cli(
        capsys, "hanner", "--norm", "lp:1:2", "--q", "1", "--vectors", vectors_csv, "--mode", "type"
    )
    assert code == 1  # genuine violation reported
    rep = json.loads(out)["report"]
    assert rep["verdict"] == "violated-type"
    assert rep["gap"] == 4.0


def test_hanner_falsifier_none_found(capsys):
    code, out, _ = run_cli(
        capsys, "hanner", "--norm", "lp:2:2", "--q", "2", "--n", "2", "--d", "2",
        "--mode", "cotype", "--trials", "300",
    )
    assert code == 0
    assert json.loads(out)["report"]["found"] is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [["--vectors", "big.csv", "--mode", "cotype"], ["--mode", "type", "--n", "2", "--d", "2", "--trials", "1000"]],
    ids=["gap", "search"],
)
def test_hanner_refuses_sign_sums_that_overflow(capsys, tmp_path, monkeypatch, argv):
    # at q = 1000 the l^1 sign sums leave the double range: the gap would be inf - inf = nan,
    # and a search would scan every trial and report none found; no numpy warning comes first
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.csv").write_text("3,1\n-2,5\n")
    code, out, err = run_cli(capsys, "hanner", "--norm", "lp:1:2", "--q", "1000", *argv)
    assert (code, out, err) == (2, "", "error: the sign sums at q = 1000.0 leave the double range\n")


def test_hanner_requires_mode_for_search(capsys):
    code, _, err = run_cli(capsys, "hanner", "--norm", "lp:1:2", "--q", "1", "--n", "2", "--d", "2")
    assert code == 2
    assert "mode" in err


def test_bm_json_planar(capsys):
    code, out, _ = run_cli(capsys, "bm", "--pair", "1", "inf", "2")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["known_exact"] == 1.0
    assert rep["consistent"] is True
    assert rep["upper_bound"]["value"] == 1.0


def test_bm_csv_schema_and_filter(capsys):
    code, out, _ = run_cli(capsys, "bm", "--pair", "1", "inf", "4", "--methods", "cor1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "method,value,witness_p,rigorous,known,upper,consistent"
    assert len(lines) == 3
    row = lines[2].split(",")
    assert row[0] == "cor1"
    assert row[1] == "1.4142135623730951"


def test_bm_upper_bound_not_below_known_distance(capsys):
    # the sampled factor used to report 1.5857157 < 4^(1/3) = 1.5874011
    code, out, _ = run_cli(capsys, "bm", "--pair", "1", "1.5", "4")
    rep = json.loads(out)["report"]
    assert code == 0
    assert rep["upper_bound"]["rigorous"]
    assert rep["upper_bound"]["value"] >= rep["known_exact"] * (1.0 - 1e-15)


def test_bm_report_ignores_seed(capsys):
    # every bound is exact; the seed is only recorded in the envelope
    _, a, _ = run_cli(capsys, "bm", "--pair", "1", "3", "4", "--seed", "0")
    _, b, _ = run_cli(capsys, "bm", "--pair", "1", "3", "4", "--seed", "5")
    assert json.loads(a)["report"] == json.loads(b)["report"]


def test_bm_bad_dimension(capsys):
    code, _, err = run_cli(capsys, "bm", "--pair", "3", "5", "zzz")
    assert code == 2
    assert "dimension" in err


@pytest.mark.parametrize("extra", [(), ("--transforms", "identity")])
def test_bm_dimension_cap(capsys, extra):
    # refused before any n x n table is built
    code, out, err = run_cli(capsys, "bm", "--pair", "1", "2", "2049", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "n <= 2048" in err


def test_bm_diag_transform(capsys, tmp_path):
    diag = tmp_path / "d.csv"
    diag.write_text("1\n1\n1\n")
    code, out, _ = run_cli(
        capsys, "bm", "--pair", "1", "inf", "3", "--transforms", f"identity,diag:{diag}"
    )
    assert code == 0
    assert json.loads(out)["report"]["upper_bound"]["value"] == 3.0


def test_bm_unknown_transform(capsys):
    code, _, err = run_cli(capsys, "bm", "--pair", "1", "inf", "2", "--transforms", "shear")
    assert code == 2
    assert "transform" in err


def test_verify_theorem1_exit_codes(capsys, vectors_csv):
    code, out, _ = run_cli(
        capsys, "verify-theorem1", "--vectors", vectors_csv, "--atoms", "atoms:1,0.5",
        "--p", "2", "--q", "2", "--norm", "lp:2:2", "--side", "both",
    )
    assert code == 0
    assert json.loads(out)["report"]["all_hold"] is True
    # wrong side ordering is a usage error, not a violation
    code, _, err = run_cli(
        capsys, "verify-theorem1", "--vectors", vectors_csv, "--atoms", "atoms:1,0.5",
        "--p", "1.5", "--q", "3", "--norm", "lp:3:2", "--side", "lower",
    )
    assert code == 2


def test_paper_l2_constant_probe(capsys, tmp_path):
    # small-support law where the max-form euclidean constant overshoots I_1
    one = tmp_path / "one.csv"
    one.write_text("1,0\n")
    code, out, _ = run_cli(
        capsys, "verify-theorem1", "--vectors", str(one), "--atoms", "atoms:1,0.01",
        "--p", "1", "--q", "1", "--norm", "lp:2:2", "--side", "lower",
        "--paper-l2-constant",
    )
    assert code == 1
    checks = json.loads(out)["report"]["checks"]
    by_side = {c["side"]: c for c in checks}
    assert by_side["lower"]["holds"] is True
    variant = by_side["lower-l2-max-variant"]
    assert variant["holds"] is False
    assert variant["i_p"] == pytest.approx(0.02)
    assert variant["rhs"] > variant["i_p"]

    # on a balanced law both constants are honest lower bounds
    code, out, _ = run_cli(
        capsys, "verify-theorem1", "--vectors", str(one), "--atoms", "atoms:1,0.5",
        "--p", "1", "--q", "1", "--norm", "lp:2:2", "--side", "lower",
        "--paper-l2-constant",
    )
    assert code == 0
    assert json.loads(out)["report"]["all_hold"] is True


def test_paper_l2_constant_needs_euclidean_norm(capsys, vectors_csv):
    code, _, err = run_cli(
        capsys, "verify-theorem1", "--vectors", vectors_csv, "--atoms", "atoms:1,0.5",
        "--p", "1", "--q", "1", "--norm", "lp:1:2", "--side", "lower",
        "--paper-l2-constant",
    )
    assert code == 2
    assert "euclidean" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "ipf", "--vectors", "/no/such/file.csv", "--atoms", "atoms:1,0.5",
        "--p", "2", "--norm", "lp:2:2",
    )
    assert code == 2
    assert "vector csv" in err


def test_malformed_csv_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,spam\n")
    code, _, err = run_cli(
        capsys, "ipf", "--vectors", str(bad), "--atoms", "atoms:1,0.5",
        "--p", "2", "--norm", "lp:2:2",
    )
    assert code == 2
    assert "malformed" in err


def test_budget_env_override_reflected(capsys, monkeypatch):
    monkeypatch.setenv("KHBM_BUDGET", "555")
    code, out, _ = run_cli(capsys, "constants", "--p", "3")
    assert code == 0
    assert json.loads(out)["budget"] == 555


def test_bad_budget_env_is_usage_error(capsys, monkeypatch, vectors_csv):
    # every subcommand's report envelope reads KHBM_BUDGET; a malformed
    # value is an input error (exit 2), not a traceback with exit 1
    runs = [
        ["constants", "--p", "2"],
        ["hanner", "--norm", "lp:2:2", "--q", "2", "--vectors", vectors_csv],
        ["bm", "--pair", "1", "2", "2"],
        ["acceptance", "--criterion", "1"],
    ]
    for raw in ("bogus", "0"):
        monkeypatch.setenv("KHBM_BUDGET", raw)
        for argv in runs:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: KHBM_BUDGET must be"), argv


def test_memory_refusal_is_usage_error(capsys, monkeypatch, tmp_path):
    # 4 terms fit KHBM_BUDGET, the 50-dim half tables do not: exit 2, no MemoryError
    path = tmp_path / "wide.csv"
    np.savetxt(path, np.ones((2, 50)), delimiter=",")
    monkeypatch.setenv("KHBM_BUDGET", "100")
    code, out, err = run_cli(
        capsys, "ipf", "--vectors", str(path), "--atoms", "atoms:1,0.5", "--p", "2", "--norm", "lp:2:50"
    )
    assert (code, out) == (2, "")
    assert "floats" in err and "budget 100" in err


def test_monte_carlo_refusal_is_usage_error(capsys, monkeypatch, vectors_csv):
    # 5000 samples and their block exceed KHBM_BUDGET=1000: exit 2 before the first draw
    monkeypatch.setenv("KHBM_BUDGET", "1000")
    code, out, err = run_cli(
        capsys, "ipf", "--vectors", vectors_csv, "--atoms", "atoms:1,0.25", "--p", "2",
        "--norm", "lp:1:2", "--method", "mc", "--samples", "5000",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: the Monte Carlo samples and largest block need ")
    assert "floats, exceeding budget 1000" in err


@pytest.mark.parametrize("norm, need", [("lp:1:2", 77_414), ("polytope:hex.csv", 192_414)])
def test_monte_carlo_runs_under_the_budget_it_reports(capsys, monkeypatch, tmp_path, vectors_csv, norm, need):
    # Monte Carlo, the polytope facet build and the report envelope read the one KHBM_BUDGET:
    # one float short is refused naming it, and the least budget that runs is the one reported
    monkeypatch.chdir(tmp_path)
    (tmp_path / "hex.csv").write_text("1,0\n0.5,0.8\n-0.5,0.8\n-1,0\n-0.5,-0.8\n0.5,-0.8\n")
    argv = ["ipf", "--vectors", vectors_csv, "--atoms", "atoms:1,0.25", "--p", "2", "--norm", norm]
    argv += ["--method", "mc", "--samples", "5000"]
    monkeypatch.setenv("KHBM_BUDGET", str(need - 1))
    error = f"error: the Monte Carlo samples and largest block need {need} floats, exceeding budget {need - 1}\n"
    assert run_cli(capsys, *argv) == (2, "", error)
    monkeypatch.setenv("KHBM_BUDGET", str(need))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["budget"] == need


@pytest.mark.parametrize(
    "argv",
    [
        ["ipf", "--vectors", "v.csv", "--atoms", "atoms:1,0.5", "--p", "2", "--norm", "lp:2:2"],
        ["lemma1", "--x", "1,2,3", "--k", "2", "--alpha", "1"],
        ["verify-theorem1", "--vectors", "v.csv", "--atoms", "atoms:1,0.5", "--p", "2", "--q", "2"]
        + ["--norm", "lp:2:2", "--side", "both"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_subcommand_takes_a_budget_flag(capsys, monkeypatch, tmp_path, vectors_csv, argv):
    # KHBM_BUDGET is the one budget source; a second one let a report print a budget its routes did not run under
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--budget", "1000"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --budget 1000" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--rel-slack", "--abs-slack"])
def test_verify_theorem1_takes_no_slack_flag(capsys, vectors_csv, flag):
    # tolerances.py states the one verdict slack; the envelope prints it, and no flag sets another
    argv = ["verify-theorem1", "--vectors", vectors_csv, "--atoms", "atoms:1,0.5", "--p", "2", "--q", "2"]
    argv += ["--norm", "lp:2:2", "--side", "both"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["slack"] == {"rel": tol.REL_SLACK, "abs": tol.ABS_SLACK}
    with pytest.raises(SystemExit) as stop:
        main([*argv, flag, "0"])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err


def test_acceptance_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "acceptance", "--criterion", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "criterion,name,passed,detail"
    assert lines[2].startswith("1,constants-closed-forms,True")


def test_entry_point_subprocess(tmp_path):
    # the installed console script must agree with main()
    proc = subprocess.run(
        [sys.executable, "-m", "khbm.cli", "constants", "--p", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["a_p"] == 1.0


def test_one_process_matches_fresh_processes(monkeypatch, capsys):
    # main() reuses one parser per process; a mixed sequence of calls in
    # one process must print what each call prints in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    monkeypatch.delenv("KHBM_BUDGET", raising=False)
    argvs = [
        ["bm", "--pair", "1", "inf", "4"],
        ["bm", "--pair", "1", "2"],  # argparse usage error, exit 2
        ["--version"],
        ["bm", "--pair", "1", "x", "4"],  # handler usage error, exit 2
        ["constants", "--p", "3"],
    ]
    got = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        got.append((code, out.out, out.err))
    fresh = [subprocess.run([sys.executable, "-m", "khbm.cli", *argv], capture_output=True, text=True) for argv in argvs]
    assert got == [(proc.returncode, proc.stdout, proc.stderr) for proc in fresh]
    assert [code for code, _, _ in got] == [0, 2, 0, 2, 0]


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--p", "2"],
        ["ipf", "--vectors", "{v}", "--atoms", "atoms:1,0.5", "--p", "2", "--norm", "lp:2:2"],
        ["ipf", "--vectors", "{v}", "--atoms", "atoms:1,0.5", "--p", "2", "--norm", "lp:2:2", "--method", "mc"],
        ["lemma1", "--x", "1,2", "--k", "1", "--alpha", "1"],
        ["hanner", "--norm", "lp:2:2", "--q", "2", "--n", "2", "--d", "2", "--mode", "cotype", "--trials", "10"],
        ["bm", "--pair", "1", "2", "3"],
        ["verify-theorem1", "--vectors", "{v}", "--atoms", "atoms:1,0.5", "--p", "2", "--q", "2",
         "--norm", "lp:2:2", "--side", "lower"],
        ["acceptance", "--criterion", "1"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[-2:] if "mc" in argv else argv[:1]),
)
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_is_refused_naming_the_flag(capsys, vectors_csv, argv, seed):
    # refused by the parser in every subcommand, whether or not it draws
    with pytest.raises(SystemExit) as exc:
        main([a.format(v=vectors_csv) for a in argv] + ["--seed", seed])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.endswith(f"error: argument --seed: must be a non-negative integer, got '{seed}'\n")


def test_negative_sweep_seed_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "lemma1", "--random", "3", "2", "-1")
    assert (code, out, err) == (2, "", "error: --random needs n >= 1, trials >= 1 and seed >= 0\n")
