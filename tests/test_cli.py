import io
import os
import subprocess
import sys

import pytest

import sievelab
from sievelab import cli
from sievelab.shared import DEFAULT_BUDGET


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_buchstab_rows():
    code, out = run_cli(["buchstab", "1", "2", "0.5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + three rows
    assert lines[1].split()[1] == "1"


def test_buchstab_band_rows():
    code, out = run_cli(["buchstab", "3", "4", "0.01", "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 101
    for row in rows:
        _, lo, mid, hi, _ = row.split(",")
        assert float(lo) <= float(mid) <= float(hi)


def test_buchstab_empty_range():
    code, out = run_cli(["buchstab", "2", "1", "0.5"])
    assert code == 0
    assert len(out.strip().splitlines()) == 1  # header only


@pytest.mark.parametrize("argv", [["1", "2", "1e-13"], ["1", "2", "4e-13"], ["1", "2", "nan"],
                                  ["nan", "2", "0.5"], ["1", "inf", "0.5"], ["1", "2", "1e-12"],
                                  ["1", "1.000000000001", "4e-13"]])
def test_buchstab_bad_step_or_bounds_rejected(argv):
    # Run apart, under a timeout: a step too small for the 12-decimal
    # rounding of u used to loop forever, and a tiny step that does advance
    # u (1e-12) used to build its 10^12 rows in memory before printing.
    src = os.path.dirname(os.path.dirname(sievelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, sievelab.cli; sys.exit(sievelab.cli.main(sys.argv[1:]))"
    out = subprocess.run([sys.executable, "-c", code, "buchstab", *argv], capture_output=True,
                         text=True, env=env, timeout=60)
    assert out.returncode == 2, out
    assert out.stdout == ""
    assert out.stderr.startswith("error:")


def test_typeii_subregion():
    code, out = run_cli(["typeii", "0.36", "0.141"])
    assert code == 0
    assert "A0101" in out
    assert "0.165333" in out


def test_typeii_asymptotic():
    code, out = run_cli(["typeii", "0.30", "0.10"])
    assert code == 0
    assert "asymptotic" in out


def test_typeii_validation_error():
    code, _ = run_cli(["typeii", "0.50", "0.50"])
    assert code == 2


def test_typeii_extra_coordinates_rejected():
    code, out = run_cli(["typeii", "0.3", "0.1", "0.05", "0.02"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("flags", [
    ["typeii", "0.36", "0.141", "--theta", "0.52"],
    ["typeii", "0.36", "0.141", "--theta1", "0.36"],
    ["typeii", "0.36", "0.141", "--theta3", "0.01"],
    ["typeii", "--theta", "0.52", "--theta1", "0.3"],
    ["typeii", "--theta", "0.52", "--theta3", "0.01"],
    ["integral", "S235", "--theta", "0.52", "--theta1", "0.3", "--theta2", "0.2"],
    ["integral", "S235", "--theta", "0.52", "--theta2", "0.2"],
])
def test_typeii_point_given_twice_rejected(flags, capsys):
    # coordinates and --theta flags, or --theta and --theta1/2/3, together
    # name two points
    code = cli.main(flags)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not both" in err


@pytest.mark.parametrize("eps", ["nan", "inf", "-0.001"])
@pytest.mark.parametrize("cmd", [["typeii", "0.36", "0.141"],
                                 ["typeii", "--theta1", "0.36", "--theta2", "0.141"],
                                 ["integral", "S235", "--theta", "0.52"]])
def test_non_finite_or_negative_epsilon_rejected(cmd, eps, capsys):
    code = cli.main([*cmd, "--epsilon", eps])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "eps must be finite and nonnegative" in err


@pytest.mark.parametrize("argv", [["typeii", "0.52", "--epsilon", "1e6"],
                                  ["typeii", "0.36", "0.141", "--epsilon", "1e6"],
                                  ["integral", "U233", "--theta", "0.52", "--epsilon", "0.05"]])
def test_epsilon_that_makes_kappa_nonpositive_rejected(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "kappa must be positive" in err


@pytest.mark.parametrize("argv", [["integral", "I1", "--theta", "0.99"],
                                  ["integral", "U233", "--theta", "0.58"],
                                  ["integral", "S235", "--theta", "0.3"]])
def test_integral_outside_the_kappa_domain_rejected(argv, capsys):
    # every one-exponent named integral reads kappa, defined for
    # 1/2 <= theta < 4/7
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "1/2 <= theta < 4/7" in err


def test_integral_at_the_kappa_domain_edge_runs():
    code, out = run_cli(["integral", "I1", "--theta", "0.5", "--format", "csv"])
    assert code == 0


def test_typeii_boundary_point_matches_no_leaf():
    # The printed sub-splits pair strict with non-strict bounds, so the
    # shared boundary belongs to neither side; the report falls through to
    # the enclosing family instead of being ambiguous.
    code, out = run_cli(["typeii", "0.39", str((5 - 8 * 0.39) / 14), "--family", "a"])
    assert code == 2
    assert out == ""


def test_typeii_ambiguous_exit(tmp_path):
    from sievelab.catalog import default_catalog, dumps

    text = dumps(default_catalog())
    dup = text.replace("region A0101 dim=2", "region A0101dup dim=2", 1)
    start = dup.index("region A0101dup")
    end = dup.index("end", start) + 3
    extra = dup[start:end]
    members = " ".join(default_catalog().groups["a_leaves"])
    # record names are unique, so the group line is rewritten, not repeated
    text = text.replace(f"group a_leaves: {members}\n", f"group a_leaves: {members} A0101dup\n")
    path = tmp_path / "cat.txt"
    path.write_text(text + "\n" + extra + "\n")
    code, _ = run_cli(["typeii", "0.36", "0.141", "--catalog", str(path)])
    assert code == 3


@pytest.mark.parametrize("via", ["--catalog", "SIEVELAB_CATALOG"])
def test_missing_catalog_file_exits_2(via, tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "missing.txt")
    argv = ["typeii", "0.52"]
    if via == "--catalog":
        argv += ["--catalog", missing]
    else:
        monkeypatch.setenv(via, missing)
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: cannot read catalog")


def test_verify_l7_reads_catalog(tmp_path):
    from sievelab.catalog import default_catalog, dumps

    line = "integral L71 dim=3 region=U71 weight=reciprocal mult=2 sorted"
    text = dumps(default_catalog())
    assert line in text
    path = tmp_path / "cat.txt"
    path.write_text(text.replace(line, line.replace("mult=2", "mult=200")))
    args = ["verify", "L7", "--budget", "65536"]
    values = []
    for extra in ([], ["--catalog", str(path)]):
        _, out = run_cli(args + extra)
        values.append([float(ln.split("value ")[1].split()[0]) for ln in out.splitlines()])
    # L71 counts 100 times over, so both L7 values grow
    assert all(scaled > plain + 0.1 for plain, scaled in zip(*values))


def test_verify_i56_reads_catalog(tmp_path):
    from sievelab.catalog import default_catalog, dumps

    line = "integral I5 dim=3 region=D5 weight=reciprocal mult=1"
    text = dumps(default_catalog())
    assert line in text
    path = tmp_path / "cat.txt"
    path.write_text(text.replace(line, line.replace("dim=3", "dim=25")))
    code, out = run_cli(["verify", "I56", "--catalog", str(path)])
    assert code == 2 and out == ""


@pytest.mark.parametrize("extra, budget", [([], DEFAULT_BUDGET), (["--budget", "4096"], 4096)])
def test_verify_i56_honours_budget(extra, budget, monkeypatch):
    # the suite runs at the default budget, and an explicit --budget caps it
    from sievelab import quadrature as qd

    seen = []

    def named_integral(name, params, **kw):
        seen.append(kw["budget"])
        return qd.QuadratureResult(0.0, 0.0, kw["budget"], kw["seed"])

    monkeypatch.setattr(qd, "named_integral", named_integral)
    code, out = run_cli(["verify", "I56", *extra])
    assert code == 0 and out.count("[pass]") == 2
    assert seen == [budget] * 4


def test_integral_zero_case():
    code, out = run_cli(["integral", "U234", "--theta", "0.51", "--format", "csv"])
    assert code == 0
    assert ",0.0," in out and "empty-box" in out


def test_integral_proved_empty_after_a_round_without_hits():
    code, out = run_cli(["integral", "I1", "--theta", "0.52", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "I1,0.0,0.0,24576,24301,empty-region,computed"


def test_integral_proved_empty_by_the_exact_test():
    # the box bisection stalls around t = (1/7, ..., 1/7); the exact test of
    # the boxes it leaves closes the proof after the first round
    code, out = run_cli(["integral", "U234", "--theta", "0.52", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "U234,0.0,0.0,16384,24301,empty-region,computed"


def test_integral_cubature_where_the_residual_is_nested():
    # U233's residual on its sampling box holds disjunctions, split into
    # cells on their rows and integrated by cubature
    code, out = run_cli(["integral", "U233", "--theta", "0.52", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == (
        "U233,0.36017729401372256,1.4854299970112894e-05,360,24301,cubature,computed")


def test_integral_no_hits_where_the_exact_test_finds_a_point(tmp_path):
    # A strip of width 1e-9 that the first round misses: bisection stalls
    # along it and the exact test finds it non-empty, so sampling goes on.
    from sievelab.catalog import default_catalog, dumps, loads
    from sievelab.params import theta_only
    from sievelab.quadrature import sampled
    from sievelab.regions import contains

    where = "where kappa < t2 and t2 < t1 and t1 + t2 > 1/2 and 2*t1 + t2 < 1 and not in(G)"
    text = dumps(default_catalog())
    assert where in text
    text = text.replace(where, "where t2 < t1 and 1/2 < t1 + t2 and t1 + t2 < 1/2 + 1/1000000000")
    cat = loads(text)
    assert contains(cat.region("U233"), [0.3, 0.2 + 5e-10], theta_only(0.52).values(), cat)
    res = sampled(cat.integrals["U233"], theta_only(0.52), budget=65536, cat=cat)
    assert (res.value, res.est_error, res.samples, res.seed, res.flag) == (
        0.0, 0.0014029855978384665, 65536, 24301, "no-hits")
    # The strip is one conjunction, a full-dimensional polytope, which the
    # command integrates by cubature.
    path = tmp_path / "cat.txt"
    path.write_text(text)
    code, out = run_cli(["integral", "U233", "--theta", "0.52", "--budget", "65536",
                         "--format", "csv", "--catalog", str(path)])
    assert code == 0
    name, value, _, _, seed, flag, _ = out.splitlines()[1].split(",")
    assert (name, seed, flag) == ("U233", "24301", "cubature") and float(value) > 0


def test_byte_identical_reruns():
    args = ["integral", "S235", "--theta", "0.52", "--format", "csv",
            "--budget", str(1 << 18), "--seed", "5"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_tables_pass():
    code, out = run_cli(["verify", "tables26"])
    assert code == 0
    assert out.count("[pass]") == 35
    assert "[FAIL]" not in out


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        cli.make_parser().parse_args(["verify", "nosuch"])


@pytest.mark.parametrize("argv", [
    ["verify", "L7", "--tol", "1e-9"],
    ["verify", "L7", "--theta", "0.3"],
    ["verify", "tables26", "--format", "csv"],
    ["verify", "divisor", "--epsilon", "0.1"],
    ["buchstab", "1", "1.5", "0.5", "--catalog", "missing.txt"],
    ["buchstab", "1", "1.5", "0.5", "--theta", "0.9"],
    ["buchstab", "1", "2", "0.5", "--seed", "3"],
    ["typeii", "0.36", "0.141", "--seed", "3"],
    ["typeii", "0.36", "0.141", "--budget", "4096"],
    ["typeii", "0.36", "0.141", "--tol", "1e-9"],
    ["integral", "I5", "--theta1", "0.3", "--theta2", "0.1", "--theta3", "0.1"],
])
def test_flags_a_command_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: sievelab {argv[0]} ")
    assert "unrecognized arguments" in err


def test_markdown_format():
    code, out = run_cli(["buchstab", "1", "1", "0.5", "--format", "markdown"])
    assert code == 0
    assert out.startswith("| u |")


def test_verify_calibration_seed_that_used_to_fail():
    # At tol=1e-4 the cal6 estimate at this seed misses 1/720 by 0.31 %; the
    # suite now integrates to rel_tol 5e-4 and keeps its 0.3 % check.
    code, out = run_cli(["verify", "calibration", "--seed", "16"])
    assert code == 0, out
    assert out.count("[pass]") == 5
    assert "budget ran out" not in out


def test_verify_calibration_says_when_the_budget_ran_out():
    # At seed 2, cal5 and cal6 stop at this budget with est_error above
    # rel_tol 5e-4 of the value; cal6 then misses 1/720 by 0.54 %, and its
    # line says why
    code, out = run_cli(["verify", "calibration", "--budget", "65536", "--seed", "2"])
    assert code == 4
    lines = out.splitlines()
    assert len(lines) == 5 and "budget ran out" not in "".join(lines[:3])
    assert lines[4] == ("[FAIL] simplex volume k=6: value 0.00138145 vs 0.00138889; budget ran "
                        "out at 65340 samples with est_error 7.82e-06 above its target "
                        "6.91e-07 [computed]")
    assert lines[3].startswith("[pass] simplex volume k=5:")
    assert "; budget ran out at 65252 samples" in lines[3]


def test_verify_calibration_still_samples():
    # the suite checks the sampler, so its output is the sampler's, byte for
    # byte, though integrate takes the simplices by cubature
    code, out = run_cli(["verify", "calibration", "--seed", "2", "--budget", "65536"])
    assert code == 4
    assert out == (
        "[pass] simplex volume k=2: value 0.500017 vs 0.5 [computed]\n"
        "[pass] simplex volume k=3: value 0.166771 vs 0.166667 [computed]\n"
        "[pass] simplex volume k=4: value 0.0416781 vs 0.0416667 [computed]\n"
        "[pass] simplex volume k=5: value 0.00831853 vs 0.00833333; budget ran out at 65252 "
        "samples with est_error 2.75e-05 above its target 4.16e-06 [computed]\n"
        "[FAIL] simplex volume k=6: value 0.00138145 vs 0.00138889; budget ran out at 65340 "
        "samples with est_error 7.82e-06 above its target 6.91e-07 [computed]\n")


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--tol", "nan"]])
def test_integral_bad_seed_or_tolerance(flags):
    code, out = run_cli(["integral", "S235", "--theta", "0.52", *flags])
    assert code == 2
    assert out == ""


ONE_REGION = "region A dim=2\n  where t1 < 1/2\nend\n"


def _without_g_nofloor():
    # the packaged catalog less its G_nofloor record, which nothing references
    from sievelab.catalog import default_catalog, dumps

    text = dumps(default_catalog())
    start = text.index("region G_nofloor ")
    end = text.index("\nend\n", start) + len("\nend\n")
    return text[:start] + text[end:]


@pytest.mark.parametrize("argv, leaf, missing", [
    (["typeii", "0.36", "0.141"], False, "group 'a_leaves'"),
    (["typeii", "0.52"], False, "ranges 'theta_mode'"),
    (["typeii", "0.36", "0.141", "--family", "a"], True, "ranges 'A'"),
    (["integral", "I1", "--theta", "0.52"], False, "integral 'I1'"),
    (["integral", "I1", "--theta", "0.52", "--g-floor", "off"], None, "region 'G_nofloor'"),
    (["verify", "L7"], False, "integral 'L71'"),
    (["verify", "I56"], False, "integral 'I5'"),
    (["verify", "calibration"], False, "integral 'cal2'"),
], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
def test_missing_catalog_record_exits_2(argv, leaf, missing, tmp_path, capsys):
    # A catalog that loads but lacks a record the command reads by name: the
    # one-region catalog (its region A listed as an a-leaf when leaf is set),
    # or the packaged catalog without G_nofloor when leaf is None.
    if leaf is None:
        text = _without_g_nofloor()
    else:
        text = ONE_REGION + ("group a_leaves: A\n" if leaf else "")
    path = tmp_path / "cat.txt"
    path.write_text(text)
    code, out = run_cli(argv + ["--catalog", str(path)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: unknown {missing}\n"
