import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import freestoch
from freestoch.cli import _passed, _report_json, run
from freestoch.measures import MAX_ST_ARITY, MAX_SUITE_K


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _flag_error_line(capsys) -> str:
    """The last stderr line of a usage error of one flag, after checking that
    stdout is empty and the lines before it are argparse's usage block."""
    captured = capsys.readouterr()
    usage, *wrapped, last = captured.err.splitlines()
    assert captured.out == "" and usage.startswith("usage: freestoch ")
    assert all(line.startswith(" ") for line in wrapped), wrapped
    return last


def test_classify_matches_the_worked_example(capsys):
    code, rep = _run_json(capsys, [
        "partitions", "classify", "--partition", "((1,6,7)(2,5)(3)(4)(8)(9,10))"])
    assert code == 0
    rec = rep["records"][0]
    assert rec["inner"] == "(2,5)(3)(4)"
    assert rec["outer"] == "(1,6,7)(8)(9,10)"
    assert rep["tool_version"] and rep["command"] == "partitions classify"


def test_enumerate_counts(capsys):
    code, rep = _run_json(capsys, ["partitions", "enumerate", "--k", "4"])
    assert code == 0 and len(rep["records"]) == 15
    code, rep = _run_json(capsys, ["partitions", "enumerate", "--k", "4", "--noncrossing"])
    assert code == 0 and len(rep["records"]) == 14


def test_mobius_and_kreweras_commands(capsys):
    code, rep = _run_json(capsys, [
        "partitions", "mobius", "--lower", "((1)(2)(3))", "--upper", "((1,2,3))",
        "--lattice", "noncrossing"])
    assert code == 0 and rep["records"][0]["mobius"] == "2/1"
    code, rep = _run_json(capsys, ["partitions", "kreweras", "--partition", "((1,2)(3))"])
    assert code == 0 and rep["records"][0]["kreweras"] == "((1)(2,3))"


def test_to_moments(capsys):
    code, rep = _run_json(capsys, [
        "cumulants", "to-moments", "--process", "free_poisson", "--order", "4"])
    assert code == 0
    assert rep["records"][0]["moments"] == "1/1,2/1,5/1,14/1"
    # a custom process with fractional cumulants, against the noncrossing sum
    from fractions import Fraction

    from freestoch.cumulants import CumulantFunctional
    from freestoch.rational import format_rational
    from helpers import moments_from_cumulants

    seq = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 7), Fraction(5, 11), Fraction(-1, 13)]
    process = json.dumps({"type": "custom",
                          "cumulants": {str(n): format_rational(r) for n, r in enumerate(seq, 1)}})
    code, rep = _run_json(capsys, ["cumulants", "to-moments", "--process", process, "--order", "5"])
    assert code == 0
    assert rep["records"][0]["moments"] == ",".join(
        format_rational(moments_from_cumulants(CumulantFunctional.from_single_variable(n, seq)))
        for n in range(1, 6))


def test_to_moments_of_a_process_equals_the_transform_of_its_cumulants(capsys):
    # the report used to come from the every-subset transform of the process's
    # cumulant functional; it now reads m_n off exact_moment
    from fractions import Fraction

    from freestoch.cli import _functional_record
    from freestoch.cumulants import CumulantFunctional, moment_functional
    from freestoch.processes import make_free_poisson
    from freestoch.rational import format_rational
    from helpers import CUSTOM_SEQ, process_fixtures

    descriptors = {"free_poisson": "free_poisson", "semicircular": "semicircular",
                   "custom": json.dumps({"type": "custom", "cumulants": {
                       str(n): format_rational(r) for n, r in enumerate(CUSTOM_SEQ, 1)}})}
    assert descriptors.keys() == process_fixtures().keys()
    cases = [(descriptors[name], spec, range(1, 9)) for name, spec in process_fixtures().items()]
    cases.append(('{"type": "free_poisson", "rate": "3/2"}', make_free_poisson(Fraction(3, 2)),
                  [12]))
    for process, spec, orders in cases:
        (atom,) = spec.words[0]
        for n in orders:
            old = _functional_record(moment_functional(CumulantFunctional.from_single_variable(
                n, [atom.cumulant(j) for j in range(1, n + 1)])), "moments")
            code, rep = _run_json(capsys, ["cumulants", "to-moments", "--process", process,
                                           "--order", str(n)])
            assert code == 0 and rep["records"] == old, (process, n)


def test_to_moments_refuses_an_order_the_process_does_not_declare(capsys):
    process = json.dumps({"type": "custom", "cumulants": {"1": "1/2"}})
    assert run(["cumulants", "to-moments", "--process", process, "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines() == [
        "error: argument --order: custom process declares cumulants up to order 1, "
        "order 2 requested"]


@pytest.mark.parametrize("cumulants, error", [
    ({"1": "1/2", "3": "1"},  # a gap
     "cumulants need the orders 1..2 as keys: order 2 is missing, '3' given"),
    ({"1": "1", "2": "1", "02": "1"},  # a leading zero
     "cumulants need the orders 1..3 as keys: order 3 is missing, '02' given"),
    (["1/2", "1"], "malformed process descriptor: 'list' object has no attribute 'keys'"),
])
def test_custom_cumulant_keys_must_be_the_orders_one_to_n(capsys, cumulants, error):
    process = json.dumps({"type": "custom", "cumulants": cumulants})
    assert run(["cumulants", "to-moments", "--process", process, "--order", "2"]) == 2
    assert _flag_error_line(capsys) == \
        f"freestoch cumulants to-moments: error: argument --process: {error}"


def test_from_moments(capsys):
    code, rep = _run_json(capsys, [
        "cumulants", "from-moments", "--moments", "1,2,5,14"])
    assert code == 0
    assert rep["records"][0]["cumulants"] == "1/1,1/1,1/1,1/1"


def test_functional_file_roundtrip(tmp_path, capsys):
    code, rep = _run_json(capsys, [
        "cumulants", "to-moments", "--process", "semicircular", "--order", "3"])
    blob = json.loads(rep["records"][0]["functional"])
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(blob))
    code, rep = _run_json(capsys, ["cumulants", "from-moments", "--functional", str(path)])
    assert code == 0
    assert rep["records"][0]["cumulants"] == "0/1,1/1,0/1"


def test_verify_suite_passes(capsys):
    code, rep = _run_json(capsys, [
        "verify", "suite", "--process", "free_poisson", "--k-max", "2"])
    assert code == 0
    assert all(r["pass"] for r in rep["records"])
    assert all(r["residual"] == "0/1" for r in rep["records"])
    rec = rep["records"][0]
    assert set(rec) == {"check", "partition", "process", "subdivision", "residual", "pass"}


def test_verify_main_theorem_and_examples(capsys):
    code, rep = _run_json(capsys, [
        "verify", "main-theorem", "--process", "semicircular", "--k-max", "3",
        "--order", "both", "--t", "3/2"])
    assert code == 0 and all(r["pass"] for r in rep["records"])
    code, rep = _run_json(capsys, [
        "verify", "examples", "--which", "brownian", "--k-max", "3"])
    assert code == 0 and all(r["pass"] for r in rep["records"])


def test_verify_accepts_json_descriptor(capsys):
    desc = json.dumps({"type": "custom", "cumulants": {"1": "1/2", "2": "1/3", "3": "1/5",
                                                       "4": "1/7", "5": "1/11", "6": "1/13"}})
    code, rep = _run_json(capsys, ["verify", "suite", "--process", desc, "--k-max", "2"])
    assert code == 0 and all(r["pass"] for r in rep["records"])


def test_verify_formula_coefficient_table(capsys):
    # order-2 diagonal of the constant-cumulant process: 1 + 1/N
    code, rep = _run_json(capsys, [
        "verify", "formula", "--partition", "((1,2))", "--process", "free_poisson"])
    assert code == 0
    table = {r["inv_n_power"]: r["coefficient"] for r in rep["records"]}
    assert table == {0: "1/1", 1: "1/1"}
    code = run(["verify", "formula", "--partition", "((1,3)(2,4))",
                "--process", "free_poisson", "--output", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(row["inv_n_power"] != "0" for row in rows)  # crossing: no constant term
    # the semicircular St of one point is 0: its table is the constant 0, never empty
    argv = ["verify", "formula", "--partition", "((1))", "--process", "semicircular"]
    code, rep = _run_json(capsys, argv)
    assert code == 0
    assert [(r["inv_n_power"], r["coefficient"]) for r in rep["records"]] == [(0, "0/1")]
    assert run(argv + ["--output", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(r["inv_n_power"], r["coefficient"]) for r in rows] == [("0", "0/1")]


def test_csv_output_and_out_file(tmp_path):
    path = tmp_path / "report.csv"
    code = run(["partitions", "enumerate", "--k", "3", "--output", "csv",
                "--out", str(path)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert len(rows) == 5
    assert {r["partition"] for r in rows} == {
        "((1,2,3))", "((1,2)(3))", "((1,3)(2))", "((1)(2,3))", "((1)(2)(3))"}


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_an_out_path_that_cannot_be_written_is_refused_before_the_handler(
        tmp_path, capsys, monkeypatch, where):
    # a missing directory, and a directory itself: the handler never runs
    ran = []
    monkeypatch.setattr("freestoch.cli._cmd_partitions_enumerate",
                        lambda args: ran.append(args) or [])
    path = tmp_path / where
    assert run(["partitions", "enumerate", "--k", "3", "--out", str(path)]) == 2
    assert _flag_error_line(capsys) == (
        "freestoch partitions enumerate: error: argument --out: "
        f"expected a file path in an existing directory, got {str(path)!r}")
    assert ran == [] and list(tmp_path.iterdir()) == []


def test_simulate_calibrate_small(capsys):
    code, rep = _run_json(capsys, [
        "simulate", "calibrate", "--dim", "150", "--trials", "20", "--seed", "3",
        "--n", "4"])
    assert code == 0
    assert rep["seed"] == 3
    assert all(r["pass"] for r in rep["records"])


def test_simulate_proj_decay_csv_columns(capsys):
    code = run(["simulate", "proj-decay", "--k", "1", "--dim", "80",
                "--meshes", "4,8", "--trials", "4", "--seed", "2", "--output", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for col in ("d", "N", "trial_count", "estimate", "stderr", "seed", "pass"):
        assert col in rows[0]


def test_simulate_main_theorem_record(capsys):
    code, rep = _run_json(capsys, [
        "simulate", "main-theorem", "--partition", "((1,3)(2))", "--dim", "80",
        "--n", "10", "--trials", "2", "--seed", "5", "--threshold", "0.5"])
    assert code == 0
    rec = rep["records"][0]
    assert rec["seed"] == 5 and rec["estimate"] < 0.5


def test_reports_are_reproducible(capsys):
    argv = ["simulate", "calibrate", "--dim", "60", "--trials", "5", "--seed", "11",
            "--n", "3"]
    code1, rep1 = _run_json(capsys, argv)
    code2, rep2 = _run_json(capsys, argv)
    assert code1 == code2 == 0 and rep1 == rep2


def test_usage_errors_exit_2(capsys):
    assert run(["partitions", "classify", "--partition", "((1,2)"]) == 2
    assert run(["partitions", "enumerate", "--k", "13"]) == 2
    assert run(["verify", "suite", "--process", "unknown_name"]) == 2
    for cmd in (["verify", "main-theorem"], ["verify", "suite"],
                ["verify", "examples", "--which", "brownian"]):
        assert run(cmd + ["--k-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--k-max: expected an integer >= 1" in captured.err
    assert not _passed([])


@pytest.mark.parametrize("argv", [
    ["verify", "formula", "--partition", "((1,2))", "--t", "-1"],
    ["verify", "formula", "--partition", "((1,2))", "--t", "1/0"],
    ["verify", "main-theorem", "--t", "-1"],
    ["verify", "examples", "--which", "brownian", "--t", "0"],
    ["cumulants", "to-moments", "--order", "0"],
    ["cumulants", "to-moments", "--order", "-2"],
])
def test_nonpositive_time_and_order_exit_2_with_one_error_line(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and len(errors) == 1


@pytest.mark.parametrize("argv, error", [
    (["calibrate", "--n", "0", "--trials", "2"], "--n: expected an integer >= 1, got '0'"),
    (["main-theorem", "--n", "0", "--trials", "1"], "--n: expected an integer >= 1, got '0'"),
    (["proj-decay", "--meshes", "0,4", "--trials", "2"],
     "--meshes: expected comma-separated integers >= 1, got '0,4'"),
    (["proj-decay", "--k", "0", "--trials", "2"], "--k: expected an integer >= 1, got '0'"),
])
def test_simulate_size_errors_exit_2_with_one_error_line(capsys, argv, error):
    assert run(["simulate", *argv, "--dim", "20"]) == 2
    assert _flag_error_line(capsys) == f"freestoch simulate {argv[0]}: error: argument {error}"


@pytest.mark.parametrize("threshold", ["inf", "nan"])
def test_non_finite_threshold_exits_2_before_any_draw(capsys, threshold):
    # inf used to pass and nan to fail whatever the estimate
    assert run(["simulate", "main-theorem", "--dim", "2", "--n", "1", "--trials", "1",
                "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and errors == [
        "freestoch simulate main-theorem: error: argument --threshold: "
        f"expected a finite number, got {threshold!r}"]


@pytest.mark.parametrize("meshes,error", [
    ("4", "error: need at least two meshes to compare"),
    ("8,4", "error: meshes must be strictly increasing, got [8, 4]"),
    ("4,16,8", "error: meshes must be strictly increasing, got [4, 16, 8]")])
def test_proj_decay_refuses_meshes_it_cannot_compare(capsys, meshes, error):
    # with one mesh the sweep used to exit 0 with nothing compared
    assert run(["simulate", "proj-decay", "--dim", "10", "--trials", "1",
                "--meshes", meshes]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [error]


@pytest.mark.parametrize("argv", [
    ["cumulants", "from-moments"],
    ["cumulants", "from-moments", "--moments", "1,2", "--functional", "f.json"],
    ["cumulants", "from-moments", "--functional", "{array}"],
    ["cumulants", "to-moments", "--functional", "{array}"],
    ["cumulants", "to-moments", "--functional", "{no_values}"],
    ["cumulants", "to-moments", "--functional", "{bool_k}"],
    ["cumulants", "from-moments", "--functional", "{bool_k}"],
    ["cumulants", "from-moments", "--functional", "{repeated}"],
    ["cumulants", "to-moments", "--functional", "{repeated}"],
    ["cumulants", "from-moments", "--functional", "{repeated_key}"],
    ["cumulants", "to-moments", "--process", "{repeated_process_key}"],
])
def test_cumulant_sources_exit_2_with_one_error_line(tmp_path, capsys, argv):
    array = tmp_path / "array.json"
    array.write_text("[1, 2, 5]")
    no_values = tmp_path / "no_values.json"
    no_values.write_text('{"k": 2, "values": [1, 2]}')
    bool_k = tmp_path / "bool_k.json"  # true is a JSON boolean, not the integer 1
    bool_k.write_text('{"k": true, "values": {"1": "2"}}')
    repeated = tmp_path / "repeated.json"  # "01,2" names the subset of "1,2" again
    repeated.write_text('{"k": 2, "values": {"1": "1", "2": "1", "1,2": "2", "01,2": "7"}}')
    repeated_key = tmp_path / "repeated_key.json"  # json alone would keep the last "1,2"
    repeated_key.write_text('{"k": 2, "values": {"1": "1", "2": "1", "1,2": "2", "1,2": "7"}}')
    repeated_process_key = '{"type": "custom", "cumulants": {"1": "1/2", "1": "1/3"}}'
    argv = [a.format(array=array, no_values=no_values, bool_k=bool_k, repeated=repeated,
                     repeated_key=repeated_key, repeated_process_key=repeated_process_key)
            for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and len(errors) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("process", ["free_poisson", "semicircular"])
def test_to_moments_takes_a_process_or_a_functional_not_both(tmp_path, capsys, process):
    # --process used to be ignored when --functional was given
    path = tmp_path / "cumulants.json"
    path.write_text('{"k": 1, "values": {"1": "1/2"}}')
    code, rep = _run_json(capsys, ["cumulants", "to-moments", "--functional", str(path)])
    assert code == 0 and rep["records"][0]["moments"] == "1/2"
    assert run(["cumulants", "to-moments", "--process", process, "--functional", str(path)]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and errors == [
        "freestoch cumulants to-moments: error: argument --functional: "
        "not allowed with argument --process"]


def test_to_moments_refuses_an_order_beside_a_functional(tmp_path, capsys):
    # --order counts moments of --process, and used to be ignored here
    path = tmp_path / "cumulants.json"
    path.write_text('{"k": 1, "values": {"1": "1/2"}}')
    assert run(["cumulants", "to-moments", "--functional", str(path), "--order", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: argument --order: not allowed with argument --functional"]


def test_to_moments_names_the_order_beyond_the_declared_cumulants(capsys):
    one = '{"type":"custom","cumulants":{"1":"1"}}'
    assert run(["cumulants", "to-moments", "--process", one, "--order", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: argument --order: custom process declares cumulants up to order 1, "
        "order 3 requested"]
    code, rep = _run_json(capsys, ["cumulants", "to-moments", "--process", one, "--order", "1"])
    assert code == 0 and rep["records"][0]["moments"] == "1/1"


@pytest.mark.parametrize("argv, flag", [
    (["partitions", "enumerate", "--k", "0"], "--k"),
    (["partitions", "kreweras", "--partition", "((1,2)"], "--partition"),
    (["partitions", "mobius", "--lower", "((1)(3))", "--upper", "((1,2))"], "--lower"),
    (["partitions", "mobius", "--lower", "((1)(2))", "--upper", "((1,1))"], "--upper"),
    (["verify", "suite", "--process", "brownian"], "--process"),
    (["cumulants", "from-moments", "--functional", "{missing}"], "--functional"),
    (["cumulants", "from-moments", "--moments", "1,x"], "--moments"),
    (["simulate", "proj-decay", "--meshes", "2,x"], "--meshes"),
    (["simulate", "calibrate", "--dim", "1"], "--dim"),
    (["simulate", "main-theorem", "--trials", "0"], "--trials"),
    (["simulate", "calibrate", "--n", "0"], "--n"),
    (["simulate", "proj-decay", "--k", "0"], "--k"),
])
def test_a_bad_value_of_one_flag_is_a_usage_error_that_names_it(tmp_path, capsys, argv, flag):
    # each of these was parsed or checked after argparse, and its error named no flag
    assert run([a.format(missing=tmp_path / "missing.json") for a in argv]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and len(errors) == 1 and f"argument {flag}: " in errors[0]


@pytest.mark.parametrize("descriptor, key", [
    ({"type": "custom"}, "cumulants"),
    ({"type": "tuple"}, "mode"),
    ({"type": "tuple", "mode": "identical", "k": 2}, "base"),
    ({"type": "tuple", "mode": "identical", "base": "free_poisson"}, "k"),
    ({"type": "tuple", "mode": "free_family"}, "components"),
])
def test_a_descriptor_without_a_key_names_the_descriptor_and_the_key(capsys, descriptor, key):
    # the error used to be the bare key, as 'cumulants'
    assert run(["verify", "suite", "--process", json.dumps(descriptor)]) == 2
    assert _flag_error_line(capsys) == ("freestoch verify suite: error: argument --process: "
                                        f"process descriptor {descriptor} lacks the key {key!r}")


@pytest.mark.parametrize("command", ["calibrate", "main-theorem", "proj-decay"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_simulate_seed_is_an_integer_of_at_least_zero(capsys, command, seed):
    # numpy's own refusal of -1 named no flag
    assert run(["simulate", command, "--dim", "4", "--trials", "1", "--seed", seed]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and errors == [
        f"freestoch simulate {command}: error: argument --seed: "
        f"expected an integer >= 0, got {seed!r}"]


def test_l2_runs_to_k8_and_refuses_k9(capsys):
    argv = ["verify", "main-theorem", "--process", "semicircular", "--order", "L2"]
    code, rep = _run_json(capsys, argv + ["--k-max", "8"])
    assert code == 0 and all(r["pass"] for r in rep["records"])
    # all of NC(k), k <= 8
    assert len(rep["records"]) == 1 + 2 + 5 + 14 + 42 + 132 + 429 + 1430
    assert run(argv + ["--k-max", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: L2 at k=9 needs arity 18 > 16"]


@pytest.mark.parametrize("argv, error", [
    (["verify", "main-theorem", "--order", "L1", "--k-max", "11"],
     "error: L1 at k=11 exceeds St arity guard 10"),
    (["verify", "main-theorem", "--order", "both", "--k-max", "9"],
     "error: L2 at k=9 needs arity 18 > 16"),
    (["verify", "examples", "--which", "free_poisson", "--k-max", "9"],
     "error: L2 at k=9 needs arity 18 > 16"),
])
def test_k_max_caps_exit_2_before_any_work(capsys, monkeypatch, argv, error):
    def no_work(k):
        raise AssertionError(f"enumerated NC({k}) before checking the cap")

    monkeypatch.setattr("freestoch.cli.enumerate_noncrossing", no_work)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [error]


def test_matrix_main_theorem_arity_cap_exits_2_before_any_draw(capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("sampled increments before checking the cap")

    monkeypatch.setattr("freestoch.matrixsim.sample_increments", no_draw)
    assert run(["simulate", "main-theorem", "--partition", "((1)(2)(3)(4)(5)(6)(7)(8)(9))",
                "--dim", "4", "--n", "2", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: matrix St arity 9 exceeds guard 8"]
    # 0-hat_8 at N = 40: the crossing coarsenings' brute-force sums are
    # summed up front, and refused as a whole.
    assert run(["simulate", "main-theorem", "--partition", "((1)(2)(3)(4)(5)(6)(7)(8))",
                "--dim", "4", "--n", "40", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: brute-force Pr sums need ")


@pytest.mark.parametrize("partition, dim, n, error", [
    # three blocks on two intervals: no tuple puts them on distinct ones
    ("((1)(2)(3))", "8", "2", "3 blocks, more than the 2 of 2 intervals with nonzero rank"),
    ("((1,3)(2)(4))", "8", "2", "3 blocks, more than the 2 of 2 intervals with nonzero rank"),
    # d = 2 split over 40 intervals leaves 38 of them rank 0
    ("((1,3)(2)(4))", "2", "40", "3 blocks, more than the 2 of 40 intervals with nonzero rank"),
])
def test_matrix_main_theorem_refuses_an_identically_zero_st_before_any_draw(
        capsys, monkeypatch, partition, dim, n, error):
    # the relative residual of St_p = 0 is rounding noise over rounding noise:
    # it used to pass (estimate 0.0) or fail (about 1e15) by chance
    def no_draw(*args):
        raise AssertionError("sampled increments before checking the ranks")

    monkeypatch.setattr("freestoch.matrixsim.sample_increments", no_draw)
    assert run(["simulate", "main-theorem", "--partition", partition, "--dim", dim,
                "--n", n, "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        f"error: St_p of {partition} is identically 0: {error}"]


@pytest.mark.parametrize("partition, dim, n", [
    ("((1,2)(3))", "60", "6"), ("((1)(2))", "60", "6"), ("((1,2))", "60", "6"),
    # one block fits on one interval of nonzero rank, and is still refused
    ("((1,2,3))", "6", "1"),
])
def test_matrix_main_theorem_refuses_a_partition_without_inner_block_before_any_draw(
        capsys, monkeypatch, partition, dim, n):
    # an interval partition's right side is the same sum as St_p: it used to
    # pass with estimate 0.0 by construction
    def no_draw(*args):
        raise AssertionError("sampled increments before checking the inner blocks")

    monkeypatch.setattr("freestoch.matrixsim.sample_increments", no_draw)
    assert run(["simulate", "main-theorem", "--partition", partition, "--dim", dim,
                "--n", n, "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        f"error: {partition} has no inner block: both sides are the same sum St_p"]


def test_unallocatable_dim_exits_2(capsys):
    # numpy refuses the 10^7 x 10^7 draw before touching any memory
    assert run(["simulate", "calibrate", "--dim", "10000000", "--trials", "1", "--n", "4"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")


def test_suite_runs_to_k6_and_refuses_k7(capsys):
    assert MAX_SUITE_K == 6
    for process in ("free_poisson", "semicircular"):
        code, rep = _run_json(capsys, ["verify", "suite", "--process", process, "--k-max", "6"])
        assert code == 0 and all(r["pass"] for r in rep["records"]), process
        assert any(r["check"] == "st_pr_inversion" and r["partition"] == "((1)(2)(3)(4)(5)(6))"
                   for r in rep["records"])
    assert run(["verify", "suite", "--k-max", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: identity suite capped at k_max = 6"]


def _one_block(k):
    return "((" + ",".join(map(str, range(1, k + 1))) + "))"


def test_formula_runs_at_the_arity_guard_and_refuses_above(capsys):
    # free Poisson, one block: the 1/N^j coefficient counts NC(k) by
    # |rho| = j + 1, the Narayana number C(k, j+1) C(k, j) / k
    from math import comb

    k = MAX_ST_ARITY
    code, rep = _run_json(capsys, ["verify", "formula", "--partition", _one_block(k)])
    assert code == 0
    assert {r["inv_n_power"]: r["coefficient"] for r in rep["records"]} == {
        j: f"{comb(k, j + 1) * comb(k, j) // k}/1" for j in range(k)}
    assert run(["verify", "formula", "--partition", _one_block(k + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        f"error: St arity {k + 1} exceeds guard {k}"]


def _copies(k):
    return f'{{"type": "tuple", "mode": "identical", "base": "free_poisson", "k": {k}}}'


@pytest.mark.parametrize("process, shown", [
    (_copies(10000000), "10000000"),
    (_copies(10**9), "1000000000"),
    (_copies('"11"'), "11"),
    ('{"type": "tuple", "mode": "free_family", "components": ["semicircular", '
     + _copies(10**8) + "]}", "100000000"),
])
def test_tuple_descriptor_above_the_arity_guard_exits_2_before_building(
        capsys, monkeypatch, process, shown):
    def no_build(obj):
        raise AssertionError("built a spec before checking the copy count")

    monkeypatch.setattr("freestoch.cli.spec_from_descriptor", no_build)
    assert run(["verify", "formula", "--partition", "((1,2))", "--process", process]) == 2
    assert _flag_error_line(capsys) == ("freestoch verify formula: error: argument --process: "
                                        f"tuple of {shown} copies exceeds St arity guard "
                                        f"{MAX_ST_ARITY}")


@pytest.mark.parametrize("partition, k", [
    ("((1))", "true"), ("((1,2))", "2.7"), ("((1,2))", "2.0"), ("((1,2))", '"2"'),
    ("((1,2))", "null")])
def test_a_tuple_k_that_is_not_a_json_integer_exits_2(capsys, partition, k):
    assert run(["verify", "formula", "--partition", partition, "--process", _copies(k)]) == 2
    assert _flag_error_line(capsys).startswith(
        "freestoch verify formula: error: argument --process: "
        "identical copies need an integer k >= 1, got ")


def test_an_infinite_tuple_descriptor_exits_2_with_one_error_line(capsys):
    assert run(["verify", "formula", "--partition", "((1,2))", "--process",
                _copies("Infinity")]) == 2
    assert _flag_error_line(capsys) == (
        "freestoch verify formula: error: argument --process: "
        "malformed process descriptor: cannot convert float infinity to integer")


def test_tuple_descriptor_at_the_arity_guard_is_the_named_process(capsys):
    one = _one_block(MAX_ST_ARITY)
    _, named = _run_json(capsys, ["verify", "formula", "--partition", one])
    code, tuple_ = _run_json(capsys, ["verify", "formula", "--partition", one,
                                      "--process", _copies(MAX_ST_ARITY)])
    assert code == 0
    assert [r["coefficient"] for r in tuple_["records"]] == \
        [r["coefficient"] for r in named["records"]]


@pytest.mark.parametrize("argv", [
    ["cumulants", "to-moments", "--order", "13"],
    ["cumulants", "from-moments", "--moments", ",".join(["1"] * 13)],
    ["cumulants", "to-moments", "--functional", "{k13}"],
    ["cumulants", "from-moments", "--functional", "{k13}"],
])
def test_transforms_above_the_order_guard_exit_2(tmp_path, capsys, argv):
    from freestoch.cumulants import nonempty_subsets

    k13 = tmp_path / "k13.json"
    k13.write_text(json.dumps({"k": 13, "values": {",".join(map(str, b)): "1"
                                                   for b in nonempty_subsets(13)}}))
    assert run([a.format(k13=k13) for a in argv]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and len(errors) == 1
    assert "exceeds guard 12" in errors[0]


def test_exact_commands_leave_numpy_unloaded():
    # A fresh interpreter: the test process itself has numpy loaded already.
    src = pathlib.Path(freestoch.__file__).resolve().parent.parent
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from freestoch.cli import run
        exact = [
            ["partitions", "enumerate", "--k", "4", "--noncrossing"],
            ["partitions", "mobius", "--lower", "((1)(2))", "--upper", "((1,2))"],
            ["cumulants", "from-moments", "--moments", "1,2,5"],
            ["cumulants", "to-moments", "--order", "3"],
            ["verify", "suite", "--k-max", "2"],
            ["verify", "main-theorem", "--k-max", "2"],
            ["verify", "examples", "--which", "brownian", "--k-max", "2"],
            ["verify", "formula", "--partition", "((1,2))"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [run(argv) for argv in exact]
            exact_loaded = sorted({"numpy", "concurrent.futures"} & set(sys.modules))
            exact_reflection = sorted({"dataclasses", "inspect"} & set(sys.modules))
            codes.append(run(["simulate", "proj-decay", "--dim", "20", "--meshes", "2,4",
                              "--trials", "2"]))
        print(json.dumps({"codes": codes, "heavy_after_exact": exact_loaded,
                          "reflection_after_exact": exact_reflection,
                          "numpy_after_simulate": "numpy" in sys.modules}))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == {"codes": [0] * 9, "heavy_after_exact": [],
                                       "reflection_after_exact": [],
                                       "numpy_after_simulate": True}


def test_failing_check_exits_1(capsys, monkeypatch):
    # force a failure: sandwich blocks whose norm, d / r for an r x r block,
    # grows as the mesh shrinks
    import numpy as np

    import freestoch.matrixsim as matrixsim

    def growing(rng, d, part):
        r = len(range(d)[part])
        return np.eye(r, dtype=complex) * (d / r)

    monkeypatch.setattr(matrixsim, "hermitian_gaussian", growing)
    code, rep = _run_json(capsys, ["simulate", "proj-decay", "--k", "1", "--dim", "80",
                                   "--meshes", "4,8", "--trials", "2", "--seed", "2"])
    assert code == 1
    assert [r["pass"] for r in rep["records"]] == [True, False]


# One minimal argv per subcommand: the report header is derived from the
# parsed command, and only the simulate commands record a seed.
SUBCOMMANDS = [
    ["partitions", "enumerate", "--k", "2"],
    ["partitions", "mobius", "--lower", "((1)(2))", "--upper", "((1,2))"],
    ["partitions", "kreweras", "--partition", "((1,2))"],
    ["partitions", "classify", "--partition", "((1,3)(2))"],
    ["cumulants", "to-moments", "--order", "2"],
    ["cumulants", "from-moments", "--moments", "1,2"],
    ["verify", "suite", "--k-max", "1"],
    ["verify", "main-theorem", "--k-max", "1"],
    ["verify", "examples", "--which", "brownian", "--k-max", "1"],
    ["verify", "formula", "--partition", "((1,2))"],
    ["simulate", "calibrate", "--dim", "20", "--trials", "2", "--n", "2", "--seed", "5"],
    ["simulate", "main-theorem", "--dim", "6", "--n", "3", "--trials", "1", "--seed", "6"],
    ["simulate", "proj-decay", "--dim", "8", "--meshes", "2,4", "--trials", "1", "--seed", "7"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[" ".join(a[:2]) for a in SUBCOMMANDS])
def test_report_header_is_the_subcommand_and_its_seed(capsys, argv):
    code, rep = _run_json(capsys, argv)
    assert code in ((0, 1) if argv[0] == "simulate" else (0,)) and rep["records"]
    assert rep["command"] == " ".join(argv[:2])
    assert rep["seed"] == (int(argv[-1]) if argv[0] == "simulate" else None)


def test_subcommand_list_covers_every_handler():
    import freestoch.cli as cli

    parser = cli.build_parser()
    assert {parser.parse_args(argv).func for argv in SUBCOMMANDS} == {
        getattr(cli, name) for name in dir(cli) if name.startswith("_cmd_")}


def test_a_handler_without_records_exits_1(capsys, monkeypatch):
    # no records is no pass, whichever handler returns them
    monkeypatch.setattr("freestoch.cli._cmd_partitions_enumerate", lambda args: [])
    assert run(["partitions", "enumerate", "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert '"records": []' in captured.out and captured.err == ""


# Strings that look like the layout between records, and values json.dumps
# writes through default=str (a Fraction) or as nested containers.
_scalars = (st.text() | st.sampled_from(["},\n      {", "}, {", "\n    },", '"', "\\", "é"])
            | st.integers() | st.floats() | st.booleans() | st.none()
            | st.fractions(max_denominator=9))
_record_values = _scalars | st.lists(_scalars, max_size=2) | st.dictionaries(st.text(), _scalars,
                                                                            max_size=2)


@given(st.lists(st.dictionaries(st.text(), _scalars, max_size=4), max_size=6)
       | st.lists(st.dictionaries(st.text(), _record_values, max_size=4), max_size=6),
       st.none() | st.integers())
@settings(deadline=None, derandomize=True, max_examples=200)
def test_the_report_is_the_indented_json_of_its_records(records, seed):
    report = {"tool_version": freestoch.__version__, "command": "group command", "seed": seed,
              "records": records}
    assert _report_json(report) == json.dumps(report, indent=2, default=str)
