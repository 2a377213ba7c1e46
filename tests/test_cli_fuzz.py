"""Fuzz test of the CLI exit contract: 0 when every check passes, 1 when a
check fails, 2 on a usage error, never a traceback and nothing on stderr
but argparse's usage block and one `error:` line.

Argument vectors are drawn per subcommand from pools of valid and broken
values.  Sizes (`--dim`, `--trials`, `--n`, `--k`, `--k-max`, `--order`,
the length of `--moments`) are always given and kept small, so every
command finishes in milliseconds.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from freestoch.cli import run

# Each pool is (valid values, broken values).
PARTITIONS = (("((1,2)(3))", "((1,3)(2))", "((1)(2))", "((1,2))", "((1,4)(2,3))"),
              ("((1,3)(2,4))", "((1,2)", "((2)(1))", "((1,1))", "((0))", "((1000000000000))",
               "()", "x"))
# The first broken process asks for 10^7 identical copies, refused before
# they are built; it is put first so that the derandomized draws reach it.
PROCESSES = (("free_poisson", "semicircular",
              '{"type": "custom", "cumulants": {"1": "1/2", "2": "1/3", "3": "1/5", "4": "1"}}',
              '{"type": "free_poisson", "rate": "2/3"}'),
             ('{"type": "tuple", "mode": "identical", "k": 10000000, "base": "free_poisson"}',
              "brownian", "{", "[1]", '{"type": "nope"}', '{"type": "custom"}',
              '{"type": "custom", "cumulants": [1, 2]}',
              '{"type": "tuple", "mode": "identical", "k": null, "base": "semicircular"}',
              '{"type": "tuple", "mode": "identical", "k": true, "base": "free_poisson"}',
              '{"type": "tuple", "mode": "identical", "k": 2.7, "base": "free_poisson"}',
              '{"type": "tuple", "mode": "identical", "k": 2, "base": 5}',
              '{"type": "tuple", "mode": "free_family", "components": 3}'))
# verify formula takes crossing patterns; its broken half also holds a
# well-formed partition one point above the St arity guard, put first like
# the suite's k_max above its cap so that the derandomized draws reach it.
FORMULA_PARTITIONS = (PARTITIONS[0] + ("((1,3)(2,4))", "((1,2,3,4,5,6))"),
                      ("((" + ",".join(map(str, range(1, 12))) + "))",) + PARTITIONS[1][1:])
# simulate main-theorem checks its sizes before the matrix check refuses a
# crossing partition or one above its arity guard, so a second entry fixes
# valid sizes and varies the partition alone, from a broken half that the
# derandomized draws cover: a 0-hat one point above the guard, a crossing
# pattern and a syntax error.
SIMULATE_PARTITIONS = (PARTITIONS[0], ("((1)(2)(3)(4)(5)(6)(7)(8)(9))", "((1,3)(2,4))", "((1,2)"))
RATIONALS = (("1", "3/2", "1/3"), ("0", "-1", "1/0", "x", ""))
K_MAX = (("1", "2", "3"), ("0", "-1", "x", ""))
# One above each command's cap, checked before any work: the suite's, the
# St arity's (main-theorem L1; L2 and both refuse it too) and the L2
# arity's (examples).
SUITE_K_MAX = (K_MAX[0], ("7",) + K_MAX[1])
MAIN_THEOREM_K_MAX = (K_MAX[0], ("11",) + K_MAX[1])
EXAMPLES_K_MAX = (K_MAX[0], ("7",) + K_MAX[1])
OUTPUT = {"--output": (("json", "csv"), ("xml",))}
# Never dropped, so that no command runs at its default size.
SIZE_FLAGS = ("--dim", "--trials", "--n", "--k-max")

FUNCTIONALS = {
    "moments.json": {"k": 2, "values": {"1": "1", "2": "1", "1,2": "2"}},
    "cumulants.json": {"k": 1, "values": {"1": "1/2"}},
    "array.json": [1, 2, 5],
    "null_k.json": {"k": None, "values": {}},
    "list_values.json": {"k": 2, "values": ["1", "2"]},
    "huge_k.json": {"k": 4096, "values": {"1": "1"}},
    "short.json": {"k": 3, "values": {"1": "1"}},
    "bool_k.json": {"k": True, "values": {"1": "2"}},
}


def _commands(files=((), ())):
    """(command words, {flag: pool or None for a switch}, flags always given)."""
    return [
        (["partitions", "enumerate"], {"--k": (("1", "4", "7"), ("0", "13", "x")),
                                       "--noncrossing": None, **OUTPUT}, ("--k",)),
        (["partitions", "mobius"], {"--lower": PARTITIONS, "--upper": PARTITIONS,
                                    "--lattice": (("full", "noncrossing"), ("other",)),
                                    **OUTPUT}, ("--lower", "--upper")),
        (["partitions", "kreweras"], {"--partition": PARTITIONS, **OUTPUT}, ("--partition",)),
        (["partitions", "classify"], {"--partition": PARTITIONS, **OUTPUT}, ("--partition",)),
        (["cumulants", "to-moments"], {"--process": PROCESSES,
                                       "--order": (("1", "3", "5"), ("0", "-1", "x")),
                                       **OUTPUT}, ("--order",)),
        (["cumulants", "to-moments"], {"--functional": files, **OUTPUT}, ("--functional",)),
        (["cumulants", "from-moments"], {
            "--moments": (("1,2,5,14", "1", "0,1", "1/2,3"), ("1,,2", "", "x", "1/0")),
            **OUTPUT}, ("--moments",)),
        (["cumulants", "from-moments"], {"--functional": files, **OUTPUT}, ("--functional",)),
        (["verify", "suite"], {"--process": PROCESSES, "--k-max": SUITE_K_MAX, **OUTPUT},
         ("--k-max",)),
        (["verify", "main-theorem"], {"--process": PROCESSES, "--k-max": MAIN_THEOREM_K_MAX,
                                      "--order": (("L1", "L2", "both"), ("L3",)),
                                      "--t": RATIONALS, **OUTPUT}, ("--k-max",)),
        (["verify", "examples"], {"--which": (("free_poisson", "brownian"), ("other",)),
                                  "--k-max": EXAMPLES_K_MAX, "--t": RATIONALS, **OUTPUT},
         ("--which", "--k-max")),
        (["verify", "formula"], {"--partition": FORMULA_PARTITIONS, "--process": PROCESSES,
                                 "--t": RATIONALS, **OUTPUT}, ("--partition",)),
        (["simulate", "calibrate"], {
            "--model": (("poisson_sps", "gaussian_increments"), ("other",)),
            "--dim": (("2", "6", "12"), ("1", "x")), "--trials": (("1", "3"), ("0", "x")),
            "--seed": (("1", "7"), ("-1", "x")), "--n": (("1", "3"), ("0", "x")), **OUTPUT},
         ("--dim", "--trials", "--n")),
        (["simulate", "main-theorem"], {
            "--partition": PARTITIONS, "--dim": (("2", "6", "12"), ("1",)),
            "--n": (("1", "3", "5"), ("0",)), "--trials": (("1", "2"), ("0", "-1")),
            "--seed": (("1", "7"), ("-1",)),
            "--threshold": (("0.5", "0.9", "0"), ("nan", "x")), **OUTPUT},
         ("--dim", "--n", "--trials")),
        (["simulate", "main-theorem", "--dim", "6", "--n", "3", "--trials", "1"],
         {"--partition": SIMULATE_PARTITIONS}, ("--partition",)),
        (["simulate", "proj-decay"], {
            "--k": (("1", "2"), ("0", "x")), "--dim": (("48", "64"), ("1", "2")),
            "--meshes": (("2,4", "1,2,3"), ("4", "0,4", "", "a", "4,-2", "8,4")),
            "--trials": (("1", "3"), ("0",)), "--seed": (("1", "7"), ("-1",)), **OUTPUT},
         ("--dim", "--meshes", "--trials")),
    ]


@st.composite
def argument_vectors(draw, words, pools, always):
    """Half the draws keep to valid values; in the other half each flag may
    take a broken value or, unless it sets a size, be dropped, and a stray
    token may be inserted."""
    broken = draw(st.booleans())
    argv = list(words)
    for flag, pool in pools.items():
        if flag in always:
            given_ = flag in SIZE_FLAGS or not (broken and draw(st.booleans()))
        else:
            given_ = draw(st.booleans())
        if not given_:
            continue
        if pool is None:
            argv.append(flag)
            continue
        valid, bad = pool
        argv += [flag, draw(st.sampled_from(bad if broken and draw(st.booleans()) else valid))]
    if broken and draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(("--bogus", "extra", "--k", "--help", "--moments",
                                          "--functional"))))
    return argv


@pytest.fixture(scope="module")
def functional_files(tmp_path_factory):
    """(valid paths, broken paths) of functional JSON files."""
    root = tmp_path_factory.mktemp("functionals")
    for name, blob in FUNCTIONALS.items():
        (root / name).write_text(json.dumps(blob))
    (root / "not_json.json").write_text("{")
    paths = [str(root / name) for name in (*FUNCTIONALS, "not_json.json", "missing.json")]
    return tuple(paths[:2]), tuple(paths[2:]) + (str(root),)


@pytest.mark.parametrize("index", range(len(_commands())), ids=[
    "-".join([w.strip("-") for w in words]
             + [flag.strip("-") for flag in always if flag in ("--moments", "--functional")])
    for words, _, always in _commands()])
def test_cli_keeps_its_exit_contract(functional_files, index):
    command = _commands(functional_files)[index]
    # The partitions and cumulants commands take milliseconds: draw more of them.
    cheap = command[0][0] in ("partitions", "cumulants")

    @settings(deadline=None, derandomize=True, max_examples=50 if cheap else 20)
    @given(argument_vectors(*command))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), argv
        assert not caught, (argv, [str(w.message) for w in caught])
        if code == 2:
            errors = [line for line in lines if "error:" in line]
            assert errors == lines[-1:], (argv, lines)
            assert all(line.startswith(("usage:", " ")) for line in lines[:-1]), (argv, lines)
        else:
            assert lines == [], (argv, lines)

    check()
