"""Fuzz test of the CLI exit contract: 0 when every check passes, 1 when a
check fails, 2 on a usage error, never a traceback and nothing on stderr
but argparse's usage block and one `error:` line.

Argument vectors are drawn per subcommand from pools of valid and broken
values, and each draw knows whether it is broken.  A broken draw must exit
2; a valid one must exit 0, or 0 or 1 for a `simulate` command, whose small
ensembles may miss a statistical gate.  So a pool value is broken only if
every command that draws it refuses it, and pools are split per command
where that differs.  Sizes (`--dim`, `--trials`, `--n`, `--k`, `--k-max`,
`--order`, the length of `--moments`) are always given and kept small, so
every command finishes in milliseconds.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from freestoch.cli import run

# Each pool is (valid values, broken values).  Blocks given in any order
# parse, so ((2)(1)) is valid.
PARTITIONS = (("((1,2)(3))", "((1,3)(2))", "((1)(2))", "((1,2))", "((1,4)(2,3))", "((2)(1))"),
              ("((1,3)(2,4))", "((1,2)", "((1,1))", "((0))", "((1000000000000))", "()", "x"))
# Mobius needs lower <= upper on one ground set: each valid lower refines
# each valid upper, all noncrossing, so that either lattice takes them; a
# broken value has another ground set or does not parse.  The crossing
# upper is valid on the full lattice only, so it has an entry of its own.
MOBIUS_LOWER = (("((1)(2)(3)(4))", "((4)(3)(2)(1))", "((1)(2,3)(4))"),
                ("((1,2)(3))", "((1,2)", "((1,1))", "x"))
MOBIUS_UPPER = (("((1,2,3,4))", "((1,4)(2,3))", "((1,2,3)(4))"), ("((1)(2))", "()", "((0))"))
# The first broken process asks for 10^7 identical copies, refused before
# they are built; it is put first so that the derandomized draws reach it.
# The custom process declares the cumulants up to order 6 that the valid
# sizes ask for: L2 at k = 3 and St of 1-hat_6 in verify formula.
PROCESSES = (("free_poisson", "semicircular",
              '{"type": "custom", "cumulants": {"1": "1/2", "2": "1/3", "3": "1/5", "4": "1",'
              ' "5": "2/7", "6": "1/11"}}',
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
# simulate main-theorem refuses a partition without an inner block, whose
# two sides are the same sum: its valid partitions all have one, and the
# interval partitions are broken.
MAIN_THEOREM_PARTITIONS = (("((1,3)(2))", "((1,4)(2,3))", "((2)(1,3))", "((1,2,4)(3))"),
                           ("((1,2)(3))", "((1)(2))", "((1,2))", "((2)(1))") + PARTITIONS[1])
# simulate main-theorem checks its sizes before the matrix check refuses a
# crossing partition or one above its arity guard, so a second entry fixes
# valid sizes and varies the partition alone, from a broken half that the
# derandomized draws cover: a 0-hat one point above the guard, a crossing
# pattern, a syntax error and an interval partition.
SIMULATE_PARTITIONS = (MAIN_THEOREM_PARTITIONS[0], ("((1)(2)(3)(4)(5)(6)(7)(8)(9))",
                                                    "((1,3)(2,4))", "((1,2)", "((1,2)(3))"))
# St_p is identically 0 when p has more blocks than there are intervals of
# nonzero rank, and simulate main-theorem refuses it: at --n 1 every
# multi-block partition is broken, and the one-block ones have no inner
# block, so every partition is.  The sizes pool keeps --n at 3 or more,
# where every valid (two-block) partition fits, since --dim >= 2 gives at
# least two nonzero ranks.
ONE_INTERVAL_PARTITIONS = ((), ("((1,2))", "((1))", "((1,2,3))", "((1)(2))", "((1,3)(2))",
                                "((2)(1))", "((1,2)(3))"))
RATIONALS = (("1", "3/2", "1/3"), ("0", "-1", "1/0", "x", ""))
K_MAX = (("1", "2", "3"), ("0", "-1", "x", ""))
# One above each command's cap, checked before any work: the suite's, the
# St arity's (main-theorem L1; L2 and both refuse it too) and the L2
# arity's (examples).
SUITE_K_MAX = (K_MAX[0], ("7",) + K_MAX[1])
MAIN_THEOREM_K_MAX = (K_MAX[0], ("11",) + K_MAX[1])
EXAMPLES_K_MAX = (K_MAX[0], ("9",) + K_MAX[1])
# No estimate beats a threshold of 0: the check runs and fails.  A
# non-finite threshold would pass (inf) or fail (nan) whatever the estimate.
THRESHOLDS = (("0.5", "0.9", "0"), ("x", "nan", "inf"))
OUTPUT = {"--output": (("json", "csv"), ("xml",))}
STRAY_TOKENS = ("--bogus", "extra", "--k", "--help", "--moments", "--functional")

FUNCTIONALS = {
    "moments.json": {"k": 2, "values": {"1": "1", "2": "1", "1,2": "2"}},
    "cumulants.json": {"k": 1, "values": {"1": "1/2"}},
    "array.json": [1, 2, 5],
    "null_k.json": {"k": None, "values": {}},
    "list_values.json": {"k": 2, "values": ["1", "2"]},
    "huge_k.json": {"k": 4096, "values": {"1": "1"}},
    "short.json": {"k": 3, "values": {"1": "1"}},
    "bool_k.json": {"k": True, "values": {"1": "2"}},
    "repeated.json": {"k": 2, "values": {"1": "1", "2": "1", "1,2": "2", "01,2": "7"}},
}


def _commands(files=((), ())):
    """(command words, {flag: pool or None for a switch}, flags always given,
    the flags among them that the command requires)."""
    return [
        (["partitions", "enumerate"], {"--k": (("1", "4", "7"), ("0", "13", "x")),
                                       "--noncrossing": None, **OUTPUT}, ("--k",), ("--k",)),
        (["partitions", "mobius"], {"--lower": MOBIUS_LOWER, "--upper": MOBIUS_UPPER,
                                    "--lattice": (("full", "noncrossing"), ("other",)),
                                    **OUTPUT}, ("--lower", "--upper"), ("--lower", "--upper")),
        (["partitions", "mobius", "--lattice", "full"], {
            "--lower": (MOBIUS_LOWER[0][:2], MOBIUS_LOWER[1]),
            "--upper": (("((1,3)(2,4))",) + MOBIUS_UPPER[0], MOBIUS_UPPER[1]), **OUTPUT},
         ("--lower", "--upper"), ("--lower", "--upper")),
        (["partitions", "kreweras"], {"--partition": PARTITIONS, **OUTPUT}, ("--partition",),
         ("--partition",)),
        (["partitions", "classify"], {"--partition": PARTITIONS, **OUTPUT}, ("--partition",),
         ("--partition",)),
        (["cumulants", "to-moments"], {"--process": PROCESSES,
                                       "--order": (("1", "3", "5"), ("0", "-1", "x")),
                                       **OUTPUT}, ("--order",), ()),
        (["cumulants", "to-moments"], {"--functional": files, "--order": ((), ("3",)), **OUTPUT},
         ("--functional",), ()),
        (["cumulants", "from-moments"], {
            "--moments": (("1,2,5,14", "1", "0,1", "1/2,3"), ("1,,2", "", "x", "1/0")),
            **OUTPUT}, ("--moments",), ("--moments",)),
        (["cumulants", "from-moments"], {"--functional": files, **OUTPUT}, ("--functional",),
         ("--functional",)),
        (["verify", "suite"], {"--process": PROCESSES, "--k-max": SUITE_K_MAX, **OUTPUT},
         ("--k-max",), ()),
        (["verify", "main-theorem"], {"--process": PROCESSES, "--k-max": MAIN_THEOREM_K_MAX,
                                      "--order": (("L1", "L2", "both"), ("L3",)),
                                      "--t": RATIONALS, **OUTPUT}, ("--k-max",), ()),
        (["verify", "examples"], {"--which": (("free_poisson", "brownian"), ("other",)),
                                  "--k-max": EXAMPLES_K_MAX, "--t": RATIONALS, **OUTPUT},
         ("--which", "--k-max"), ("--which",)),
        (["verify", "formula"], {"--partition": FORMULA_PARTITIONS, "--process": PROCESSES,
                                 "--t": RATIONALS, **OUTPUT}, ("--partition",), ("--partition",)),
        (["simulate", "calibrate"], {
            "--model": (("poisson_sps", "gaussian_increments"), ("other",)),
            "--dim": (("2", "6", "12"), ("1", "x")), "--trials": (("1", "3"), ("0", "x")),
            "--seed": (("1", "7"), ("-1", "x")), "--n": (("1", "3"), ("0", "x")), **OUTPUT},
         ("--dim", "--trials", "--n"), ()),
        (["simulate", "main-theorem"], {
            "--partition": MAIN_THEOREM_PARTITIONS, "--dim": (("2", "6", "12"), ("1",)),
            "--n": (("3", "5"), ("0",)), "--trials": (("1", "2"), ("0", "-1")),
            "--seed": (("1", "7"), ("-1",)), "--threshold": THRESHOLDS, **OUTPUT},
         ("--dim", "--n", "--trials"), ()),
        (["simulate", "main-theorem", "--dim", "6", "--n", "3", "--trials", "1"],
         {"--partition": SIMULATE_PARTITIONS}, ("--partition",), ()),
        (["simulate", "main-theorem", "--dim", "6", "--n", "1", "--trials", "1"],
         {"--partition": ONE_INTERVAL_PARTITIONS}, ("--partition",), ()),
        (["simulate", "proj-decay"], {
            "--k": (("1", "2"), ("0", "x")), "--dim": (("2", "48", "64"), ("1",)),
            "--meshes": (("2,4", "1,2,3"), ("4", "0,4", "", "a", "4,-2", "8,4", "2,x")),
            "--trials": (("1", "3"), ("0",)), "--seed": (("1", "7"), ("-1",)), **OUTPUT},
         ("--dim", "--meshes", "--trials"), ()),
    ]


@st.composite
def argument_vectors(draw, words, pools, always, required):
    """(argv, broken).  Half the draws keep to valid values; in the other
    half each flag may take a broken value or, if the command requires it,
    be dropped, and a stray token may be inserted.  `broken` says whether
    any of these happened.  A flag whose pool has no valid value is always
    given a broken one.  A stray --help, put where the command's own
    parser meets it first, asks for help whatever else is broken: valid."""
    breaking = draw(st.booleans())
    argv, broken = list(words), False
    for flag, pool in pools.items():
        if flag in required and breaking and draw(st.booleans()):
            broken = True
            continue
        if flag not in always and not draw(st.booleans()):
            continue
        if pool is None:
            argv.append(flag)
            continue
        valid, bad = pool
        bad_value = not valid or (breaking and draw(st.booleans()))
        broken |= bad_value
        argv += [flag, draw(st.sampled_from(bad if bad_value else valid))]
    if breaking and draw(st.booleans()):
        token = draw(st.sampled_from(STRAY_TOKENS))
        if token == "--help":
            argv.insert(len(words), token)
            return argv, False
        argv.insert(draw(st.integers(0, len(argv))), token)
        broken = True
    return argv, broken


@pytest.fixture(scope="module")
def functional_files(tmp_path_factory):
    """(valid paths, broken paths) of functional JSON files."""
    root = tmp_path_factory.mktemp("functionals")
    for name, blob in FUNCTIONALS.items():
        (root / name).write_text(json.dumps(blob))
    (root / "not_json.json").write_text("{")
    paths = [str(root / name) for name in (*FUNCTIONALS, "not_json.json", "missing.json")]
    return tuple(paths[:2]), tuple(paths[2:]) + (str(root),)


def _pool_values(words, pools, always, required):
    """Every value of every pool once, as (argv, broken), the other flags that
    are always given at their first valid value (or first broken one, when
    they have none): the fuzz draws may miss a value, this walk may not."""
    first = {flag: (pools[flag][0] or pools[flag][1])[0] for flag in always}
    for flag, pool in pools.items():
        for broken, values in enumerate(pool or ()):
            for value in values:
                given = {**first, flag: value}
                broken_elsewhere = any(not pools[f][0] for f in given if f != flag)
                yield ([*words, *(x for item in given.items() for x in item)],
                       bool(broken) or broken_elsewhere)


def _check_exit_contract(argv, broken, exact):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    lines = err.getvalue().splitlines()
    assert not caught, (argv, [str(w.message) for w in caught])
    if broken:
        assert code == 2 and out.getvalue() == "", (argv, code)
        errors = [line for line in lines if "error:" in line]
        assert errors == lines[-1:], (argv, lines)
        assert all(line.startswith(("usage:", " ")) for line in lines[:-1]), (argv, lines)
    else:
        assert code in ((0,) if exact else (0, 1)), (argv, code, lines)
        assert lines == [], (argv, lines)


COMMAND_IDS = ["-".join([w.strip("-") for w in words]
                        + [flag.strip("-") for flag in always
                           if flag in ("--moments", "--functional")])
               for words, _, always, _ in _commands()]


@pytest.mark.parametrize("index", range(len(_commands())), ids=COMMAND_IDS)
def test_cli_keeps_its_exit_contract(functional_files, index):
    command = _commands(functional_files)[index]
    # The partitions and cumulants commands take milliseconds: draw more of them.
    cheap = command[0][0] in ("partitions", "cumulants")

    @settings(deadline=None, derandomize=True, max_examples=50 if cheap else 20)
    @given(argument_vectors(*command))
    def check(draw):
        _check_exit_contract(*draw, exact=command[0][0] != "simulate")

    check()


@pytest.mark.parametrize("index", range(len(_commands())), ids=COMMAND_IDS)
def test_each_pool_value_keeps_the_exit_contract(functional_files, index):
    command = _commands(functional_files)[index]
    for argv, broken in _pool_values(*command):
        _check_exit_contract(argv, broken, exact=command[0][0] != "simulate")
