"""Golden stdout digests of the exact CLI commands.

Each command of the README's "Command line" section that runs the exact
engine, and the three exact cold-CLI benchmark commands the README does not
list, runs in-process through `run`; its exit status and the sha256 of its
stdout must equal the values recorded here.  The digests cover the whole
report, `tool_version` included, so they change only with a deliberate
change of output: a new record field, a new layout, a version bump.  Record
the new digests in the same commit as such a change, never to make an
accidental one pass.  The `simulate` commands are left out, since their
floats depend on the BLAS build.
"""

import contextlib
import hashlib
import io

import pytest

from freestoch.cli import run

NC7 = ["--lower", "((1)(2)(3)(4)(5)(6)(7))", "--upper", "((1,2,3,4,5,6,7))",
       "--lattice", "noncrossing"]

GOLDEN = [
    (["partitions", "enumerate", "--k", "4", "--noncrossing"],
     "8e2396e0b80e4749b22e561d9f1ed3c1042863e38b6770428c43f0f765eaa7e4"),
    (["partitions", "classify", "--partition", "((1,6,7)(2,5)(3)(4)(8)(9,10))"],
     "66347384f1c787b9f4943ac2414d724a6fb924037fd0639d10a65ab8979dfc3d"),
    (["partitions", "kreweras", "--partition", "((1,2)(3))"],
     "8906a68c21202c094f42b88731cdf1301f7dd0943e27b080c6a77798a87c95a6"),
    (["partitions", "mobius", "--lower", "((1)(2)(3))", "--upper", "((1,2,3))",
      "--lattice", "noncrossing"],
     "16600bc6e0df3a8a75a0dd0a2ea07e44c3a7069052fea577b5ed6a5d694cd917"),
    (["cumulants", "to-moments", "--process", "free_poisson", "--order", "4"],
     "cc8309f50abf28dab1f6dd7421630e562f321c24b2c06173f78a10fe894a9305"),
    (["cumulants", "from-moments", "--moments", "1,2,5,14"],
     "2e2b671e99d7424eb5ef85d4296b19ab70f6d04a171bb22246b37734acafc403"),
    (["verify", "suite", "--process", "free_poisson", "--k-max", "4"],
     "ac0d5206dd68b744a75d5e36097874c8d551de34c1642d72a0852d054a1eafe7"),
    (["verify", "main-theorem", "--process", "semicircular", "--k-max", "4", "--order", "both"],
     "e9b4cb20741db080271fb42dd7785fcbd268e424751344538fa280bf01cf8595"),
    (["verify", "examples", "--which", "brownian", "--k-max", "4"],
     "9ed50ae09a837e6fbbf190323694bf14e95b8609ab80fdab6f0a734386a3ef68"),
    (["verify", "formula", "--partition", "((1,3)(2,4))", "--output", "csv"],
     "b6c61f1b44507ecacb00192b001ab86f3351a90446c206653d3e5692bd33b8d7"),
    (["partitions", "enumerate", "--k", "9"],
     "c1dbc3f4a27711665fd220b64c1976c65efcf1e9623ed611c6fa318b13709486"),
    (["partitions", "mobius", *NC7],
     "9c6614ee577d9711c3141847ff77d06aecd0d3fcb22e655b9a588324323e24c7"),
    (["cumulants", "from-moments", "--moments", "1,2,5,14,42,132,429"],
     "bff39879876efd1049522cdbc1667534be452bde29947d4612f8a2c63e2368e0"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_exact_command_output_is_unchanged(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (0, digest)
