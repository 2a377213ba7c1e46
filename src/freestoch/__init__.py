"""Exact calculus of partition-indexed measures of free Levy processes.

The package has two halves.  The exact half (`partitions`, `cumulants`,
`processes`, `measures`) works entirely in rational arithmetic: set
partitions and the noncrossing lattice, joint moment/free-cumulant
transforms, process specifications by per-unit-time cumulants, and an
expectation engine for Riemann-sum measures at finite subdivisions and in
the mesh limit.  The numeric half (`matrixsim`) checks the operator-level
limit statements on finite random-matrix models.
"""

__version__ = "0.1.0"

from .errors import CrossingPartitionError, DimensionError, SizeGuardError
from .partitions import (
    ClassSplit,
    Partition,
    classify_classes,
    enumerate_noncrossing,
    enumerate_set_partitions,
    is_noncrossing,
    kreweras,
    mobius,
    opposite,
    refines,
)
from .cumulants import (
    CumulantFunctional,
    MomentFunctional,
    cumulant_functional,
    moment_functional,
)
from .processes import (
    ProcessSpec,
    Subdivision,
    make_custom_process,
    make_free_poisson,
    make_semicircular,
    make_tuple,
)
from .measures import (
    diagonal_nesting_residual,
    example_formulas_check,
    expect_pr,
    expect_st,
    identity_suite,
    inner_peeling_residual,
    l2_residual,
    limit_expect_st,
    main_theorem_residual,
    st_uniform_formula,
)
