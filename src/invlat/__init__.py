"""Exact integer-lattice toolkit for degree bounds of diagonal
representations of finite abelian groups.

The lattice of invariant Laurent monomials is the kernel of a congruence
system; bfield and bfieldr are computed by exact shell search over the L1
ball and dspan by a breadth-first search over the cosets Z^m/L, and the
geometry-of-numbers layer provides successive minima, short bases and basis
completion with proven norm bounds.
"""

from .ball_enum import points_up_to, shell_points
from .constructions import (
    SharpCaseSpec,
    codim1_check,
    codim1_generators,
    conjecture_bound,
    counterexample_check,
    counterexample_lattice,
    dicyclic_dspan,
    dicyclic_witness_check,
    dihedral_dspan,
    sharp_case_lattice,
)
from .degree_bounds import (
    CapExceededError,
    DegreeBoundReport,
    bfield,
    bfieldr,
    dspan,
    verify_bound_relations,
)
from .geomnum import (
    complete_basis_short,
    determinant_form,
    dual_pair_lift,
    effective_minima_bounds,
    gen_deg_basis,
    mahler_basis,
    minkowski_check,
    successive_minima,
)
from .lattice_core import (
    AllColumnsRemovedError,
    CongruenceSystem,
    GeneratedLattice,
    InternalError,
    InvalidSystemError,
    LatticeBasis,
    detect_trivial_or_duplicate,
    drop_trivial_and_duplicates,
    from_congruences,
    is_generating,
    l1norm,
    weight,
)
from .rank2 import (
    StructureViolation,
    enumerate_sublattices,
    find_E,
    find_H,
    he_analysis,
    hrd_verify,
    sigma,
    staircase_dspan_bound,
)
from .sampling import random_congruence_systems

__version__ = "0.1.0"
