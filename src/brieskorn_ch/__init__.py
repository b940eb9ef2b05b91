"""Exact cylindrical contact homology of Brieskorn manifolds.

The pipeline: integral homology of the manifold and rational homology of
its circle-quotient orbit spaces (`randell`), enumeration of orbit types
(`orbits`), Maslov indices and the index character (`maslov`), graded
generator counts with periodicity and the well-definedness gate
(`contact`), and connected-sum counting with the special-sphere
construction (`connected_sum`).  Everything runs on unbounded integers
and exact rationals.
"""

from .connected_sum import (
    GeneratorCounts,
    SpecialSphereVerdict,
    beta,
    check_primes,
    combine,
    find_special_primes,
    iterated_sphere_sum,
    special_sphere_check,
    sphere_exponents,
)
from .contact import (
    CHReport,
    Contribution,
    DegenerateContactFormError,
    GradedRanks,
    ch_ranks,
    ch_report,
    generator_degree,
    period_shift,
    ranks_up_to,
    sufficient_negativity_check,
)
from .maslov import (
    IndexCharacter,
    classify_index,
    maslov_crosscheck,
    maslov_orbit_space,
    maslov_unitary,
)
from .orbits import OrbitType, enumerate_orbit_types, valid_multiplier
from .randell import (
    ExponentVector,
    HomologyInvariantError,
    HomologyReport,
    full_homology,
    kappa,
    orbit_space_rational_homology,
    torsion,
)

__version__ = "0.1.0"
