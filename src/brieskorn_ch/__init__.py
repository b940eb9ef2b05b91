"""Exact cylindrical contact homology of Brieskorn manifolds.

The pipeline: integral homology of the manifold and rational homology of
its circle-quotient orbit spaces (`randell`), enumeration of orbit types
(`orbits`), Maslov indices and the index character (`maslov`), graded
generator counts with periodicity and the well-definedness gate
(`contact`), and connected-sum counting with the special-sphere
construction (`connected_sum`).  Everything runs on unbounded integers
and exact rationals.

The public names below are read from their modules on first use (PEP 562),
so importing the package, or one module of it, loads no other stage.
"""

from importlib import import_module

# public name -> the module that defines it
_PUBLIC = {name: module for module, names in {
    "connected_sum": ("GeneratorCounts", "SpecialSphereVerdict", "beta", "check_primes", "combine",
                      "find_special_primes", "iterated_sphere_sum", "special_sphere_check",
                      "sphere_exponents"),
    "contact": ("CHReport", "Contribution", "DegenerateContactFormError", "GradedRanks",
                "ch_ranks", "ch_report", "generator_degree", "period_shift", "ranks_up_to",
                "sufficient_negativity_check"),
    "maslov": ("IndexCharacter", "classify_index", "crosscheck_rows", "maslov_crosscheck",
               "maslov_orbit_space", "maslov_unitary"),
    "orbits": ("OrbitType", "enumerate_orbit_types", "valid_multiplier"),
    "randell": ("ExponentVector", "HomologyInvariantError", "HomologyReport",
                "MAX_TORSION_FACTORS", "full_homology", "kappa", "orbit_space_rational_homology",
                "torsion"),
}.items() for name in names}

__all__ = sorted(_PUBLIC)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_PUBLIC[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
