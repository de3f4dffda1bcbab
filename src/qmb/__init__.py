"""Exact workbench for the quantum matrix algebra.

Normal forms in the PBW basis, quantum minors, exhaustive verification of
the minor commutation identities, and certified Ore-condition witnesses.
"""

from .scalars import LaurentQ, QRational
from .algebra import (
    ContextMismatchError,
    DegreeCapError,
    Element,
    MultiDegree,
    basis_monomials,
    commutator,
    commutative_product,
    degree_cap,
    normal_form,
)
from .minors import (
    IndexSet,
    MinorId,
    column_replace,
    index_set,
    minor_element,
    qcommutation_probe,
    quantum_minor,
    quantum_minor_columns,
)
from .identities import run_suite
from .ore import (
    ChainWitness,
    OreWitness,
    compose_product,
    compose_sum,
    extend_to_power,
    multi_minor_witness,
    reduce_relative,
    solve_witness,
    verify_witness_file,
    witness_for_element,
    witness_generator_constructive,
)
from .exprparse import parse_element, parse_laurent
from . import algebra, minors, ore


def clear_caches() -> None:
    """Empty every process-global cache: the append table, the shared
    monomials ``+-q^k`` of the product kernel, expanded minors, minor powers,
    solved right-form witness systems and certified generator witnesses."""
    algebra._APPEND_CACHE.clear()
    algebra._PACKED_UNITS.clear()
    algebra._LAURENT_UNITS.clear()
    minors._minor_columns_cached.cache_clear()
    ore._minor_power.cache_clear()
    ore._solve_right.cache_clear()
    ore._GEN_WITNESS_CACHE.clear()


__all__ = [
    "LaurentQ",
    "QRational",
    "parse_laurent",
    "ContextMismatchError",
    "DegreeCapError",
    "Element",
    "MultiDegree",
    "basis_monomials",
    "clear_caches",
    "commutator",
    "commutative_product",
    "degree_cap",
    "normal_form",
    "IndexSet",
    "MinorId",
    "column_replace",
    "index_set",
    "minor_element",
    "qcommutation_probe",
    "quantum_minor",
    "quantum_minor_columns",
    "run_suite",
    "ChainWitness",
    "OreWitness",
    "compose_product",
    "compose_sum",
    "extend_to_power",
    "multi_minor_witness",
    "reduce_relative",
    "solve_witness",
    "verify_witness_file",
    "witness_for_element",
    "witness_generator_constructive",
    "parse_element",
]

__version__ = "0.1.0"
