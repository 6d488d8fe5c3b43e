"""Exact enumeration of minimal lattice coverings of Z^2 and the
certificates deciding extraordinariness of dihedral binary forms.
"""

from .catalog import (
    Catalog,
    CatalogEntry,
    generate_catalog,
    parse,
    serialize,
    verify_catalog,
)
from .enumeration import enumerate_minimal_coverings, raw_solutions
from .forms import (
    BinaryForm,
    cross_value_check,
    dagger,
    discriminant,
    extraordinary_by_C3,
    sextic,
)
from .groebner import certificate_bases, verify_all
from .lattices import Subgroup, canonicalize, index, is_cover, lattice_of
from .mat2 import RatMat2, parse_mat2
from .modular import run_all_scans

__all__ = [
    "BinaryForm",
    "Catalog",
    "CatalogEntry",
    "RatMat2",
    "Subgroup",
    "canonicalize",
    "certificate_bases",
    "cross_value_check",
    "dagger",
    "discriminant",
    "enumerate_minimal_coverings",
    "extraordinary_by_C3",
    "generate_catalog",
    "index",
    "is_cover",
    "lattice_of",
    "parse",
    "parse_mat2",
    "raw_solutions",
    "run_all_scans",
    "serialize",
    "sextic",
    "verify_all",
    "verify_catalog",
]

__version__ = "1.0.0"
