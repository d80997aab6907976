"""Exact construction and certification of the osculating-tangent spread of
Cayley's ruled cubic surface over prime fields and the rationals.
"""

from .field import (
    PrimeField,
    Rationals,
    SpreadRegime,
    classify_field,
    cube_roots,
    nontrivial_cube_root_of_unity,
    parse_field_spec,
)

__version__ = "0.1.0"

__all__ = [
    "PrimeField",
    "Rationals",
    "SpreadRegime",
    "classify_field",
    "cube_roots",
    "nontrivial_cube_root_of_unity",
    "parse_field_spec",
    "__version__",
]
