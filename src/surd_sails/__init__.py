"""Exact continued fractions of quadratic surds, their sails, and the
classification of symmetric periods.

Submodules load on first use of one of their names (PEP 562), so a program
that needs only the arithmetic and continued-fraction layers never imports
the symmetry, criterion or geometry layers.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_MODULE_OF = {
    "QuadraticSurd": "arith",
    "Rational": "arith",
    "UnimodularMatrix": "arith",
    "mobius": "arith",
    "sqrt_of": "arith",
    "squarefree_split": "arith",
    "surd": "arith",
    "Convergent": "cfrac",
    "PeriodicCF": "cfrac",
    "complete_quotient_cycle": "cfrac",
    "convergents": "cfrac",
    "expand": "cfrac",
    "galois_reverse": "cfrac",
    "serret_equivalent": "cfrac",
    "serret_matrix": "cfrac",
    "value": "cfrac",
    "Classification": "criterion",
    "Witness": "criterion",
    "classify": "criterion",
    "iter_reduced_surds": "criterion",
    "shape_oracle": "criterion",
    "sqrt_shape_check": "criterion",
    "unit_period_check": "criterion",
    "witness": "criterion",
    "LatticePoint": "geometry",
    "QuadraticForm": "geometry",
    "Sail": "geometry",
    "SproutEdgePair": "geometry",
    "edge_sprout_bijection": "geometry",
    "emit_svg": "geometry",
    "fixed_line_surds": "geometry",
    "integer_angle": "geometry",
    "integer_length": "geometry",
    "korkina_construct": "geometry",
    "lagrange_automorphism": "geometry",
    "sail_from_surd": "geometry",
    "sprout": "geometry",
    "Center": "symmetry",
    "CenterKind": "symmetry",
    "CyclicWord": "symmetry",
    "ShapeDecomposition": "symmetry",
    "canonical_rotation": "symmetry",
    "centers": "symmetry",
    "centers_record": "symmetry",
    "is_cyclic_palindrome": "symmetry",
    "is_regular_palindrome": "symmetry",
    "shape_decompose": "symmetry",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule that defines a public name, on its first use."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
