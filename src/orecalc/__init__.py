"""Exact algebra for Ore extensions K[x][y; f d/dx] over finite fields.

The package computes, for a monic polynomial f over F_q:

  * the group of affine substitutions x -> lambda*x + mu that scale f by a
    power of lambda (over the splitting field and descended to the base
    field), together with the structured eigenform of f that the group
    action forces;
  * the centre, automorphism group, and isomorphism classification of the
    Ore algebra Lambda(f) with the defining relation y*x - x*y = f;
  * matrix presentations of its simple modules and its prime and maximal
    spectrum data;
  * the inverse problem: a polynomial realizing a prescribed subgroup.

Every structured computation ships with an independent brute-force oracle;
the `oracle` CLI subcommand diffs the two.
"""

from .errors import DomainError, InternalCheckError, ParseError
from .gf import (
    GF,
    FieldDesc,
    FieldTower,
    FqElement,
    in_subfield,
    min_field_of_unity,
    primitive_root_of_unity,
    pth_root,
    tower_over,
)
from .poly import (
    ExponentDecomp,
    Poly,
    RootMultiset,
    decompose_through,
    exponent_decomp,
    f_V,
    is_irreducible,
    multiplier_field,
    roots_with_multiplicity,
    splitting_tower,
)
from .ore import (
    CentreGens,
    OreAlgebra,
    OreElement,
    delta_apply,
    delta_power,
    is_central,
    verify_normality,
)
from .eigengroup import (
    AffineAut,
    EigengroupDesc,
    EigengroupResult,
    Eigenform,
    SubgroupSpec,
    eigengroup,
    eigengroup_bruteforce,
    eigengroup_closed,
    eigengroup_descend,
    eigengroup_over_base,
    inverse_eigengroup,
    shift_space,
)
from .lambda_aut import (
    AutGroupDesc,
    IsoResult,
    LambdaAut,
    OreHom,
    are_isomorphic,
    aut_group,
)
from .modules_spectra import (
    SimpleModuleSpec,
    SpectrumDesc,
    factor_into_irreducibles,
    simple_module_off_f,
    simple_module_on_f,
    spectrum,
)
from .parsing import (
    format_element,
    format_field,
    format_ore,
    format_poly,
    parse_element,
    parse_field,
    parse_ore,
    parse_poly,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "AffineAut",
    "AutGroupDesc",
    "CentreGens",
    "DomainError",
    "EigengroupDesc",
    "EigengroupResult",
    "Eigenform",
    "ExponentDecomp",
    "FieldDesc",
    "FieldTower",
    "FqElement",
    "InternalCheckError",
    "IsoResult",
    "LambdaAut",
    "OreAlgebra",
    "OreElement",
    "OreHom",
    "ParseError",
    "Poly",
    "RootMultiset",
    "SimpleModuleSpec",
    "SpectrumDesc",
    "SubgroupSpec",
    "are_isomorphic",
    "aut_group",
    "decompose_through",
    "delta_apply",
    "delta_power",
    "eigengroup",
    "eigengroup_bruteforce",
    "eigengroup_closed",
    "eigengroup_descend",
    "eigengroup_over_base",
    "exponent_decomp",
    "f_V",
    "factor_into_irreducibles",
    "format_element",
    "format_field",
    "format_ore",
    "format_poly",
    "in_subfield",
    "inverse_eigengroup",
    "is_central",
    "is_irreducible",
    "min_field_of_unity",
    "multiplier_field",
    "parse_element",
    "parse_field",
    "parse_ore",
    "parse_poly",
    "primitive_root_of_unity",
    "pth_root",
    "roots_with_multiplicity",
    "shift_space",
    "simple_module_off_f",
    "simple_module_on_f",
    "spectrum",
    "splitting_tower",
    "tower_over",
    "verify_normality",
]
