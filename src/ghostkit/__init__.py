"""ghostkit: exact calculus for the rank-1 bosonic ghost module category.

Canonical module labels, the functor dihedral action, the complete fusion
product table with its Grothendieck ring, Hom/Ext dimensions with covers,
hulls and presentations, truncated graded characters with an enumeration
oracle, and floating-point verification of the hypergeometric rigidity
constants.

The public names below are loaded on first use (PEP 562), so importing the
package, or one submodule such as ``ghostkit.cli``, runs only the submodules
that are needed.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides, in the order of ``__all__``
_PUBLIC = {
    "weights": ("Weight", "conj_weight", "coset", "coset_add", "flow_weight", "weight"),
    "modules": (
        "BStr", "ExactSequence", "FormalSum", "LoewyWord", "Proj", "TStr", "Typ",
        "Vac", "bstr", "composition_factors", "head", "is_injective",
        "is_projective", "length", "loewy", "proj", "sequence_catalog", "socle",
        "tstr", "typ", "vac", "w_zero_minus", "w_zero_plus",
    ),
    "functors": ("conjugate", "dual_restricted", "dual_star", "dual_tensor", "flow"),
    "fusion": (
        "FusionResult", "GrothClass", "GuardExtensionError", "ProjSum",
        "expand_projsum", "fuse", "fuse_detailed", "groth_class", "groth_product",
        "unit_class",
    ),
    "homalg": (
        "ext_dim", "euler_check", "hom_dim", "injective_hull",
        "presentation_cokernel", "presentation_kernel", "projective_cover",
    ),
    "characters": (
        "CharSeries", "TruncationError", "char_dual", "char_flow", "character",
        "pbw_character_oracle",
    ),
    "rigidity": ("beta_fn", "gamma_fn", "hyp2f1", "rigidity_constant"),
    "grammar": ("ParseError", "parse_module_expr", "parse_single_module"),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _PUBLIC:  # ``import ghostkit; ghostkit.fusion`` as before
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | _SOURCE.keys() | _PUBLIC.keys())
