import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghostkit
from ghostkit import characters, functors, fusion, grammar, homalg, modules, rigidity, weights

# ``ghostkit.__all__`` as it was when the package imported every submodule
PUBLIC = [
    "Weight", "conj_weight", "coset", "coset_add", "flow_weight", "weight",
    "BStr", "ExactSequence", "FormalSum", "LoewyWord", "Proj", "TStr", "Typ",
    "Vac", "bstr", "composition_factors", "head", "is_injective",
    "is_projective", "length", "loewy", "proj", "sequence_catalog", "socle",
    "tstr", "typ", "vac", "w_zero_minus", "w_zero_plus",
    "conjugate", "dual_restricted", "dual_star", "dual_tensor", "flow",
    "FusionResult", "GrothClass", "GuardExtensionError", "ProjSum",
    "expand_projsum", "fuse", "fuse_detailed", "groth_class", "groth_product",
    "unit_class",
    "ext_dim", "euler_check", "hom_dim", "injective_hull",
    "presentation_cokernel", "presentation_kernel", "projective_cover",
    "CharSeries", "TruncationError", "char_dual", "char_flow", "character",
    "pbw_character_oracle",
    "beta_fn", "gamma_fn", "hyp2f1", "rigidity_constant",
    "ParseError", "parse_module_expr", "parse_single_module",
]
SUBMODULES = (weights, modules, functors, fusion, homalg, characters, rigidity, grammar)


def test_public_names_are_unchanged():
    assert ghostkit.__all__ == PUBLIC
    assert len(PUBLIC) == 64


def test_each_public_name_is_the_submodule_object():
    for name in PUBLIC:
        homes = [mod for mod in SUBMODULES if name in vars(mod)]
        assert homes, f"{name} is in no submodule"
        for mod in homes:
            assert getattr(ghostkit, name) is vars(mod)[name], (name, mod.__name__)


def test_public_names_and_submodules_are_listed_by_dir():
    assert set(PUBLIC) <= set(dir(ghostkit))
    assert {mod.__name__.split(".")[1] for mod in SUBMODULES} <= set(dir(ghostkit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ghostkit.no_such_name
    assert not hasattr(ghostkit, "_fuse_base")


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from ghostkit import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_submodules_load_only_the_standard_library():
    # ghostkit has no runtime dependencies: importing every submodule in a
    # fresh interpreter loads no top-level module outside the standard library
    src = str(Path(ghostkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import pkgutil, sys\n"
              "before = set(sys.modules)\n"
              "import ghostkit\n"
              "for info in pkgutil.iter_modules(ghostkit.__path__):\n"
              "    __import__('ghostkit.' + info.name)\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert {f"ghostkit.{mod.__name__.split('.')[1]}" for mod in SUBMODULES} <= set(loaded)
    outside = {name.split(".")[0] for name in loaded} - {"ghostkit"}
    assert outside <= sys.stdlib_module_names, sorted(outside - sys.stdlib_module_names)
