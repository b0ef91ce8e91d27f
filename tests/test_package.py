import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ghostkit
from ghostkit import (
    characters, config, functors, fusion, grammar, homalg, modules, rigidity, verify, weights,
)

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


# Each plain record of the package: a builder of one instance, another
# instance that differs in one field, and the repr of the first.
RECORDS = {
    "Config": (
        lambda: config.Config(catalog_bound=3), config.Config(),
        "Config(hmax=Fraction(8, 1), jwindow=(Fraction(-6, 1), Fraction(6, 1)), "
        "catalog_bound=3, strict_guards=False, pool_max_length=7, pool_max_flow=3, "
        "pool_cosets=(Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))"),
    "LoewyWord": (
        lambda: modules.loewy(modules.proj(0)), modules.loewy(modules.vac(0)),
        "LoewyWord(entries=((0, 'top'), (-1, 'middle'), (1, 'middle'), (0, 'bottom')), "
        "diamond=True)"),
    "ExactSequence": (
        lambda: modules.sequence_catalog(1)[2], modules.sequence_catalog(1)[3],
        "ExactSequence(name='staggered sub', sub=FormalSum(B[2,0]), middle=FormalSum(P[0]), "
        "quotient=FormalSum(B[2,-1]), tag='stag-sub')"),
    "FusionResult": (
        lambda: fusion.fuse_detailed(modules.bstr(3, 0), modules.bstr(2, 0)),
        fusion.fuse_detailed(modules.bstr(3, 0), modules.bstr(3, 0)),
        "FusionResult(total=FormalSum(B[2,0] + P[2]), guard_extended=False, "
        "sums=((ProjSum(m=1, n=1, k=1), 1),))"),
    "Check": (
        lambda: verify.Check("commutativity", True, "ordered pairs", 3),
        verify.Check("commutativity", False, "ordered pairs", 3),
        "Check(name='commutativity', passed=True, detail='ordered pairs', cases=3)"),
    "ProjSum": (
        lambda: fusion.ProjSum(1, 2, 0), fusion.ProjSum(2, 1, 0),
        "ProjSum(m=1, n=2, k=0)"),
    "GrothClass": (
        lambda: fusion.groth_class(modules.bstr(2, 0)), fusion.unit_class(),
        "GrothClass(terms=((Vac(ell=0), 1), (Vac(ell=1), 1)))"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_hash_print_and_pickle_by_fields(name):
    build, other, text = RECORDS[name]
    record, again = build(), build()
    assert type(record).__name__ == name
    assert record == again and hash(record) == hash(again)
    assert record != other
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record
    field = text[len(name) + 1:].split("=", 1)[0]  # the first field, as the repr names it
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_refuse_deletion():
    records = ((modules.vac(-2), "ell"), (modules.typ(Fraction(1, 3), 4), "coset"),
               (modules.bstr(3, -1), "n"), (modules.tstr(2, 5), "n"), (modules.proj(0), "m"),
               (fusion.ProjSum(1, 2, 0), "m"), (fusion.unit_class(), "terms"))
    for record, field in records:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == value


def test_records_refuse_bool_and_non_integral_fields():
    # True == 1, but V[True] is no module the grammar reads back, and
    # S[1.5,2;0] cannot expand; the factories convert True to 1
    for make in (lambda: modules.Vac(True), lambda: modules.Typ(Fraction(1, 3), False),
                 lambda: modules.BStr(2, False), lambda: modules.TStr(True, 0),
                 lambda: modules.Proj(True), lambda: fusion.ProjSum(True, 1, 0),
                 lambda: fusion.ProjSum(1, 2, False), lambda: fusion.ProjSum(1.5, 2, 0)):
        with pytest.raises(TypeError, match="must be (an int|ints)"):
            make()
    assert str(modules.vac(True)) == "V[1]" and str(modules.bstr(2, False)) == "B[2,0]"
    assert fusion.expand_projsum(True, 1, False) == fusion.ProjSum(1, 1, 0).expand()


def test_record_checks_and_payload_keys():
    with pytest.raises(ValueError, match="m, n >= 1"):
        fusion.ProjSum(0, 2, 0)
    payload = verify.Check("commutativity", True)._asdict()
    assert list(payload) == ["name", "passed", "detail", "cases"]
    # the ring operations of GrothClass take no integer factor
    with pytest.raises(TypeError):
        3 * fusion.unit_class()
