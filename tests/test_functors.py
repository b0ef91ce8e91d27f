from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ghostkit.functors import conjugate, dual_restricted, dual_star, dual_tensor, flow
from ghostkit.modules import (
    BOTTOM, TOP, BStr, ExactSequence, FormalSum, Module, TStr, Vac, as_sum, bstr,
    composition_factors, proj, sequence_catalog, tstr, typ, vac,
    w_zero_minus, w_zero_plus,
)

cosets = st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                          Fraction(1, 7)])
flows = st.integers(min_value=-6, max_value=6)
lengths = st.integers(min_value=2, max_value=8)


def transform_word(mod: Module, *, flip_flows: bool, swap_rows: bool) -> Module:
    """Re-canonicalize a simple or string module from its transformed word.

    This is the raw factor/row rule underlying :func:`conjugate`
    (``flip_flows`` only) and :func:`dual_restricted` (both flags), the
    first-principles reference for the closed forms of the label methods.
    """
    word = list(mod.rows())
    if flip_flows:
        word = [(-1 - f, r) for f, r in word]
    if swap_rows:
        word = [(f, TOP if r == BOTTOM else BOTTOM) for f, r in word]
    word.sort()
    flows = [f for f, _ in word]
    if flows != list(range(flows[0], flows[0] + len(flows))):
        raise ValueError("transformed word is not a consecutive chain")
    if len(word) == 1:
        return Vac(flows[0])
    first_row = word[0][1]
    return bstr(len(word), flows[0]) if first_row == BOTTOM else tstr(len(word), flows[0])


def sequence_image(functor, seq, *, contravariant: bool = False):
    """Image of an exact sequence under an exact functor; contravariant
    functors swap the sub and quotient terms."""
    sub, mid, quot = functor(seq.sub), functor(seq.middle), functor(seq.quotient)
    if contravariant:
        sub, quot = quot, sub
    return ExactSequence(seq.name, as_sum(sub), as_sum(mid), as_sum(quot), seq.tag)


@st.composite
def modules(draw):
    kind = draw(st.sampled_from("VWBTP"))
    if kind == "V":
        return vac(draw(flows))
    if kind == "W":
        return typ(draw(cosets), draw(flows))
    if kind == "B":
        return bstr(draw(lengths), draw(flows))
    if kind == "T":
        return tstr(draw(lengths), draw(flows))
    return proj(draw(flows))


def test_flow_on_labels():
    assert flow(bstr(3, 2), -2) == bstr(3, 0)
    assert flow(typ(Fraction(1, 3), 0), 5) == typ(Fraction(1, 3), 5)
    assert flow(proj(-1), 1) == proj(0)


def test_conjugate_on_simples_and_staggered():
    assert conjugate(vac(0)) == vac(-1)
    assert conjugate(typ(Fraction(1, 3), 2)) == typ(Fraction(2, 3), -2)
    assert conjugate(proj(0)) == proj(-1)


def test_conjugate_on_strings_follows_the_row_rule():
    # keep rows, flip flows: the letter flips for even lengths only
    assert conjugate(bstr(2, 0)) == TStr(2, -2)
    assert conjugate(tstr(2, -1)) == BStr(2, -1)
    assert conjugate(bstr(3, 0)) == BStr(3, -3)
    # consistency with the zero-coset swap: c(W0+) = W0-
    assert conjugate(w_zero_plus()) == w_zero_minus()
    assert conjugate(w_zero_minus()) == w_zero_plus()


def test_dual_restricted_values():
    assert dual_restricted(vac(2)) == vac(-3)
    assert dual_restricted(bstr(2, 0)) == BStr(2, -2)
    assert dual_restricted(bstr(3, 0)) == TStr(3, -3)
    assert dual_restricted(typ(Fraction(1, 4), 1)) == typ(Fraction(3, 4), -1)
    assert dual_restricted(proj(0)) == proj(-1)
    # the zero-coset relaxed modules are self-dual up to flow
    assert dual_restricted(w_zero_plus()) == w_zero_plus()
    assert dual_restricted(w_zero_minus()) == w_zero_minus()


def test_dual_star_fixed_points_and_swap():
    assert dual_star(bstr(4, 1)) == TStr(4, 1)
    assert dual_star(tstr(4, 1)) == BStr(4, 1)
    assert dual_star(proj(7)) == proj(7)
    assert dual_star(vac(3)) == vac(3)
    assert dual_star(typ(Fraction(2, 5), -2)) == typ(Fraction(2, 5), -2)


def test_dual_tensor_values():
    assert dual_tensor(typ(Fraction(1, 3), 2)) == typ(Fraction(2, 3), -1)
    assert dual_tensor(vac(5)) == vac(-5)
    assert dual_tensor(proj(0)) == proj(0)


@given(modules())
def test_involutions(m):
    assert conjugate(conjugate(m)) == m
    assert dual_restricted(dual_restricted(m)) == m
    assert dual_star(dual_star(m)) == m


@given(modules(), st.integers(min_value=-5, max_value=5))
def test_dihedral_relation_on_labels(m, ell):
    assert conjugate(flow(m, ell)) == flow(conjugate(m), -ell)


@given(modules())
def test_star_is_conjugate_of_restricted(m):
    assert dual_star(m) == conjugate(dual_restricted(m))


@given(modules(), st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-4, max_value=4))
def test_flow_is_a_group_action_on_labels(m, a, b):
    assert flow(flow(m, a), b) == flow(m, a + b)


def test_closed_forms_match_word_transformation():
    # the string rules are forced by the factor/row transformations; check
    # every length up to 8 from first principles
    mods = [vac(0), vac(-2)]
    mods += [mk(n, m) for mk in (bstr, tstr) for n in range(2, 9) for m in (-2, 0, 3)]
    for mod in mods:
        assert conjugate(mod) == transform_word(mod, flip_flows=True, swap_rows=False)
        assert dual_restricted(mod) == transform_word(mod, flip_flows=True,
                                                      swap_rows=True)


@given(modules())
def test_functors_preserve_length(m):
    n = sum(composition_factors(m).values())
    for f in (conjugate, dual_restricted, dual_star, dual_tensor):
        assert sum(composition_factors(f(m)).values()) == n


@given(modules())
def test_factor_image_compatibility(m):
    # factors of the image = image of the factors, for covariant functors
    for f in (conjugate, lambda x: flow(x, 2)):
        expect = {}
        for simple, k in composition_factors(m).items():
            expect[f(simple)] = expect.get(f(simple), 0) + k
        assert composition_factors(f(m)) == expect


def test_functors_lift_to_sums():
    s = FormalSum(((vac(0), 2), (bstr(3, 1), 1)))
    assert dual_star(s) == FormalSum(((vac(0), 2), (tstr(3, 1), 1)))


@pytest.mark.parametrize("contravariant,functor", [
    (False, conjugate),
    (False, lambda x: flow(x, -2)),
    (True, dual_restricted),
    (True, dual_star),
])
def test_catalog_maps_to_consistent_sequences(contravariant, functor):
    for seq in sequence_catalog(5):
        image = sequence_image(functor, seq, contravariant=contravariant)
        assert image.factors_balance(), (seq.name, functor)


@given(modules(), st.integers(min_value=-5, max_value=5))
def test_label_interface(m, k):
    assert m.flowed(k).flow == m.flow + k
    assert m.flowed(-m.flow).flow == 0
    assert m.conjugated().conjugated() == m
    assert m.starred().starred() == m
    assert m.starred().conjugated() == dual_restricted(m)
