from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlib import (
    ArityMismatchError,
    PolyParseError,
    SparsePoly,
    parse_poly,
    partials,
    serialize,
    spectrum_wh,
    thom_sebastiani,
    weighted_degree,
    weighted_homogeneity,
)
from singlib import poly

from fourier_motzkin import feasible_point


def test_parse_h(h):
    assert len(h.terms) == 3
    assert h.coeff((14, 0)) == 1
    assert h.coeff((6, 6)) == -1
    assert serialize(h) == "x^14+y^14-x^6*y^6"


def test_parse_zero():
    p = parse_poly("0", ["x", "y"])
    assert p.is_zero()
    assert p.terms == {}
    assert serialize(p) == "0"


def test_parse_single_rational_term():
    p = parse_poly("(1/3)*x^18*y^4*z^2", ["x", "y", "z"])
    assert p.terms == {(18, 4, 2): F(1, 3)}
    assert parse_poly(serialize(p, ["x", "y", "z"]), ["x", "y", "z"]) == p


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x^14 + $", ["x"])
    assert e.value.position == 7

    with pytest.raises(PolyParseError, match="unknown variable"):
        parse_poly("x+w", ["x", "y"])

    with pytest.raises(PolyParseError, match="non-negative"):
        parse_poly("x^-2", ["x"])


def test_parse_parenthesized_expression():
    p = parse_poly("(x+y)*(x-y)", ["x", "y"])
    assert p == parse_poly("x^2-y^2", ["x", "y"])


def test_partials_h(h):
    dx, dy = partials(h)
    assert dx == parse_poly("14*x^13-6*x^5*y^6", ["x", "y"])
    assert dy == parse_poly("14*y^13-6*x^6*y^5", ["x", "y"])


def test_partials_trivial():
    assert partials(parse_poly("z^5", ["z"])) == [parse_poly("5*z^4", ["z"])]
    c = parse_poly("7", ["x", "y"])
    assert partials(c) == [SparsePoly.zero(2), SparsePoly.zero(2)]


def test_mixed_arity_is_an_error():
    with pytest.raises(ArityMismatchError):
        parse_poly("x", ["x"]) + parse_poly("x+y", ["x", "y"])


def test_weighted_homogeneity_examples(h):
    assert weighted_homogeneity(parse_poly("z^5", ["z"])) == (F(1, 5),)
    assert weighted_homogeneity(parse_poly("x^2+y^3", ["x", "y"])) == (F(1, 2), F(1, 3))
    # 14 w1 = 1, 14 w2 = 1 forces w = (1/14, 1/14), but then 6 w1 + 6 w2 != 1
    assert weighted_homogeneity(h) is None


def test_weighted_homogeneity_underdetermined_is_positive_and_valid():
    # single monomial: one equation, one free direction
    p = parse_poly("x*y^3", ["x", "y"])
    w = weighted_homogeneity(p)
    assert w is not None and all(x > 0 for x in w)
    assert weighted_degree((1, 3), w) == 1
    # a variable missing from the support entirely
    q = parse_poly("x^2", ["x", "y"])
    w2 = weighted_homogeneity(q)
    assert w2 is not None and w2[0] == F(1, 2) and w2[1] > 0


def test_weighted_homogeneity_underdetermined_spectra_split():
    # any valid weights give the spectrum of the parts in disjoint variables
    for names, text, parts in [
        ("x,y,z", "x*y+z^3", [("x*y", "x,y", (F(1, 2),) * 2), ("z^3", "z", (F(1, 3),))]),
        ("x,y,z,w", "x^3+y*z+w^2", [("x^3", "x", (F(1, 3),)),
                                    ("y*z", "y,z", (F(1, 2),) * 2),
                                    ("w^2", "w", (F(1, 2),))]),
        ("x,y,z,w", "x*y+z^4+w^3", [("x*y", "x,y", (F(1, 2),) * 2),
                                    ("z^4", "z", (F(1, 4),)),
                                    ("w^3", "w", (F(1, 3),))]),
    ]:
        f = parse_poly(text, names.split(","))
        spectra = [spectrum_wh(parse_poly(t, v.split(",")), w) for t, v, w in parts]
        expected = spectra[0]
        for sp in spectra[1:]:
            expected = thom_sebastiani(expected, sp)
        assert spectrum_wh(f, weighted_homogeneity(f)) == expected, text


def test_weighted_homogeneity_solves_per_block(monkeypatch):
    # 15 Morse pairs x_i*y_i: one solve of the whole system, then two
    # one-column solves per pair; enumerating column sets of the whole
    # support instead would take C(30, 15) solves, so stop at the first extra
    calls, solve = [], poly.solve_linear

    def counted(rows, rhs):
        calls.append(len(rows))
        assert len(calls) <= 1 + 2 * 15, "more solves than one per vertex candidate"
        return solve(rows, rhs)

    monkeypatch.setattr(poly, "solve_linear", counted)
    f = SparsePoly(30, {tuple(int(j // 2 == i) for j in range(30)): 1 for i in range(15)})
    assert weighted_homogeneity(f) == (F(1, 2),) * 30


def _positive_weights_exist(support, n) -> bool:
    """The oracle: Fourier-Motzkin on w > 0 and <a, w> = 1 for every a."""
    rows = [(tuple(int(i == j) for j in range(n)), 0, True) for i in range(n)]
    for a in support:
        rows += [(a, 1, False), (tuple(-x for x in a), -1, False)]
    return feasible_point(rows, n) is not None


@st.composite
def _supports(draw):
    n = draw(st.integers(1, 4))
    point = st.tuples(*[st.sampled_from((0, 0, 1, 2, 3))] * n).filter(any)
    return n, sorted(set(draw(st.lists(point, min_size=1, max_size=4))))


@given(_supports())
@settings(max_examples=100, deadline=None)
def test_weighted_homogeneity_matches_lp_oracle(case):
    n, support = case
    w = weighted_homogeneity(SparsePoly(n, {a: 1 for a in support}))
    assert (w is not None) == _positive_weights_exist(support, n), support
    if w is not None:
        assert all(x > 0 for x in w)
        assert all(weighted_degree(a, w) == 1 for a in support)


# ---------------------------------------------------------------------------
# randomized properties

small_polys = st.builds(
    lambda terms: SparsePoly(2, dict(terms)),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
        ),
        max_size=4,
    ),
)


@given(small_polys, small_polys)
@settings(max_examples=120, deadline=None)
def test_leibniz_rule(f, g):
    prod = f * g
    for i in range(2):
        assert prod.diff(i) == f * g.diff(i) + g * f.diff(i)


@given(small_polys)
@settings(max_examples=120, deadline=None)
def test_serialize_roundtrip(f):
    assert parse_poly(serialize(f, ["x", "y"]), ["x", "y"]) == f


@given(st.integers(), st.integers(min_value=1))
@settings(max_examples=100, deadline=None)
def test_fraction_inverse(a, b):
    if a != 0:
        assert F(a, b) * F(b, a) == 1


def test_weighted_homogeneity_invariant_on_random_wh_germs():
    # construct germs from a known weight vector, recover a valid one
    for exps in [((2, 0), (0, 3)), ((4, 0), (1, 2)), ((3, 0), (0, 6), (1, 4))]:
        # pick weights making the first exponent have degree 1, then scale others
        f = SparsePoly(2, {e: 1 for e in exps})
        w = weighted_homogeneity(f)
        if w is not None:
            for e in f.support():
                assert weighted_degree(e, w) == 1
