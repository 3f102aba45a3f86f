from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlib import (
    NotConvenientError,
    PreconditionError,
    UnsupportedDimensionError,
    compact_faces,
    milnor_basis,
    newton_flags,
    newton_number,
    newton_polyhedron,
    parse_poly,
    phi_value,
)
from singlib.newton import MembershipBudget


def test_facets_of_g(g):
    P = newton_polyhedron(g)
    assert [f.functional for f in P.facets] == [
        (F(1, 14), F(2, 21), F(1, 5)),
        (F(2, 21), F(1, 14), F(1, 5)),
    ]
    assert P.facets[0].vertices == frozenset({(14, 0, 0), (6, 6, 0), (0, 0, 5)})


def test_facets_trivial():
    P = newton_polyhedron(parse_poly("z^5", ["z"]))
    assert len(P.facets) == 1 and P.facets[0].functional == (F(1, 5),)
    P2 = newton_polyhedron(parse_poly("x^2+y^2", ["x", "y"]))
    assert len(P2.facets) == 1 and P2.facets[0].functional == (F(1, 2), F(1, 2))


def test_dimension_guard():
    with pytest.raises(UnsupportedDimensionError):
        newton_polyhedron(parse_poly("x0^2+x1^2+x2^2+x3^2", ["x0", "x1", "x2", "x3"]))


def test_flags(h, g):
    assert newton_flags(h) == newton_flags(h).__class__(True, True)
    fg = newton_flags(g)
    assert fg.convenient and fg.nondegenerate is True
    assert not newton_flags(parse_poly("x^2*y^2", ["x", "y"])).convenient
    f22 = newton_flags(parse_poly("x^2+y^2", ["x", "y"]))
    assert f22.convenient and f22.nondegenerate is True


def test_degenerate_boundary_is_undecided():
    # the edge x^2+2xy+y^2 = (x+y)^2 is decided exactly, whatever the budget
    flags = newton_flags(
        parse_poly("x^2+2*x*y+y^2+z^3", ["x", "y", "z"]),
        MembershipBudget(degree_cap=12),
    )
    assert flags.convenient
    assert flags.nondegenerate is False
    # a non-simplicial 2-face still goes through the membership search: the
    # triangle of x^3+y^3+z^3 with xyz inside is degenerate at (1, 1, 1)
    flags = newton_flags(
        parse_poly("x^3+y^3+z^3-3*x*y*z", ["x", "y", "z"]),
        MembershipBudget(degree_cap=12),
    )
    assert flags.convenient
    assert flags.nondegenerate == "UNDECIDED"


def test_edge_decided_by_gcd():
    # on the edge the face polynomial is q(t) = 1 + c t + t^2 in t = x/y
    # (x^2/y^2 for the second pair), and gcd(q, q') is constant iff c != +-2
    for text, expected in [
        ("x^2+2*x*y+y^2", False), ("x^2-2*x*y+y^2", False), ("x^2+3*x*y+y^2", True),
        ("x^4+2*x^2*y^2+y^4", False), ("x^4+x^2*y^2+y^4", True),
        ("x^6+x^4*y^2+y^6", True), ("x^6+3*x^4*y^2+3*x^2*y^4+y^6", False),
    ]:
        flags = newton_flags(parse_poly(text, ["x", "y"]))
        assert flags.convenient and flags.nondegenerate is expected, text


def test_newton_numbers(h, g):
    assert newton_number(h) == 141
    assert newton_number(parse_poly("z^5", ["z"])) == 4
    assert newton_number(g) == 564


def test_newton_number_requires_convenient():
    with pytest.raises(NotConvenientError):
        newton_number(parse_poly("x^2*y^2", ["x", "y"]))


def test_kouchnirenko_equality_on_corpus():
    corpus = [
        ("x^2+y^3", ["x", "y"]),
        ("x^3+y^4", ["x", "y"]),
        ("x^4+y^4-x^2*y^2", ["x", "y"]),
        ("x^6+y^6-x^2*y^2", ["x", "y"]),
        ("x^10+y^10-x^4*y^4", ["x", "y"]),
        ("x^2+y^2+z^2", ["x", "y", "z"]),
        ("x^14+y^14-x^6*y^6", ["x", "y"]),
        ("x^14+y^14-x^6*y^6+z^5", ["x", "y", "z"]),
    ]
    for text, names in corpus:
        f = parse_poly(text, names)
        flags = newton_flags(f)
        assert flags.convenient and flags.nondegenerate is True, text
        assert newton_number(f) == milnor_basis(f).milnor_number, text


def test_phi_values_on_g(g):
    P = newton_polyhedron(g)
    assert phi_value(P, (1, 1, 1)) == F(11, 30)
    assert phi_value(P, (10, 3, 2)) == 1 + F(12, 30)
    assert phi_value(P, (19, 5, 3)) == 2 + F(13, 30)
    assert phi_value(P, (28, 7, 4)) == F(52, 15)
    for short_or_long in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(PreconditionError):
            phi_value(P, short_or_long)


def test_phi_on_support_points(h, g):
    for f in (h, g):
        P = newton_polyhedron(f)
        diagram = {v for F_ in P.facets for v in F_.vertices}
        for a in P.support:
            v = phi_value(P, a)
            assert v >= 1
            assert (v == 1) == (a in diagram)


@given(
    st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30)),
    st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30)),
)
@settings(max_examples=150, deadline=None)
def test_phi_superadditive(p, q):
    P = test_phi_superadditive.P
    s = tuple(a + b for a, b in zip(p, q))
    assert phi_value(P, s) >= phi_value(P, p) + phi_value(P, q)


test_phi_superadditive.P = newton_polyhedron(
    parse_poly("x^14+y^14-x^6*y^6+z^5", ["x", "y", "z"])
)


def test_facet_functionals_respect_support_symmetry(h, g):
    for f in (h, g):
        P = newton_polyhedron(f)
        funcs = {F_.functional for F_ in P.facets}
        # x <-> y swap leaves the support invariant; functionals must permute
        swapped = {(fu[1], fu[0]) + fu[2:] for fu in funcs}
        assert swapped == funcs


def test_compact_faces_of_g(g):
    faces = compact_faces(newton_polyhedron(g))
    sizes = sorted(len(s) for s in faces)
    # 4 vertices, 5 edges, 2 facets
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3]


def test_kouchnirenko_equality_on_seeded_random_germs():
    # three independent computations must agree: jet dimension, lattice
    # volumes, and the lattice-point spectrum cardinality
    import random

    from singlib import SparsePoly, spectrum_newton_2d
    from singlib.milnor import FINITE

    rng = random.Random(1653)
    checked = 0
    while checked < 40:
        a, b = rng.randint(2, 8), rng.randint(2, 8)
        terms = {(a, 0): F(rng.choice([1, 2])), (0, b): F(rng.choice([1, 2]))}
        for _ in range(rng.randint(0, 2)):
            terms[(rng.randint(1, 7), rng.randint(1, 7))] = F(rng.choice([-2, -1, 1, 2]))
        f = SparsePoly(2, terms)
        flags = newton_flags(f)
        if not (flags.convenient and flags.nondegenerate is True):
            continue
        r = milnor_basis(f)
        assert r.status == FINITE, terms
        s = spectrum_newton_2d(f, flags=flags, basis=r)
        assert r.milnor_number == newton_number(f) == len(s), terms
        checked += 1
