from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singlib import (
    NotConvenientError,
    PreconditionError,
    SparsePoly,
    UnsupportedDimensionError,
    compact_faces,
    milnor_basis,
    newton_flags,
    newton_number,
    newton_polyhedron,
    parse_poly,
    phi_value,
)
from singlib.linalg import rank, solve_linear
from singlib.newton import _face_nondegenerate

from fourier_motzkin import feasible_point


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
    assert fg.convenient and fg.nondegenerate is True and fg.degenerate_face is None
    assert not newton_flags(parse_poly("x^2*y^2", ["x", "y"])).convenient
    f22 = newton_flags(parse_poly("x^2+y^2", ["x", "y"]))
    assert f22.convenient and f22.nondegenerate is True


def test_degenerate_boundary_is_decided():
    # the edge x^2+2xy+y^2 = (x+y)^2 is degenerate at x = -y
    flags = newton_flags(parse_poly("x^2+2*x*y+y^2+z^3", ["x", "y", "z"]))
    assert flags.convenient
    assert flags.nondegenerate is False
    assert flags.degenerate_face == ((0, 2, 0), (1, 1, 0), (2, 0, 0))
    # the triangle of x^3+y^3+z^3 with xyz inside is degenerate at (1, 1, 1)
    flags = newton_flags(parse_poly("x^3+y^3+z^3-3*x*y*z", ["x", "y", "z"]))
    assert flags.convenient
    assert flags.nondegenerate is False
    assert flags.degenerate_face == ((0, 0, 3), (0, 3, 0), (1, 1, 1), (3, 0, 0))


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
    # non-simplicial 2-faces: x^3+y^3+z^3+c*xyz has a torus critical point
    # iff c^3 = -27, and over Q only c = -3
    for text, expected in [
        ("x^3+y^3+z^3-3*x*y*z", False), ("x^3+y^3+z^3+x*y*z", True),
        ("x^3+y^3+z^3+3*x*y*z", True), ("x^3+y^3+z^3+1/2*x*y*z", True),
        ("x^6+y^6+z^6-3*x^2*y^2*z^2", False),
        ("x^4+y^4+z^4+x^2*y^2+y^2*z^2+z^2*x^2", True),
    ]:
        flags = newton_flags(parse_poly(text, ["x", "y", "z"]))
        assert flags.convenient and flags.nondegenerate is expected, text
    # on this 2-face t_1 t_2 is not in J, only its cube: the power s is needed
    text = "-x^3*z^3+x^2*y^4+x^2*y^3*z-x^2*y^2*z^2+2*y^6"
    assert newton_flags(parse_poly(text, ["x", "y", "z"])).nondegenerate is True


def test_sextic_triangle():
    # the monomials of degree 6 with coefficients (3i + 5j) mod 7 - 3; four
    # of them vanish, which shears the lattice coordinates of the face unless
    # its lattice basis is reduced.  The degenerate germ's vertex coefficients
    # make every x_i df/dx_i vanish at (1, 1, 1).
    vertices = ((6, 0, 0), (0, 6, 0), (0, 0, 6))
    inner = {(i, j, 6 - i - j): F((3 * i + 5 * j) % 7 - 3)
             for i in range(7) for j in range(7 - i) if 6 not in (i, j, 6 - i - j)}
    degenerate = dict(inner)
    for k, v in enumerate(vertices):
        degenerate[v] = -F(sum(c * e[k] for e, c in inner.items()), 6)
    assert all(degenerate[v] for v in vertices)
    generic = {**inner, **{v: F(1) for v in vertices}}
    assert newton_flags(SparsePoly(3, degenerate)).nondegenerate is False
    assert newton_flags(SparsePoly(3, generic)).nondegenerate is True


def _quadratic_form(A) -> SparsePoly:
    terms = {}
    for i in range(3):
        for j in range(i, 3):
            e = [0, 0, 0]
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = A[i][j] * (1 if i == j else 2)
    return SparsePoly(3, terms)


def _edge_degenerate(A) -> bool:
    """The edge in x_i, x_j of x^T A x has a double root: a_ij != 0, a_ij^2 = a_ii a_jj."""
    return any(A[i][j] and A[i][j] ** 2 == A[i][i] * A[j][j] for i, j in ((0, 1), (0, 2), (1, 2)))


def _triangle_degenerate(A) -> bool:
    """x^T A x (nonzero diagonal) has a critical point on the torus.

    That is a kernel vector of A with all coordinates nonzero: never at rank
    3, always at rank 1 (the kernel is a plane, and not a coordinate plane
    since a_ii != 0), and at rank 2 iff the cross product of two independent
    rows has no zero entry.
    """
    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    if sum(a * b for a, b in zip(A[0], cross(A[1], A[2]))):
        return False  # rank 3
    kernel = [k for k in (cross(A[0], A[1]), cross(A[0], A[2]), cross(A[1], A[2])) if any(k)]
    return not kernel or all(kernel[0])


_small = st.integers(-3, 3)
_symmetric = st.tuples(*[_small] * 6).map(
    lambda a: ((a[0], a[1], a[2]), (a[1], a[3], a[4]), (a[2], a[4], a[5])))
# a sum of one or two rank-one forms lam * u u^T is singular
_singular = st.lists(
    st.tuples(st.sampled_from([-2, -1, 1, 2]), st.tuples(_small, _small, _small)),
    min_size=1, max_size=2,
).map(lambda parts: tuple(tuple(sum(lam * u[i] * u[j] for lam, u in parts) for j in range(3))
                          for i in range(3)))


@given(st.one_of(_symmetric, _singular))
@settings(max_examples=120, deadline=None)
def test_quadratic_forms_match_linear_algebra(A):
    # the compact faces are the triangle, its three edges and its vertices
    assume(all(A[i][i] for i in range(3)))
    f = _quadratic_form(A)
    flags = newton_flags(f)
    assert flags.convenient
    assert flags.nondegenerate is not (_edge_degenerate(A) or _triangle_degenerate(A)), A
    # the triangle alone; at rank 1 its critical points form a line
    assert _face_nondegenerate(f, frozenset(f.terms)) is not _triangle_degenerate(A), A


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
        # a quadrilateral compact facet, fanned from one vertex
        ("x^4+y^4+z^6+2*x^2*z^2+3*y^2*z^2", ["x", "y", "z"]),
        # three collinear support points on the z = 0 edge: nu takes its end points
        ("x^4+x^2*y^2+y^4+z^3", ["x", "y", "z"]),
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


def _oracle_compact_faces(support, n):
    """Compact faces by the positive-functional rule, one LP per candidate.

    A candidate T is the set of support points on the affine hull of an
    affinely independent subset; it is a compact face iff some functional
    w > 0 is constant on T and larger on the rest of the support.
    """
    faces = {}
    for k in range(1, n + 1):
        for subset in combinations(support, k):
            def diffs(points, base=subset[0]):
                return [tuple(x - y for x, y in zip(a, base)) for a in points]
            if rank(diffs(subset)) != k - 1:
                continue
            T = frozenset(a for a in support if rank(diffs(subset + (a,))) == k - 1)
            if T in faces:
                continue
            rows = [(tuple(int(i == j) for j in range(n)), 0, True) for i in range(n)]
            for d in diffs(T):
                rows += [(d, 0, False), (tuple(-x for x in d), 0, False)]
            rows += [(d, 0, True) for d in diffs(a for a in support if a not in T)]
            faces[T] = feasible_point(rows, n) is not None
    return sorted((T for T, ok in faces.items() if ok), key=lambda s: (len(s), sorted(s)))


def _supports(n):
    point = st.tuples(*[st.integers(0, 4)] * n)
    free = st.lists(point, min_size=1, max_size=7)
    # points on a line through the orthant, and on a plane sum(a) = c
    line = st.tuples(point, point, st.lists(st.integers(0, 3), min_size=1, max_size=7)).map(
        lambda t: [tuple(a + k * d for a, d in zip(t[0], t[1])) for k in t[2]])
    plane = st.tuples(st.integers(1, 5), st.lists(point, min_size=1, max_size=7)).map(
        lambda t: [a[:-1] + (t[0] + a[-1] - sum(a),) for a in t[1]
                   if 0 <= t[0] + a[-1] - sum(a)])
    return st.one_of(free, line, plane).map(
        lambda pts: sorted({a for a in pts if any(a)})).filter(bool)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), _supports(n))))
@settings(max_examples=100, deadline=None)
def test_compact_faces_match_lp_oracle(case):
    n, support = case
    P = newton_polyhedron(SparsePoly(n, {a: F(1) for a in support}))
    expected = _oracle_compact_faces(support, n)
    assert compact_faces(P) == expected
    # the compact facets are the (n-1)-dimensional faces, ell = 1 on each
    facets = []
    for T in expected:
        pts = sorted(T)
        if rank([tuple(x - y for x, y in zip(a, pts[0])) for a in pts]) == n - 1:
            (ell, null) = solve_linear([list(a) for a in pts], [1] * len(pts))
            assert not null
            facets.append((ell, T))
    assert [(Fc.functional, Fc.vertices) for Fc in P.facets] == sorted(facets)


def test_dense_sextic_triangle():
    # all 28 monomials of degree 6: one compact facet, the triangle, holds them all
    support = [(i, j, 6 - i - j) for i in range(7) for j in range(7 - i)]
    f = SparsePoly(3, {a: F(1 + (2 * a[0] + 3 * a[1]) % 5) for a in support})
    P = newton_polyhedron(f)
    assert [(Fc.functional, Fc.vertices) for Fc in P.facets] == [
        ((F(1, 6),) * 3, frozenset(support))]
    faces = compact_faces(P)
    assert [len(s) for s in faces] == [1, 1, 1, 7, 7, 7, 28]
    assert {a for s in faces[:3] for a in s} == {(6, 0, 0), (0, 6, 0), (0, 0, 6)}
    assert newton_flags(f) == newton_flags(f).__class__(True, True)


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
        # a polyhedron in place of its germ gives the same answers
        P = newton_polyhedron(f)
        assert newton_number(P) == newton_number(f) and newton_flags(P) == flags, terms
        assert spectrum_newton_2d(P, flags=flags, basis=r) == s, terms
        checked += 1
