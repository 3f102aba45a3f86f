from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singlib import (
    ConsistencyCheckError,
    NotWeightedHomogeneousError,
    PreconditionError,
    SparsePoly,
    Spectrum,
    SpectrumCountMismatchError,
    congruent_values,
    count_le,
    eigenspace_dim,
    kth,
    multiplicity,
    newton_polyhedron,
    parse_poly,
    spectrum_newton_2d,
    spectrum_wh,
    thom_sebastiani,
    weighted_homogeneity,
)
from singlib.spectrum import _validated


def sp(text, names):
    f = parse_poly(text, names)
    w = weighted_homogeneity(f)
    return spectrum_wh(f, w)


def lemma_multiset():
    expected = Counter(F(j, 6) for j in range(1, 12))
    for i in range(1, 14):
        for j in range(1, 6):
            expected[F(i, 14) + F(j, 6)] += 2
    return expected


def test_wh_examples():
    assert sp("z^5", ["z"]).values == (F(1, 5), F(2, 5), F(3, 5), F(4, 5))
    assert sp("x^2+y^3", ["x", "y"]).values == (F(5, 6), F(7, 6))
    assert sp("x^2+y^2", ["x", "y"]).values == (F(1),)


def test_wh_rejects_wrong_weights(h):
    with pytest.raises(NotWeightedHomogeneousError):
        spectrum_wh(h, (F(1, 14), F(1, 14)))


def test_newton_2d_h_is_the_reference_multiset(h):
    s = spectrum_newton_2d(h)
    assert len(s) == 141
    assert Counter(s.values) == lemma_multiset()


def test_newton_2d_trivial_cases():
    assert spectrum_newton_2d(parse_poly("x^2+y^2", ["x", "y"])).values == (F(1),)
    assert spectrum_newton_2d(parse_poly("x^2+y^3", ["x", "y"])).values == (F(5, 6), F(7, 6))


def test_newton_2d_preconditions():
    with pytest.raises(PreconditionError):
        spectrum_newton_2d(parse_poly("z^5", ["z"]))
    with pytest.raises(PreconditionError):
        spectrum_newton_2d(parse_poly("x^2*y^2", ["x", "y"]))  # not convenient


def test_thom_sebastiani_g(h):
    s = thom_sebastiani(spectrum_newton_2d(h), sp("z^5", ["z"]))
    assert len(s) == 564 and s.nvars == 3
    assert kth(s, 1) == F(11, 30)
    assert kth(s, 2) == F(11, 30) + F(1, 14) == F(46, 105)
    assert count_le(s, F(13, 30)) == 1
    assert eigenspace_dim(s, F(13, 30)) == 2
    assert congruent_values(s, F(13, 30)) == {F(43, 30): 3, F(73, 30): 1}
    assert multiplicity(s, F(13, 30)) == 0


def test_thom_sebastiani_trivial():
    one = Spectrum((F(1),), 2)
    assert thom_sebastiani(one, one).values == (F(2),)


def test_thom_sebastiani_commutative_associative():
    a = sp("x^2+y^3", ["x", "y"])
    b = sp("z^5", ["z"])
    c = sp("x^3+y^4", ["x", "y"])
    assert thom_sebastiani(a, b).values == thom_sebastiani(b, a).values
    assert (
        thom_sebastiani(thom_sebastiani(a, b), c).values
        == thom_sebastiani(a, thom_sebastiani(b, c)).values
    )


def test_queries(h):
    s = spectrum_newton_2d(h)
    assert multiplicity(s, F(1)) == 3
    assert kth(s, 1) == F(1, 6)
    assert kth(s, 141) == F(11, 6)
    with pytest.raises(PreconditionError):
        kth(s, 0)
    with pytest.raises(PreconditionError):
        kth(s, 142)


def test_agreement_wh_vs_newton2d():
    for text in ["x^2+y^3", "x^3+y^4", "x^2+y^2", "x^3+y^3"]:
        f = parse_poly(text, ["x", "y"])
        w = weighted_homogeneity(f)
        assert spectrum_wh(f, w).values == spectrum_newton_2d(f).values, text


def test_spectrum_invariants_on_constructed_corpus(h):
    spectra = [
        sp("z^5", ["z"]),
        sp("x^2+y^3", ["x", "y"]),
        sp("x^3+y^4", ["x", "y"]),
        spectrum_newton_2d(h),
        thom_sebastiani(sp("x^2+y^3", ["x", "y"]), sp("z^5", ["z"])),
    ]
    for s in spectra:
        assert s.is_symmetric()
        assert all(0 < v < s.nvars for v in s.values)
        assert 2 * s.checksum() == s.nvars * len(s)


def test_range_validation():
    with pytest.raises(ValueError):
        Spectrum((F(0),), 1)
    with pytest.raises(ValueError):
        Spectrum((F(3, 2),), 1)
    for bad in [(F(-1, 2), F(5, 2)), (F(1, 2), F(2))]:
        with pytest.raises(ValueError):
            Spectrum(bad, 2)
    with pytest.raises(ValueError):
        Spectrum.from_ints((3, 9), 6, 1)


def test_symmetry_and_count_guards():
    # a hand-built asymmetric multiset: accepted as a Spectrum, rejected by
    # every validating constructor
    lopsided = Spectrum((F(1, 3), F(1, 3), F(2, 3)), 1)
    assert not lopsided.is_symmetric()
    with pytest.raises(ConsistencyCheckError, match="symmetry"):
        _validated(lopsided)
    with pytest.raises(ConsistencyCheckError, match="symmetry"):
        thom_sebastiani(lopsided, Spectrum((F(1, 2),), 1))
    with pytest.raises(SpectrumCountMismatchError):
        _validated(Spectrum((F(1, 3), F(2, 3)), 1), mu=3)


def test_storage_is_canonical():
    s = Spectrum(("1/2", F(3, 4), 1, F(5, 4), F(3, 2)), 2)
    assert (s.den, s.nums) == (4, (2, 3, 4, 5, 6))
    assert s.values == (F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2))
    # a common denominator larger than needed is reduced
    t = Spectrum.from_ints((12, 9, 15, 18, 6), 12, 2)
    assert t == s and hash(t) == hash(s)
    assert thom_sebastiani(Spectrum((F(1, 2),), 1), Spectrum((F(1, 2),), 1)).den == 1


# ---------------------------------------------------------------------------
# the integer spectrum against plain Fraction references


@st.composite
def symmetric_spectra(draw):
    """A random multiset in (0, n), closed under alpha -> n - alpha."""
    nvars = draw(st.integers(1, 3))
    den = draw(st.integers(2, 12))  # the stored den may still reduce to 1
    top = nvars * den
    half = draw(st.lists(st.integers(1, top - 1), min_size=0, max_size=6))
    nums = half + [top - x for x in half]
    if top % 2 == 0 and (not nums or draw(st.booleans())):
        nums.append(top // 2)
    assume(nums)
    return Spectrum([F(x, den) for x in nums], nvars)


def betas(s):
    """Probes for the queries: every value, shifts of it, off-grid points."""
    out = set(s.values) | {v + k for v in s.values for k in (-2, -1, 1)}
    out |= {F(1, s.den + 1), F(-1, 2 * s.den + 1), F(0), F(s.nvars), F(-3, 2)}
    return sorted(out)


@settings(max_examples=150, deadline=None)
@given(symmetric_spectra(), symmetric_spectra())
def test_integer_spectrum_matches_fraction_reference(s1, s2):
    ts = thom_sebastiani(s1, s2)
    assert list(ts.values) == sorted(a + b for a in s1.values for b in s2.values)
    assert ts.nvars == s1.nvars + s2.nvars
    for s in (s1, s2, ts):
        vals = list(s.values)
        assert vals == sorted(vals)
        assert [kth(s, k) for k in range(1, len(s) + 1)] == vals
        for beta in betas(s):
            assert multiplicity(s, beta) == sum(1 for v in vals if v == beta)
            assert count_le(s, beta) == sum(1 for v in vals if v <= beta)
            ref: dict = {}
            for v in vals:
                if (v - beta).denominator == 1:
                    ref[v] = ref.get(v, 0) + 1
            assert congruent_values(s, beta) == ref
            assert eigenspace_dim(s, beta) == len(ref)


@st.composite
def simplicial_2d_germs(draw):
    """x^a + y^b plus up to two monomials, no three support points collinear.

    Every compact face is then a simplex, so the boundary is nondegenerate
    whatever the coefficients.
    """
    a, b = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    terms = {(a, 0): F(1), (0, b): F(1)}
    for _ in range(draw(st.integers(0, 2))):
        e = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
        terms[e] = F(draw(st.sampled_from([-2, -1, 1, 3])))
    pts = list(terms)
    assume(all((q[0] - p[0]) * (r[1] - p[1]) != (q[1] - p[1]) * (r[0] - p[0])
               for p, q, r in combinations(pts, 3)))
    return SparsePoly(2, terms)


@settings(max_examples=40, deadline=None)
@given(simplicial_2d_germs())
def test_newton_2d_matches_fraction_reference(f):
    P = newton_polyhedron(f)
    bound = max(max(e) for e in P.support)
    part1 = []
    for p in product(range(1, bound + 1), repeat=2):
        phi = min(sum(c * x for c, x in zip(facet.functional, p)) for facet in P.facets)
        if phi <= 1:
            part1.append(phi)
    expected = sorted(part1 + [2 - v for v in part1 if v < 1])
    assert list(spectrum_newton_2d(f).values) == expected
