from fractions import Fraction as F
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlib import (
    PreconditionError,
    SparsePoly,
    is_monomial_basis,
    milnor_basis,
    normal_form,
    parse_poly,
)
from singlib import milnor
from singlib.linalg import Echelon, int_row
from singlib.milnor import (
    FINITE,
    JET_STEP,
    NON_ISOLATED,
    SMOOTH_POINT,
    negdegrevlex_key,
)
from singlib.poly import partials


def lemma_basis_monomials():
    I0 = {(i, i) for i in range(11)}
    I1 = {(i, j) for j in range(5) for i in range(j + 1, j + 14)}
    tI1 = {(j, i) for (i, j) in I1}
    assert len(I0) == 11 and len(I1) == 65 and len(tI1) == 65
    return I0 | I1 | tI1


def test_mu_h_is_141(basis_h):
    assert basis_h.status == FINITE
    assert basis_h.milnor_number == 141
    assert len(basis_h.staircase) == 141


def test_mu_z5():
    r = milnor_basis(parse_poly("z^5", ["z"]))
    assert r.milnor_number == 4
    assert r.staircase == frozenset({(0,), (1,), (2,), (3,)})


def test_mu_g_matches_product_rule(g):
    r = milnor_basis(g)
    assert r.milnor_number == 564  # 141 * 4 by the disjoint-variable product rule


def test_staircase_closed_under_divisibility(basis_h):
    st = basis_h.staircase
    for (i, j) in st:
        for (a, b) in [(i - 1, j), (i, j - 1)]:
            if a >= 0 and b >= 0:
                assert (a, b) in st


def test_smooth_point_reported():
    r = milnor_basis(parse_poly("x+x^2+y^2", ["x", "y"]))
    assert r.status == SMOOTH_POINT


def test_non_isolated_reported_not_looped():
    r = milnor_basis(parse_poly("x^2*y^2", ["x", "y"]), 14)
    assert r.status == NON_ISOLATED
    assert r.milnor_number is None


def test_non_isolated_only_from_the_bezout_bound():
    # B = prod deg(df/dx_i); the default cap 4d moves up to B when 4d < B
    for text, names, bound, level in [
        ("x^3*y^3", ["x", "y"], 25, 25),  # 4d = 24 < B
        ("x^3*y^4", ["x", "y"], 36, 36),  # 4d = 28 < B
        ("x^2*y^2", ["x", "y"], 9, 16),  # 4d = 16 >= B
        ("x^2+y^2", ["x", "y", "z"], 0, 8),  # a zero partial: B = 0
    ]:
        r = milnor_basis(parse_poly(text, names))
        assert (r.status, r.truncation_degree) == (NON_ISOLATED, level), text
        assert r.truncation_degree >= bound


def test_cap_below_the_bezout_bound_raises():
    # mu(x^20) = 19 = B, and no level up to 5 certifies: the cap decides nothing
    with pytest.raises(PreconditionError) as e:
        milnor_basis(parse_poly("x^20", ["x"]), 5)
    assert "jet cap 5 " in str(e.value) and "by level 19," in str(e.value)
    assert milnor_basis(parse_poly("x^20", ["x"]), 19).milnor_number == 19


def test_jet_build_over_the_monomial_bound_raises(monkeypatch):
    # mu is 99999999998 and 699^3; the error comes before any monomial is listed
    def no_build(*args):
        raise AssertionError("jet build started")

    monkeypatch.setattr(milnor, "_extend_ranks", no_build)
    for text, names, level, count in [
        ("x^99999999999", ["x"], 100000000001, 100000000002),
        ("x^700+y^700+z^700", ["x", "y", "z"], 702, 58152160),
    ]:
        with pytest.raises(PreconditionError) as e:
            milnor_basis(parse_poly(text, names))
        assert f"jet level {level} would list {count} monomials" in str(e.value)
        assert "bound of 1000000" in str(e.value)


def test_jump_stops_at_the_monomial_bound(monkeypatch):
    # level 6 fails and would jump to level 10, 1001 monomials over a bound of
    # 1000; the jump stops at level 9 (715 monomials), which certifies
    f = parse_poly("x^4+y^4+z^4+w^4", ["x", "y", "z", "w"])
    full = milnor_basis(f)
    built = []
    build = milnor._build_level

    def recording(gens, by_degree, rank, level):
        built.append(level)
        return build(gens, by_degree, rank, level)

    monkeypatch.setattr(milnor, "_build_level", recording)
    monkeypatch.setattr(milnor, "_MAX_JET_MONOMIALS", 1000)
    r = milnor_basis(f)
    assert built == [6, 9]
    assert (r.status, r.milnor_number, r.truncation_degree) == (FINITE, 81, 10)
    assert r.staircase == full.staircase and r.truncation_degree == full.truncation_degree
    # under a bound of 500 the last level within it is 8 (495 monomials): it
    # fails, and only then does the jump raise
    built.clear()
    monkeypatch.setattr(milnor, "_MAX_JET_MONOMIALS", 500)
    with pytest.raises(PreconditionError) as e:
        milnor_basis(f)
    assert built == [6, 8]
    assert "jet level 9 would list 715 monomials, over the bound of 500" in str(e.value)


def test_preconditions():
    with pytest.raises(PreconditionError):
        milnor_basis(SparsePoly.zero(2))
    with pytest.raises(PreconditionError):
        milnor_basis(parse_poly("7+x^2", ["x"]))
    for cap in (0, -3):
        with pytest.raises(PreconditionError, match="at least 1"):
            milnor_basis(parse_poly("x^5+y^7", ["x", "y"]), cap)


def test_normal_form_of_partial_is_zero(h, basis_h):
    assert normal_form(h.diff(0), h, basis=basis_h).is_zero()


def test_normal_form_jacobian_identification(h, basis_h):
    # x^5 y^4 * dh/dx = 14 x^18 y^4 - 6 x^10 y^10, so the two monomials are
    # proportional in the Milnor algebra with constant 3/7
    p = SparsePoly.monomial(2, (18, 4)) - F(3, 7) * SparsePoly.monomial(2, (10, 10))
    assert normal_form(p, h, basis=basis_h).is_zero()
    nf = normal_form(SparsePoly.monomial(2, (18, 4)), h, basis=basis_h)
    assert not nf.is_zero()


def test_normal_form_univariate():
    z5 = parse_poly("z^5", ["z"])
    assert normal_form(parse_poly("z^7", ["z"]), z5).is_zero()
    assert normal_form(parse_poly("z^3+z^9", ["z"]), z5) == parse_poly("z^3", ["z"])


def test_normal_form_idempotent_and_linear(h, basis_h):
    p = parse_poly("x^18*y^4+3*x^2*y-x*y^2", ["x", "y"])
    q = parse_poly("x^13+y^13-x^6*y^6", ["x", "y"])
    nf = lambda r: normal_form(r, h, basis=basis_h)
    assert nf(nf(p)) == nf(p)
    assert nf(2 * p + F(1, 3) * q) == 2 * nf(p) + F(1, 3) * nf(q)


def test_lemma_monomial_basis(h, basis_h):
    assert is_monomial_basis(h, lemma_basis_monomials(), basis=basis_h)


def test_monomial_basis_counterexamples():
    z5 = parse_poly("z^5", ["z"])
    assert is_monomial_basis(z5, [(0,), (1,), (2,), (3,)])
    assert not is_monomial_basis(z5, [(0,), (1,), (2,), (4,)])  # z^4 lies in the ideal
    assert not is_monomial_basis(z5, [(0,), (1,), (2,)])  # wrong cardinality


def fixed_schedule(f, cap):
    """Reference: build every level d+2, d+2+JET_STEP, ... until one certifies.

    A level at the cap that does not certify is a proof of NON_ISOLATED only
    when the cap is at least the Bezout bound B.  Below B a given cap stops
    with ("RAISES", B), and the default cap 4d moves up to B.
    """
    n, d = f.nvars, f.total_degree()
    dfs = partials(f)
    gens = [int_row(g.terms) for g in dfs]
    bound = 0 if any(g.is_zero() for g in dfs) else prod(g.total_degree() for g in dfs)
    top = max(4 * d if cap is None else cap, 2)
    k = 0
    while True:
        level = min(d + 2 + JET_STEP * k, top)
        mons = [m for m in product(range(level + 1), repeat=n) if sum(m) <= level]
        rows = []
        for g, m in product(gens, mons):
            row = {}
            for e, c in g.items():
                me = tuple(a + b for a, b in zip(m, e))
                if sum(me) <= level:
                    row[me] = c
            if row:
                rows.append(row)
        rows.sort(key=lambda r: negdegrevlex_key(min(r, key=negdegrevlex_key)))
        red = Echelon(negdegrevlex_key)
        for row in rows:
            red.insert(row)
        for s in range(level + 1):
            if all(m in red.pivots for m in mons if sum(m) == s):
                staircase = frozenset(m for m in mons if sum(m) < s and m not in red.pivots)
                return FINITE, len(staircase), staircase, level, red, s
        if level < top:
            k += 1
        elif top >= bound:
            return NON_ISOLATED, None, frozenset(), level, None, None
        elif cap is not None:
            return "RAISES", bound
        else:
            top = bound


@st.composite
def germs_and_caps(draw):
    """Small 2- and 3-variable germs of order >= 2, often isolated, with a cap."""
    n = draw(st.sampled_from([2, 3]))
    top = 7 if n == 2 else 4
    exps = st.tuples(*[st.integers(0, top)] * n).filter(lambda e: 2 <= sum(e) <= top)
    terms = draw(st.dictionaries(exps, st.sampled_from([1, -1, 2, -3, F(1, 2)]),
                                 min_size=1, max_size=3))
    for i in draw(st.sets(st.integers(0, n - 1))):
        terms[tuple(draw(st.integers(2, top)) if k == i else 0 for k in range(n))] = 1
    f = SparsePoly(n, terms)
    cap = draw(st.one_of(st.none(), st.integers(1, 3 * f.total_degree())))
    queries = draw(st.lists(st.dictionaries(st.tuples(*[st.integers(0, 8)] * n),
                                            st.integers(-3, 3), max_size=4), max_size=3))
    return f, cap, [SparsePoly(n, q) for q in queries]


@settings(max_examples=60, deadline=None)
@given(germs_and_caps())
@example((parse_poly("x^5+y^7", ["x", "y"]), 9, []))
@example((parse_poly("x^14+y^14-x^6*y^6", ["x", "y"]), 20, []))
@example((parse_poly("x^14+y^14-x^6*y^6", ["x", "y"]), None, []))
@example((parse_poly("x^3*y^4", ["x", "y"]), None, []))
def test_jump_matches_fixed_schedule(case):
    f, cap, queries = case
    expected = fixed_schedule(f, cap)
    if expected[0] == "RAISES":
        with pytest.raises(PreconditionError) as e:
            milnor_basis(f, cap)
        assert f"jet cap {cap} " in str(e.value) and f"by level {expected[1]}," in str(e.value)
        return
    basis = milnor_basis(f, cap)
    status, mu, staircase, level, red, s = expected
    assert (basis.status, basis.milnor_number, basis.staircase, basis.truncation_degree) == (
        status, mu, staircase, level)
    if status == FINITE:
        for q in queries:
            nf = red.normal_form({e: c for e, c in q.terms.items() if sum(e) < s})
            assert normal_form(q, f, basis=basis).terms == nf
