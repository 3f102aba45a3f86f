"""Acceptance gate: one test per criterion, exact expectations throughout.

Every tolerance is zero (all arithmetic is rational); the only inexact
bounds are the wall-clock limits stated with the criteria.  Each test
prints one line on success so a `pytest -s` run reads as a checklist.
"""

import time
from collections import Counter
from fractions import Fraction as F
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

import singlib as sl
from singlib.brieskorn import EXCLUDED_BY_LEVEL, EXCLUDED_BY_MONOID, POSSIBLE
from singlib.linalg import mat_vec

H_TEXT = "x^14+y^14-x^6*y^6"
G_TEXT = "x^14+y^14-x^6*y^6+z^5"

PROPERTY_CASES = 200


def _log(n, msg):
    print(f"ACCEPTANCE {n}: PASS  {msg}")


def lemma_monomials():
    I0 = {(i, i) for i in range(11)}
    I1 = {(i, j) for j in range(5) for i in range(j + 1, j + 14)}
    tI1 = {(j, i) for (i, j) in I1}
    return I0, I1, tI1


def test_criterion_1_milnor_number_of_h():
    t0 = time.monotonic()
    r = sl.milnor_basis(sl.parse_poly(H_TEXT, ["x", "y"]))
    dt = time.monotonic() - t0
    assert r.milnor_number == 141
    assert dt < 10
    _log(1, f"milnor_number(h) = 141 in {dt:.2f}s")


def test_criterion_2_lemma_monomial_basis(h, basis_h):
    I0, I1, tI1 = lemma_monomials()
    mons = I0 | I1 | tI1
    assert len(I0) + 2 * len(I1) == 11 + 2 * 65 == 141
    assert sl.is_monomial_basis(h, mons, basis=basis_h)
    _log(2, "I0 u I1 u tI1 (141 monomials) is a basis of the Milnor algebra of h")


def test_criterion_3_spectrum_of_h(h, basis_h):
    s = sl.spectrum_newton_2d(h, basis=basis_h)
    expected = Counter(F(j, 6) for j in range(1, 12))
    for i in range(1, 14):
        for j in range(1, 6):
            expected[F(i, 14) + F(j, 6)] += 2
    assert len(s) == 141
    assert Counter(s.values) == expected
    assert s.is_symmetric()
    _log(3, "spectrum_newton_2d(h) equals the 141-value reference multiset")


def test_criterion_4_kouchnirenko_equality(h, g):
    assert sl.newton_number(h) == 141 == sl.milnor_basis(h).milnor_number
    t0 = time.monotonic()
    mu_g = sl.milnor_basis(g).milnor_number
    dt = time.monotonic() - t0
    assert sl.newton_number(g) == 564 == mu_g
    assert dt < 60
    _log(4, f"newton_number = milnor_number on h (141) and g (564), g jets in {dt:.2f}s")


def test_criterion_5_phi_values(g):
    P = sl.newton_polyhedron(g)
    assert sl.phi_value(P, (1, 1, 1)) == F(11, 30)
    assert sl.phi_value(P, (10, 3, 2)) == 1 + F(12, 30)
    assert sl.phi_value(P, (19, 5, 3)) == 2 + F(13, 30)
    _log(5, "phi on Gamma(g): 11/30, 1+12/30, 2+13/30")


def test_criterion_6_thom_sebastiani_queries(h, basis_h):
    sp_h = sl.spectrum_newton_2d(h, basis=basis_h)
    sp_z = sl.spectrum_wh(sl.parse_poly("z^5", ["z"]), (F(1, 5),))
    s = sl.thom_sebastiani(sp_h, sp_z)
    assert sl.kth(s, 1) == F(11, 30)
    assert sl.kth(s, 2) == F(11, 30) + F(1, 14)
    assert sl.kth(s, 2) > F(13, 30)
    assert sl.eigenspace_dim(s, F(13, 30)) == 2
    assert sl.count_le(s, F(13, 30)) == 1
    _log(6, "Sp(g): min 11/30, second 11/30+1/14 > 13/30, eigenspace 2, count_le 1")


def test_criterion_7_euler_relation(g):
    er = sl.euler_relation(g, (4, 4, 2), (F(2, 21), F(1, 14), F(1, 5)))
    assert er.c == F(43, 30)
    assert er.remainder == sl.SparsePoly.monomial(3, (18, 4, 2), F(1, 3))
    assert F(1, 3) / er.c == F(10, 43) != 0
    _log(7, "euler relation: c = 43/30, remainder (1/3)x^18y^4z^2, c' = 10/43")


def test_criterion_8_component_exclusion(g):
    P = sl.newton_polyhedron(g)
    rep = sl.component_exclusion(P, (9, 2, 1), F(13, 30), [F(1, 14), F(1, 6)], 4)
    by_r = {e.r: e for e in rep.entries}
    assert by_r[0].verdict == EXCLUDED_BY_MONOID and by_r[0].gap == F(2, 30)
    assert by_r[1].verdict == EXCLUDED_BY_MONOID and by_r[1].gap == F(1, 30)
    assert by_r[2].verdict == POSSIBLE
    assert by_r[3].verdict == EXCLUDED_BY_LEVEL
    assert by_r[4].verdict == EXCLUDED_BY_LEVEL
    assert rep.possible_at() == (2,)
    _log(8, "exclusion: gaps 2/30 and 1/30 at r=0,1; POSSIBLE only at r=2; level cut r>=3")


def test_criterion_9_negative_answer_pipeline():
    t0 = time.monotonic()
    cert = sl.negative_answer_pipeline(sl.make_family(7, 3, 5))
    dt = time.monotonic() - t0
    assert cert["status"] == "CERTIFIED"
    v = cert["verdicts"]
    assert v["question1"] == "NEGATIVE"
    assert v["b_root"] == {"alpha": "13/30", "multiplicity": 1}
    assert v["strictness"] is False
    assert v["jordan_mismatch"] is True
    assert dt < 120
    _log(9, f"pipeline(7,3,5): NEGATIVE at 13/30, simple root, in {dt:.2f}s")


# ---------------------------------------------------------------------------
# criterion 10: randomized property suites, >= 200 cases each


WH_CORPUS = [
    ("z^5", ["z"]),
    ("x^2+y^3", ["x", "y"]),
    ("x^3+y^4", ["x", "y"]),
    ("x^2+y^2", ["x", "y"]),
    ("x^3+y^5", ["x", "y"]),
]


def _corpus_spectra():
    out = []
    for text, names in WH_CORPUS:
        f = sl.parse_poly(text, names)
        out.append(sl.spectrum_wh(f, sl.weighted_homogeneity(f)))
    return out

_SPECTRA = _corpus_spectra()


@given(st.integers(0, len(_SPECTRA) - 1), st.integers(0, len(_SPECTRA) - 1))
@settings(max_examples=PROPERTY_CASES, deadline=None)
def test_criterion_10a_spectrum_symmetry_and_range(i, j):
    s = sl.thom_sebastiani(_SPECTRA[i], _SPECTRA[j])
    assert s.is_symmetric()
    assert all(0 < v < s.nvars for v in s.values)
    assert 2 * s.checksum() == s.nvars * len(s)


_P_G = sl.newton_polyhedron(sl.parse_poly(G_TEXT, ["x", "y", "z"]))


@given(
    st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)),
)
@settings(max_examples=PROPERTY_CASES, deadline=None)
def test_criterion_10b_phi_superadditivity(p, q):
    s = tuple(a + b for a, b in zip(p, q))
    assert sl.phi_value(_P_G, s) >= sl.phi_value(_P_G, p) + sl.phi_value(_P_G, q)


_poly2 = st.builds(
    lambda terms: sl.SparsePoly(2, dict(terms)),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        ),
        max_size=4,
    ),
)


@given(_poly2, _poly2)
@settings(max_examples=PROPERTY_CASES, deadline=None)
def test_criterion_10c_leibniz(f, g):
    prod = f * g
    for i in range(2):
        assert prod.diff(i) == f * g.diff(i) + g * f.diff(i)


_NF_GERM = sl.parse_poly("x^4+y^4-x^2*y^2", ["x", "y"])
_NF_BASIS = sl.milnor_basis(_NF_GERM)


@given(_poly2, _poly2, st.fractions(min_value=-2, max_value=2, max_denominator=3))
@settings(max_examples=PROPERTY_CASES, deadline=None)
def test_criterion_10d_normal_form_idempotent_linear(p, q, c):
    nf = lambda r: sl.normal_form(r, _NF_GERM, basis=_NF_BASIS)
    np_, nq = nf(p), nf(q)
    assert nf(np_) == np_
    assert nf(p + c * q) == np_ + c * nq


def _brute_monoid(x, gens, depth=0):
    if x == 0:
        return True
    if depth == len(gens):
        return False
    g = gens[depth]
    k = 0
    while k * g <= x:
        if _brute_monoid(x - k * g, gens, depth + 1):
            return True
        k += 1
    return False


@given(
    st.fractions(min_value=0, max_value=3, max_denominator=8),
    st.lists(
        st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=PROPERTY_CASES, deadline=None)
def test_criterion_10e_monoid_vs_brute_force(x, gens):
    assert sl.monoid_membership(x, gens) == _brute_monoid(x, sorted(gens, reverse=True))


@given(
    st.integers(1, 7),
    st.data(),
)
@settings(max_examples=PROPERTY_CASES, deadline=None)
def test_criterion_10f_matching_vs_permutations(n, data):
    base = data.draw(
        st.lists(
            st.fractions(min_value=F(1, 4), max_value=F(3, 4), max_denominator=4),
            min_size=n, max_size=n,
        )
    )
    shifts = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    bumps = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    betas = sorted(F(b) + s for b, s in zip(base, shifts))
    alphas = sorted(b + d for b, d in zip(betas, bumps))
    nvars = int(max(alphas)) + 1
    a = sl.AnnotatedSpectrum(sl.Spectrum(tuple(alphas), nvars))
    sigma = sl.delta_matching(a, betas)

    best = None
    for perm in permutations(range(n)):
        total, ok = 0, True
        for k, l in zip(range(n), perm):
            d = alphas[k] - betas[l]
            if d.denominator != 1 or d < 0:
                ok = False
                break
            total += int(d)
        if ok and (best is None or total < best):
            best = total
    if best is None:
        assert sigma is None
    else:
        assert sigma is not None
        assert sum(int(alphas[k] - betas[l]) for k, l in enumerate(sigma)) == best


# non-integer rationals too, so N and the spans are scaled to ints by an lcm
_entries = st.builds(F, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def _random_fnm(draw, max_dim=6):
    dim = draw(st.integers(1, max_dim))
    n = [[F(0)] * dim for _ in range(dim)]
    for i in range(1, dim):
        for j in range(i):
            n[i][j] = F(draw(_entries))
    levels = []
    n_levels = draw(st.integers(1, 3))
    for lvl in range(n_levels):
        vecs = [
            tuple(F(draw(_entries)) for _ in range(dim))
            for _ in range(draw(st.integers(0, 2)))
        ]
        closed = []
        for v in vecs:
            w = v
            for _ in range(dim + 1):
                closed.append(w)
                w = mat_vec(n, w)
        levels.append((lvl, tuple(closed)))
    basis = [tuple(F(1 if i == j else 0) for j in range(dim)) for i in range(dim)]
    return sl.FilteredNilpotentModule(
        dim, tuple(tuple(r) for r in n), tuple(levels) + ((n_levels, tuple(basis)),)
    )


def _dense_rank(rows):
    m = [[F(x) for x in r] for r in rows if any(x != 0 for x in r)]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@given(_random_fnm())
@settings(max_examples=PROPERTY_CASES, deadline=None)
def test_criterion_10g_strictness_mechanism_vs_brute_force(M):
    if not sl.strictness_check(M):
        return
    n_image = [mat_vec(M.N, v) for v in M.full_basis()]
    prev = []
    for lvl, _ in M.G:
        basis = M.level_basis(lvl)
        dim_gr = _dense_rank(basis) - (_dense_rank(prev) if prev else 0)
        gr_coinv = _dense_rank(list(basis) + n_image) - _dense_rank(list(prev) + n_image)
        assert (dim_gr > 0) == (gr_coinv > 0)
        prev = list(basis)


def test_criterion_10_summary():
    _log(10, f"property suites (a-g) each ran {PROPERTY_CASES} randomized cases")


def test_criterion_11_enumeration_and_golden_suite():
    found = [(p.a, p.b, p.c) for p in sl.enumerate_family(3, 5)]
    assert found == [(7, 3, 5)]
    rep = sl.verify_paper()
    failing = [r["id"] for r in rep["items"] if not r["passed"]]
    assert rep["all_passed"], f"failing golden items: {failing}"
    _log(11, f"enumeration b=3,c=5 -> a=7 only; golden suite {rep['passed']}/{rep['total']}")
