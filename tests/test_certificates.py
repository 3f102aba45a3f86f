from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlib import (
    AnnotatedSpectrum,
    FilteredNilpotentModule,
    InvalidFNMError,
    NotARootError,
    Spectrum,
    btilde_wh,
    delta_matching,
    fnm_from_json,
    fnm_report,
    fnm_to_json,
    question1_verdict,
    spectrum_wh,
    strictness_check,
    parse_poly,
    weighted_homogeneity,
)
from singlib.certificates import NEGATIVE, POSITIVE, power_strictness
from singlib.linalg import mat_vec


def example_module():
    """dim 2, rank-one nilpotent, filtration jump at the image of N."""
    return FilteredNilpotentModule(
        2,
        ((0, 0), (1, 0)),
        ((0, ((0, 1),)), (1, ((1, 0), (0, 1)))),
    )


# ---------------------------------------------------------------------------
# b-function data


def test_btilde_wh_roots():
    z5 = parse_poly("z^5", ["z"])
    s = spectrum_wh(z5, weighted_homogeneity(z5))
    bp = btilde_wh(s)
    assert bp.roots == ((F(1, 5), 1), (F(2, 5), 1), (F(3, 5), 1), (F(4, 5), 1))
    assert all(0 < a < 1 for a, _ in bp.roots)

    quad = Spectrum((F(3, 2),), 3)
    assert btilde_wh(quad).roots == ((F(3, 2), 1),)


def test_btilde_deduplicates():
    s = Spectrum((F(1, 2), F(1, 2), F(3, 2), F(3, 2)), 2)
    assert btilde_wh(s).roots == ((F(1, 2), 1), (F(3, 2), 1))


# ---------------------------------------------------------------------------
# delta matching


def test_matching_examples():
    a = AnnotatedSpectrum(Spectrum((F(1, 2), F(3, 2)), 2))
    assert delta_matching(a, [F(1, 2), F(1, 2)]) == (0, 1)
    assert delta_matching(AnnotatedSpectrum(Spectrum((F(1, 2),), 1)), [F(2, 3)]) is None


def test_matching_wh_identity():
    f = parse_poly("x^2+y^3", ["x", "y"])
    s = spectrum_wh(f, weighted_homogeneity(f))
    assert delta_matching(AnnotatedSpectrum(s), s.values) == tuple(range(len(s)))


def test_matching_with_annotations():
    # alpha - r - beta must be a non-negative integer
    a = AnnotatedSpectrum(Spectrum((F(3, 2),), 2), (1,))
    assert delta_matching(a, [F(1, 2)]) == (0,)
    a2 = AnnotatedSpectrum(Spectrum((F(3, 2),), 2), (2,))
    assert delta_matching(a2, [F(1, 2)]) is None


def _brute_force_best(alphas, rs, betas):
    best = None
    for perm in permutations(range(len(betas))):
        total = 0
        ok = True
        for k, l in zip(range(len(alphas)), perm):
            d = alphas[k] - rs[k] - betas[l]
            if d.denominator != 1 or d < 0:
                ok = False
                break
            total += int(d)
        if ok and (best is None or total < best):
            best = total
    return best


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=6),
    st.lists(st.fractions(min_value=F(1, 4), max_value=F(3, 4), max_denominator=4), min_size=1, max_size=6),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_matching_agrees_with_brute_force(shifts, fracs, data):
    n = min(len(shifts), len(fracs))
    betas = sorted(F(f) + s for f, s in zip(fracs[:n], shifts[:n]))
    # alphas: random integer bumps of a permutation of betas, kept in range
    bumps = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    alphas = sorted(b + d for b, d in zip(betas, bumps))
    nvars = int(max(alphas)) + 1
    a = AnnotatedSpectrum(Spectrum(tuple(alphas), nvars))
    sigma = delta_matching(a, betas)
    best = _brute_force_best(list(a.values.values), [0] * n, betas)
    if best is None:
        assert sigma is None
    else:
        assert sigma is not None
        total = sum(int(a.values.values[k] - betas[l]) for k, l in enumerate(sigma))
        assert total == best


# ---------------------------------------------------------------------------
# filtered nilpotent modules


def test_example_module_report():
    rep = fnm_report(example_module())
    l0, l1 = rep.levels
    assert (l0.dim_gr, l0.dim_gr_coinvariants, l0.nilpotency_order) == (1, 0, 1)
    assert (l1.dim_gr, l1.dim_gr_coinvariants) == (1, 1)
    assert rep.m_tilde == 2
    assert rep.jordan_ambient == (2,) and rep.jordan_graded == (1, 1)
    assert rep.jordan_mismatch


def test_example_module_verdicts():
    M = example_module()
    assert question1_verdict(M, 0).answer == NEGATIVE
    assert strictness_check(M) is False
    with pytest.raises(NotARootError):
        question1_verdict(M, 5)


def test_zero_operator_module():
    M = FilteredNilpotentModule(2, ((0, 0), (0, 0)), ((0, ((1, 0), (0, 1))),))
    rep = fnm_report(M)
    assert rep.m_tilde == 1
    assert rep.levels[0].dim_gr == 2 and rep.levels[0].dim_gr_coinvariants == 2
    assert question1_verdict(M, 0) == question1_verdict(M, 0).__class__(POSITIVE, True)
    assert strictness_check(M) is True


def test_jordan_block_trivial_filtration():
    M = FilteredNilpotentModule(2, ((0, 0), (1, 0)), ((0, ((1, 0), (0, 1))),))
    rep = fnm_report(M)
    assert rep.levels[0].dim_gr_coinvariants == 1
    assert rep.m_tilde == 2
    q = question1_verdict(M, 0)
    assert q.answer == POSITIVE and q.via_max_multiplicity
    assert strictness_check(M) is True


def test_invalid_fnm_rejected():
    with pytest.raises(InvalidFNMError):  # not nilpotent
        FilteredNilpotentModule(1, ((1,),), ((0, ((1,),)),))
    with pytest.raises(InvalidFNMError):  # image dims 3, 2, 1, 1: stops falling above 0
        FilteredNilpotentModule(3, ((0, 1, 0), (0, 0, 0), (0, 0, 1)),
                                ((0, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),))
    with pytest.raises(InvalidFNMError):  # filtration not exhaustive
        FilteredNilpotentModule(2, ((0, 0), (0, 0)), ((0, ((1, 0),)),))
    with pytest.raises(InvalidFNMError):  # N does not preserve G_0
        FilteredNilpotentModule(2, ((0, 0), (1, 0)), ((0, ((1, 0),)), (1, ((0, 1),))))
    with pytest.raises(InvalidFNMError):  # negative level
        FilteredNilpotentModule(1, ((0,),), ((-1, ((1,),)),))


def test_fnm_json_roundtrip():
    M = example_module()
    assert fnm_from_json(fnm_to_json(M)) == M
    with pytest.raises(InvalidFNMError):
        fnm_from_json("{not json")
    with pytest.raises(InvalidFNMError):
        fnm_from_json('{"dim": 1, "N": ["0", "0"], "G": []}')


# ---------------------------------------------------------------------------
# randomized structure properties

_entries = st.integers(-2, 2)


@st.composite
def random_fnm(draw, max_dim=5):
    dim = draw(st.integers(1, max_dim))
    n = [[F(0)] * dim for _ in range(dim)]
    for i in range(1, dim):
        for j in range(i):
            n[i][j] = F(draw(_entries))
    levels = []
    used: list[tuple] = []
    n_levels = draw(st.integers(1, 3))
    for lvl in range(n_levels):
        vecs = [
            tuple(F(draw(_entries)) for _ in range(dim))
            for _ in range(draw(st.integers(0, 2)))
        ]
        # close under N so the filtration is stable
        closed = []
        for v in vecs:
            w = v
            for _ in range(dim + 1):
                closed.append(w)
                w = mat_vec(n, w)
        used.extend(closed)
        levels.append((lvl, tuple(closed)))
    # make the top level exhaustive
    basis = [tuple(F(1 if i == j else 0) for j in range(dim)) for i in range(dim)]
    top = (n_levels, tuple(basis))
    return FilteredNilpotentModule(dim, tuple(tuple(r) for r in n), tuple(levels) + (top,))


def _dense_rank(rows):
    m = [list(r) for r in rows if any(x != 0 for x in r)]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
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


def _ref_power(N, k):
    """N^k by repeated products: the reference for the image chain."""
    n = len(N)
    out = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = [[sum((out[i][t] * N[t][j] for t in range(n)), F(0)) for j in range(n)]
               for i in range(n)]
    return out


@given(random_fnm())
@settings(max_examples=100, deadline=None)
def test_report_matches_matrix_powers(M):
    rep = fnm_report(M)
    powers = [_ref_power(M.N, k) for k in range(M.dim + 1)]
    ranks = [_dense_rank(P) for P in powers]
    assert rep.m_tilde == next(k for k, r in enumerate(ranks) if r == 0)
    for k, r in enumerate(ranks):
        assert r == sum(max(b - k, 0) for b in rep.jordan_ambient)
    below: list = []
    for lv in rep.levels:
        basis = M.level_basis(lv.level)
        images = [[mat_vec(P, v) for v in basis] for P in powers]  # N^k G_j
        assert lv.nilpotency_order == next(
            k for k, img in enumerate(images) if _dense_rank(below + img) == _dense_rank(below))
        below = list(basis)


@given(random_fnm())
@settings(max_examples=100, deadline=None)
def test_telescoping(M):
    rep = fnm_report(M)
    assert sum(l.dim_gr for l in rep.levels) == M.dim


@given(random_fnm())
@settings(max_examples=100, deadline=None)
def test_strictness_implies_gr_equivalence(M):
    # brute force, independent of the library subspace code: compare ranks
    # of stacked generating sets computed by a local dense elimination
    if not strictness_check(M):
        return
    n_image = [mat_vec(M.N, v) for v in M.full_basis()]
    prev: list = []
    for lvl, _ in M.G:
        basis = M.level_basis(lvl)
        dim_gr = _dense_rank(basis) - _dense_rank(prev) if prev else _dense_rank(basis)
        with_im = list(basis) + n_image
        prev_with_im = list(prev) + n_image
        gr_coinv = _dense_rank(with_im) - (_dense_rank(prev_with_im) if prev_with_im else 0)
        assert (dim_gr > 0) == (gr_coinv > 0)
        prev = list(basis)


@given(random_fnm())
@settings(max_examples=100, deadline=None)
def test_jordan_mismatch_iff_power_strictness_fails(M):
    rep = fnm_report(M)
    all_strict = all(power_strictness(M, k) for k in range(1, rep.m_tilde + 1))
    assert rep.jordan_mismatch == (not all_strict)


@given(random_fnm())
@settings(max_examples=60, deadline=None)
def test_verdict_matches_definition(M):
    rep = fnm_report(M)
    for lv in rep.levels:
        if lv.dim_gr == 0:
            continue
        q = question1_verdict(M, lv.level)
        assert q.answer == (POSITIVE if lv.dim_gr_coinvariants > 0 else NEGATIVE)
