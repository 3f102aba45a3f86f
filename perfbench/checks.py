"""Checks of every op's output against values computed apart from the library.

Each check returns a list of error strings; an empty list means the output
passed.  Closed forms come from the family's parameters or the germ's
exponents; ranks for the module checks come from sympy and the optimal
matching cost from scipy.  Only the normal-form idempotence check calls the
library again, because idempotence is a property of the library's own map.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import lcm

from workloads import box_basis, bp_spectrum, matmul

# ---------------------------------------------------------------------------
# family-certify


def _frac(s) -> Fraction:
    return Fraction(str(s))


def check_certificate(spec: dict, rc: int, text: str) -> list[str]:
    a, b, c = spec["a"], spec["b"], spec["c"]
    errs = []
    if rc != 0:
        errs.append(f"exit code {rc}")
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as e:
        return errs + [f"output is not JSON: {e}"]
    if cert.get("status") != "CERTIFIED":
        return errs + [f"status {cert.get('status')} (failed step {cert.get('failed_step')})"]
    s = cert["summary"]
    mu_h = 8 * a * b - 4 * a + 1
    beta0 = Fraction(3, c) - Fraction(1, 2 * b)
    alpha2 = min(Fraction(a + b, 2 * a * b) + Fraction(1, c),
                 Fraction(1, 2 * b) + Fraction(2, c))
    expect = {
        "mu_h": (s["mu_h"], mu_h),
        "mu_g": (s["mu_g"], mu_h * (c - 1)),
        "beta0": (_frac(s["beta0"]), beta0),
        "alpha_g2": (_frac(s["alpha_g2"]), alpha2),
        "euler_c": (_frac(s["euler_c"]), beta0 + 1),
        "euler_remainder_coefficient": (_frac(s["euler_remainder_coefficient"]),
                                        Fraction(a - 2 * b, b)),
        "question1": (cert["verdicts"]["question1"], "NEGATIVE"),
    }
    for name, (got, want) in expect.items():
        if got != want:
            errs.append(f"{name} = {got}, expected {want}")
    return errs


def check_verify(rc: int, text: str) -> list[str]:
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"output is not JSON: {e}"]
    if rc != 0 or (rep.get("passed"), rep.get("total")) != (22, 22):
        return [f"verify-paper: exit {rc}, {rep.get('passed')}/{rep.get('total')} passed"]
    return []


# ---------------------------------------------------------------------------
# germ-invariants


def wh_spectrum(weights) -> list[Fraction]:
    """Spectrum of an isolated weighted homogeneous germ from its weights.

    Steenbrink: sum over the spectrum of t^alpha equals the product of
    (t^w - t) / (1 - t^w).  With s = t^(1/L) both sides are integer
    polynomials in s, and the division is exact.
    """
    L = lcm(*(Fraction(w).denominator for w in weights))
    num, den = [1], [1]
    for w in weights:
        a = int(Fraction(w) * L)
        num = _pmul(num, {a: 1, L: -1})
        den = _pmul(den, {0: 1, a: -1})
    q = []
    for k in range(len(num) - len(den) + 1):
        q.append(num[k] - sum(den[j] * q[k - j] for j in range(1, min(k, len(den) - 1) + 1)))
    if _pmul(q, dict(enumerate(den))) != num:
        raise ValueError(f"weights {weights} give no polynomial spectrum")
    if any(x < 0 for x in q):
        raise ValueError("negative multiplicity")
    return sorted(Fraction(e, L) for e, m in enumerate(q) for _ in range(m))


def _pmul(p: list[int], q: dict[int, int]) -> list[int]:
    out = [0] * (len(p) + max(q))
    for i, x in enumerate(p):
        if x:
            for j, y in q.items():
                out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def term_dict(terms) -> dict[tuple, Fraction]:
    out: Counter = Counter()
    for c, e in terms:
        out[tuple(e)] += Fraction(c)
    return {e: c for e, c in out.items() if c}


def check_spectrum_axioms(values, nvars: int, mu: int) -> list[str]:
    errs = []
    if len(values) != mu:
        errs.append(f"spectrum has {len(values)} values, mu = {mu}")
    if any(not 0 < v < nvars for v in values):
        errs.append("spectral value outside (0, n)")
    c = Counter(values)
    if any(c[v] != c[nvars - v] for v in c):
        errs.append("spectrum not symmetric")
    if 2 * sum(values, Fraction(0)) != nvars * mu:
        errs.append("spectrum does not sum to n*mu/2")
    return errs


def check_germ(spec: dict, out: dict) -> list[str]:
    fam, mu, n = spec["family"], spec["mu"], len(spec["names"])
    errs = []
    if out["status"] != "FINITE" or out["mu"] != mu:
        errs.append(f"{out['status']} mu = {out['mu']}, expected {mu}")
    if out["f"] != tuple(sorted(term_dict(spec["terms"]).items())):
        errs.append("germ parsed wrongly")
    if out["queries"] != tuple(tuple(sorted(term_dict(t).items())) for t in spec["query_terms"]):
        errs.append("query polynomials parsed wrongly")
    if spec["convenient"]:
        if out["flags"] != (True, True):
            errs.append(f"flags {out['flags']}, expected convenient and nondegenerate")
        if out["nu"] != mu:
            errs.append(f"Newton number {out['nu']}, expected {mu}")
    weights, spectrum = spec["weights"], None
    if fam == "bp":
        spectrum = bp_spectrum(spec["exps"])
        if out["staircase"] != tuple(sorted(box_basis(spec["exps"]))):
            errs.append("staircase differs from the box basis")
    elif fam == "dkz":
        spectrum = wh_spectrum(weights)
    if out["weights"] != weights:
        errs.append(f"weights {out['weights']}, expected {weights}")
    if out["spectrum"] is not None:
        nv, values = out["spectrum"]
        errs += check_spectrum_axioms(list(values), nv, mu)
        if spectrum is not None and list(values) != spectrum:
            errs.append("spectrum differs from the closed form")
    elif fam != "tpqr":
        errs.append("no spectrum computed")
    if spectrum is not None and out["broots"] != tuple((v, 1) for v in sorted(set(spectrum))):
        errs.append("b-function roots are not the distinct spectral values")
    stair = set(out["staircase"])
    for q, nf in zip(spec["query_terms"], out["nfs"]):
        if any(e not in stair for e, _ in nf):
            errs.append("normal form not supported on the staircase")
        if fam == "bp":
            # the Jacobian ideal of a Brieskorn-Pham germ is (x_i^(p_i - 1))
            want = {e: c for e, c in term_dict(q).items()
                    if all(x < p - 1 for x, p in zip(e, spec["exps"]))}
            if dict(nf) != want:
                errs.append("normal form differs from the monomial-ideal reduction")
    if out["candidate_ok"] is not True:
        errs.append("basis candidate rejected")
    if out["candidate_bad"] is not False:
        errs.append("candidate with a Jacobian-ideal monomial accepted")
    if any(len(e) != n for e in out["staircase"]):
        errs.append("staircase in the wrong number of variables")
    return errs


def check_idempotent(lib, out: dict) -> list[str]:
    f, basis = out["_f"], out["_basis"]
    if any(lib.milnor.normal_form(nf, f, basis=basis) != nf for nf in out["_nfs"]):
        return ["normal form is not idempotent"]
    return []


# ---------------------------------------------------------------------------
# module-checks


def _rank(vectors) -> int:
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    return DomainMatrix([[QQ(int(x)) for x in r] for r in rows],
                        (len(rows), len(rows[0])), QQ).rank()


def _apply(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def jordan_from_ranks(ranks: list[int]) -> tuple[int, ...]:
    """Block sizes from ranks of N^0, N^1, ... (ending with a zero rank)."""
    r = list(ranks) + [0, 0]
    blocks = []
    for k in range(1, len(ranks)):
        blocks += [k] * (r[k - 1] - 2 * r[k] + r[k + 1])
    return tuple(sorted(blocks, reverse=True))


def check_module(spec: dict, out: dict) -> list[str]:
    N, d = spec["N"], spec["dim"]
    errs = []
    cols = [[N[i][j] for i in range(d)] for j in range(d)]  # N e_j
    powers = [[[int(i == j) for j in range(d)] for i in range(d)]]
    while _rank(powers[-1]) > 0:
        powers.append(matmul(powers[-1], N))
    ranks = [_rank(P) for P in powers]
    ambient = jordan_from_ranks(ranks)
    if ambient != spec["jordan"]:
        errs.append(f"sympy Jordan type {ambient} != seeded {spec['jordan']}")
    if out["jordan_ambient"] != spec["jordan"] or out["types"][0] != spec["jordan"]:
        errs.append(f"ambient Jordan type {out['jordan_ambient']}, seeded {spec['jordan']}")
    m_tilde = len(powers) - 1
    if out["m_tilde"] != m_tilde:
        errs.append(f"m_tilde {out['m_tilde']}, expected {m_tilde}")
    rank_nm = _rank(cols)
    strict = True
    graded: list[int] = []
    below: list = []
    want_levels = []
    verdicts = {}
    for lvl, vecs in spec["G"].items():
        span = below + vecs
        dim_g, dim_below = _rank(span), _rank(below)
        coinv = _rank(span + cols) - _rank(below + cols)
        # strictness at this level: dim(N(M) & G_j) = dim N(G_j)
        meet = rank_nm + dim_g - _rank(cols + span)
        if meet != _rank([_apply(N, v) for v in span]):
            strict = False
        piece = []
        for P in powers:
            piece.append(_rank([_apply(P, v) for v in span] + below) - dim_below)
            if piece[-1] == 0:
                break
        order = len(piece) - 1
        graded += jordan_from_ranks(piece)
        want_levels.append((lvl, dim_g, dim_g - dim_below, coinv, order))
        if dim_g > dim_below:
            verdicts[lvl] = ("POSITIVE" if coinv else "NEGATIVE", order == m_tilde)
        below = span
    if out["levels"] != tuple(want_levels):
        errs.append(f"levels {out['levels']}, expected {tuple(want_levels)}")
    if out["strict"] != strict:
        errs.append(f"strictness {out['strict']}, expected {strict}")
    graded_t = tuple(sorted(graded, reverse=True))
    if out["jordan_graded"] != graded_t or out["types"][1] != graded_t:
        errs.append(f"graded Jordan type {out['jordan_graded']}, expected {graded_t}")
    if out["verdicts"] != verdicts:
        errs.append(f"verdicts {out['verdicts']}, expected {verdicts}")
    return errs


def check_matching(spec: dict, sigma) -> list[str]:
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    alphas, r = spec["alphas"], spec["r"]
    betas = sorted(spec["betas"])
    n = len(alphas)
    if sigma is None or sorted(sigma) != list(range(n)):
        return [f"not a permutation of {n} elements"]
    big = 10 * n + 10
    table = np.full((n, n), big, dtype=np.int64)
    for k in range(n):
        for l in range(n):
            dlt = alphas[k] - r[k] - betas[l]
            if dlt.denominator == 1 and dlt >= 0:
                table[k, l] = int(dlt)
    if any(table[k, l] == big for k, l in enumerate(sigma)):
        return ["matching uses an inadmissible pair"]
    rows, cols = linear_sum_assignment(table)
    best = int(table[rows, cols].sum())
    got = sum(int(table[k, l]) for k, l in enumerate(sigma))
    if got != best:
        return [f"total defect {got}, optimum {best}"]
    return []


def check_op(lib, op, summary) -> list[str]:
    if op.kind == "certify":
        return check_certificate(op.spec, *summary)
    if op.kind == "verify":
        return check_verify(*summary)
    if op.kind == "germ":
        return check_germ(op.spec, summary) + check_idempotent(lib, summary)
    if op.kind == "module":
        return check_module(op.spec, summary)
    if op.kind == "matching":
        return check_matching(op.spec, summary)
    raise ValueError(op.kind)

