"""The three workloads: seeded inputs and the ops that run them.

An op is one closed-loop call from a single caller.  ``run`` is the part
that is timed; ``summarize`` turns its raw result into plain data that the
checks read and that later rounds are compared against.  Ops call the
library through module attributes (``milnor.milnor_basis``), so that the
tracer's wrappers are seen when tracing is on.

Inputs depend only on the workload name and the seed; the shapes of the
inputs (dimensions, Milnor-number bands, spectrum sizes) are fixed, so
that different seeds give work of a similar size.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, prod
from typing import Any, Callable

WORKLOADS = ("family-certify", "germ-invariants", "module-checks")

# op_tail_s is this nearest-rank percentile of the op times; every run has
# at least ten ops above it
TAIL_PERCENTILE = {"family-certify": 80, "germ-invariants": 90, "module-checks": 75}


@dataclass
class Op:
    kind: str
    key: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Any]
    spec: dict = field(default_factory=dict)


def build(name: str, seed: int, lib) -> list[Op]:
    """The ops of one round of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}/{seed}")
    if name == "family-certify":
        ops = _family_ops(lib)
    elif name == "germ-invariants":
        ops = _germ_ops(rng, lib)
    elif name == "module-checks":
        ops = _module_ops(rng, lib)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if len({op.key for op in ops}) != len(ops):
        raise ValueError("op keys must be unique within a round")
    return ops


# ---------------------------------------------------------------------------
# family-certify


def family_instances(bmax: int) -> list[tuple[int, int, int]]:
    """Valid (a, b, c) with b <= bmax, in sweep order (by b, then c, then a).

    Pairwise coprime, a > 2b > c and 1/(2a) > 2/c - 1/b.  Since c < 2b the
    bound 2/c - 1/b is positive, so a ranges over a finite interval.
    """
    out = []
    for b in range(1, bmax + 1):
        for c in range(1, 2 * b):
            bound = Fraction(2, c) - Fraction(1, b)
            a = 2 * b + 1
            while Fraction(1, 2 * a) > bound:
                if gcd(a, b) == gcd(a, c) == gcd(b, c) == 1:
                    out.append((a, b, c))
                a += 1
    return sorted(out, key=lambda t: (t[1], t[2], t[0]))


def _cli_call(lib, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = lib.cli.main(argv)
        return rc, buf.getvalue()
    return run


def _family_ops(lib) -> list[Op]:
    ops = []
    for a, b, c in family_instances(6):
        argv = ["family", "certify", str(a), str(b), str(c)]
        ops.append(Op("certify", f"certify {a} {b} {c}", _cli_call(lib, argv),
                      lambda out: out, {"a": a, "b": b, "c": c}))
    ops.append(Op("verify", "verify-paper", _cli_call(lib, ["verify-paper"]),
                  lambda out: out))
    return ops


# ---------------------------------------------------------------------------
# germ-invariants

_COEFFS = (1, 1, 1, 2, 3, -1, -2, Fraction(1, 2), Fraction(3, 2))


def _coeff_text(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _mono_text(exp, names) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e]
    return "*".join(parts) or "1"


def poly_text(terms: list[tuple[Any, tuple[int, ...]]], names) -> str:
    """Text in the library's grammar for sum(c * x^e)."""
    out = ""
    for c, e in terms:
        c = Fraction(c)
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = _mono_text(e, names)
        if mag != 1:
            body = f"{_coeff_text(mag)}*{body}" if body != "1" else _coeff_text(mag)
        out += (sign if out or sign == "-" else "") + body
    return out


# The germs of one round.  Family and exponents are fixed, so that every
# seed does work of the same size; the seed permutes the variables and picks
# the coefficients, the query polynomials and the candidate sets.
GERM_SLOTS = (
    ("bp", (8, 11)), ("bp", (10, 13)), ("bp", (12, 15)), ("bp", (14, 17)),
    ("bp", (4, 5, 7)), ("bp", (4, 6, 8)), ("bp", (5, 6, 8)), ("bp", (5, 7, 9)),
    ("xyij", (9, 12, 3, 4)), ("xyij", (12, 15, 4, 5)),
    ("xyij", (14, 18, 5, 6)), ("xyij", (16, 21, 6, 7)),
    ("tpqr", (4, 5, 6)), ("tpqr", (5, 7, 9)), ("tpqr", (7, 9, 11)), ("tpqr", (9, 12, 15)),
    ("dkz", (6, 12)), ("dkz", (8, 14)), ("dkz", (10, 16)), ("dkz", (12, 18)),
)


def germ_spec(rng, family: str, params: tuple[int, ...]) -> dict:
    """One germ with its closed-form invariants, in seeded variable order.

    bp:   x^p + y^q (+ z^r), Brieskorn-Pham, mu = prod(p_i - 1)
    xyij: x^p + y^q + x^i*y^j with i/p + j/q < 1, mu = pj + qi - p - q + 1
    tpqr: x^p + y^q + z^r + xyz, mu = p + q + r - 1
    dkz:  x^2*y + y^(k-1) + z^r, weighted homogeneous, mu = k(r - 1)
    """
    def co():
        return rng.choice(_COEFFS)
    weights = None
    if family == "bp":
        n = len(params)
        terms = [(co(), tuple(p if k == i else 0 for k in range(n)))
                 for i, p in enumerate(params)]
        mu = prod(p - 1 for p in params)
        weights = tuple(Fraction(1, p) for p in params)
    elif family == "xyij":
        p, q, i, j = params
        n = 2
        terms = [(co(), (p, 0)), (co(), (0, q)), (co(), (i, j))]
        mu = p * j + q * i - p - q + 1
    elif family == "tpqr":
        p, q, r = params
        n = 3
        terms = [(1, (p, 0, 0)), (1, (0, q, 0)), (1, (0, 0, r)), (co(), (1, 1, 1))]
        mu = p + q + r - 1
    else:
        k, r = params
        n = 3
        terms = [(co(), (2, 1, 0)), (co(), (0, k - 1, 0)), (co(), (0, 0, r))]
        mu = k * (r - 1)
        weights = (Fraction(k - 2, 2 * (k - 1)), Fraction(1, k - 1), Fraction(1, r))
    perm = rng.sample(range(n), n)

    def move(e):
        return tuple(e[perm[i]] for i in range(n))

    s = {"family": family, "params": params, "mu": mu, "names": ["x", "y", "z"][:n],
         "terms": [(c, move(e)) for c, e in terms],
         "weights": None if weights is None else move(weights),
         "convenient": family != "dkz"}
    # a monomial of the Jacobian ideal to put into a candidate basis
    if family == "bp":
        s["exps"] = exps = move(params)
        ideal = [rng.randrange(p - 1) for p in exps]
        k = rng.randrange(n)
        ideal[k] = exps[k] - 1  # x_k^(p_k - 1) times a box monomial
    elif family == "dkz":
        ideal = [rng.randrange(3), 0, params[1] - 1]  # z^(r-1) times x^a
    else:
        ideal = [0] * n  # m^mu lies in the Jacobian ideal of an isolated singularity
        for _ in range(mu):
            ideal[rng.randrange(n)] += 1
    s["ideal_monomial"] = move(ideal) if family == "dkz" else tuple(ideal)
    s["replace_at"] = rng.randrange(mu)
    s["text"] = poly_text(s["terms"], s["names"])
    top = max(max(e) for _, e in terms) + 2
    s["query_terms"] = [
        [(rng.choice((1, -1, 2, -3, Fraction(1, 3), Fraction(-5, 2))),
          tuple(rng.randrange(top) for _ in range(n))) for _ in range(6)]
        for _ in range(3)
    ]
    s["queries"] = [poly_text(t, s["names"]) for t in s["query_terms"]]
    return s


def box_basis(exps) -> list[tuple[int, ...]]:
    return [tuple(e) for e in product(*[range(p - 1) for p in exps])]


def _germ_op(lib, s: dict) -> Callable[[], dict]:
    poly, milnor, newton, spectrum, certificates = (
        lib.poly, lib.milnor, lib.newton, lib.spectrum, lib.certificates)
    names = s["names"]

    def run() -> dict:
        f = poly.parse_poly(s["text"], names)
        basis = milnor.milnor_basis(f)
        out = {"f": f, "basis": basis}
        flags = None
        if s["convenient"]:
            out["facets"] = len(newton.newton_polyhedron(f).facets)
            flags = out["flags"] = newton.newton_flags(f)
            out["nu"] = newton.newton_number(f)
        w = poly.weighted_homogeneity(f)
        out["weights"] = w
        if w is not None:
            sp = out["spectrum"] = spectrum.spectrum_wh(f, w, basis=basis)
            out["broots"] = certificates.btilde_wh(sp)
        elif f.nvars == 2:
            out["spectrum"] = spectrum.spectrum_newton_2d(f, flags=flags, basis=basis)
        out["queries"] = [poly.parse_poly(t, names) for t in s["queries"]]
        out["nfs"] = [milnor.normal_form(q, f, basis=basis) for q in out["queries"]]
        cand = box_basis(s["exps"]) if s["family"] == "bp" else sorted(basis.staircase)
        bad = list(cand)
        bad[s["replace_at"] % len(bad)] = s["ideal_monomial"]
        out["candidate_ok"] = milnor.is_monomial_basis(f, cand, basis=basis)
        out["candidate_bad"] = milnor.is_monomial_basis(f, bad, basis=basis)
        return out
    return run


def _terms(p) -> tuple:
    return tuple(sorted(p.terms.items()))


def _germ_summary(out: dict) -> dict:
    b = out["basis"]
    sp = out.get("spectrum")
    return {
        "f": _terms(out["f"]),
        "status": b.status,
        "mu": b.milnor_number,
        "staircase": tuple(sorted(b.staircase)),
        "flags": (out["flags"].convenient, out["flags"].nondegenerate) if "flags" in out else None,
        "facets": out.get("facets"),
        "nu": out.get("nu"),
        "weights": None if out["weights"] is None else tuple(out["weights"]),
        "spectrum": None if sp is None else (sp.nvars, sp.values),
        "broots": out["broots"].roots if "broots" in out else None,
        "queries": tuple(_terms(q) for q in out["queries"]),
        "nfs": tuple(_terms(p) for p in out["nfs"]),
        "candidate_ok": out["candidate_ok"],
        "candidate_bad": out["candidate_bad"],
        # kept for the idempotence check, which calls normal_form again
        "_f": out["f"],
        "_basis": b,
        "_nfs": out["nfs"],
    }


def _germ_ops(rng, lib) -> list[Op]:
    specs = [germ_spec(rng, family, params) for family, params in GERM_SLOTS]
    return [Op("germ", f"germ {s['family']} {s['text']}", _germ_op(lib, s), _germ_summary, s)
            for s in specs]


# ---------------------------------------------------------------------------
# module-checks

# (dimension, filtration levels, largest Jordan block) of the modules in one
# round, each drawn MODULE_DRAWS times.  Fixing the largest block fixes the
# nilpotency order, which sets much of an op's cost.  The rest of the
# structure still moves one module's work by up to about 25 % with the seed,
# so a round holds 28 modules: the round's median and tail then rest on many
# seeded structures rather than on a few.
MODULE_SHAPES = ((6, 2, 3), (6, 2, 4), (6, 3, 2), (6, 3, 3), (6, 3, 4),
                 (7, 2, 3), (7, 2, 4), (7, 3, 2), (7, 3, 3), (7, 3, 4),
                 (8, 2, 3), (8, 2, 4), (8, 3, 2), (8, 3, 3))
MODULE_DRAWS = 2
# Brieskorn-Pham exponents whose spectra are matched: 120, 224, 288, 336 values
MATCHING_EXPONENTS = ((5, 6, 7), (5, 8, 9), (5, 9, 10), (7, 8, 9))


def _partition(rng, d: int, largest: int) -> tuple[int, ...]:
    """A seeded partition of d whose largest part is ``largest``."""
    parts, rem = [largest], d - largest
    while rem:
        m = rng.randint(1, min(rem, largest))
        parts.append(m)
        rem -= m
    return tuple(sorted(parts, reverse=True))


def _unimodular(rng, d: int):
    """A seeded unimodular integer matrix and its inverse (row operations)."""
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    Ui = [row[:] for row in U]
    for _ in range(2 * d):
        a, b = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[a] = [x + c * y for x, y in zip(U[a], U[b])]
        for row in Ui:
            row[b] -= c * row[a]
    return U, Ui


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def module_spec(rng, d: int, levels: int, largest: int) -> dict:
    """A filtered nilpotent module of seeded Jordan type, conjugated by a
    seeded unimodular matrix.  Levels rise along each Jordan chain, so the
    filtration is N-stable.  Every level is used: each nonzero graded piece
    costs one more report in the verdicts, so an empty level would change
    the op's work with the seed."""
    jordan = _partition(rng, d, largest)
    level_of: list[int] = []
    while set(level_of) != set(range(levels)):
        level_of = [lvl for m in jordan for lvl in sorted(rng.randrange(levels) for _ in range(m))]
    N = [[0] * d for _ in range(d)]
    i = 0
    for m in jordan:
        for t in range(1, m):
            N[i + t - 1][i + t] = 1  # N e_t = e_(t-1)
        i += m
    U, Ui = _unimodular(rng, d)
    Nc = matmul(matmul(U, N), Ui)
    G: dict[int, list[list[int]]] = {}
    for col, lvl in enumerate(level_of):
        G.setdefault(lvl, []).append([U[r][col] for r in range(d)])
    obj = {
        "dim": d,
        "N": [str(x) for row in Nc for x in row],
        "G": [{"level": lvl, "spanning_vectors": [[str(x) for x in v] for v in G[lvl]]}
              for lvl in sorted(G)],
    }
    return {"dim": d, "jordan": jordan, "N": Nc,
            "G": {lvl: G[lvl] for lvl in sorted(G)}, "text": json.dumps(obj)}


def _module_op(lib, s: dict) -> Callable[[], dict]:
    C = lib.certificates

    def run() -> dict:
        M = C.fnm_from_json(s["text"])
        report = C.fnm_report(M)
        strict = C.strictness_check(M)
        jordan = C.jordan_types(M)
        verdicts = {lv.level: C.question1_verdict(M, lv.level)
                    for lv in report.levels if lv.dim_gr}
        return {"report": report, "strict": strict, "jordan": jordan, "verdicts": verdicts}
    return run


def _module_summary(out: dict) -> dict:
    r = out["report"]
    return {
        "dim": r.dim,
        "m_tilde": r.m_tilde,
        "levels": tuple((lv.level, lv.dim_g, lv.dim_gr, lv.dim_gr_coinvariants,
                         lv.nilpotency_order) for lv in r.levels),
        "jordan_ambient": r.jordan_ambient,
        "jordan_graded": r.jordan_graded,
        "types": out["jordan"],
        "strict": out["strict"],
        "verdicts": {j: (q.answer, q.via_max_multiplicity) for j, q in out["verdicts"].items()},
    }


def bp_spectrum(exps) -> list[Fraction]:
    """Spectrum of x1^p1 + ... + xn^pn: all sums i1/p1 + ... + in/pn."""
    return sorted(sum(Fraction(i, p) for i, p in zip(ix, exps))
                  for ix in product(*[range(1, p) for p in exps]))


def matching_spec(rng, exps) -> dict:
    alphas = bp_spectrum(exps)
    r = [rng.randint(0, 1) for _ in alphas]
    betas = [a - rk - rng.randint(0, 2) for a, rk in zip(alphas, r)]
    rng.shuffle(betas)
    return {"exps": exps, "alphas": alphas, "r": r, "betas": betas}


def _matching_op(lib, s: dict) -> Callable[[], Any]:
    C = lib.certificates
    annotated = C.AnnotatedSpectrum(lib.spectrum.Spectrum(tuple(s["alphas"]), len(s["exps"])),
                                    tuple(s["r"]))
    return lambda: C.delta_matching(annotated, s["betas"])


def _module_ops(rng, lib) -> list[Op]:
    ops = []
    for d, levels, largest in MODULE_SHAPES:
        for draw in range(MODULE_DRAWS):
            ms = module_spec(rng, d, levels, largest)
            ops.append(Op("module", f"module dim {d} levels {levels} jordan {ms['jordan']}"
                          f" draw {draw}", _module_op(lib, ms), _module_summary, ms))
    for exps in MATCHING_EXPONENTS:
        mt = matching_spec(rng, exps)
        ops.append(Op("matching", f"matching {exps}", _matching_op(lib, mt),
                      lambda sigma: sigma, mt))
    return ops
