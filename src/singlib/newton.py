"""Newton polyhedron machinery for germs in at most three variables.

Compact facets are found by brute force: every n-subset of the support is
solved for a functional ell with ell = 1 on the subset; solutions with all
coefficients positive that stay >= 1 on the whole support are facets.  The
remaining compact faces (vertices and, for n = 3, edges) are recovered with
exact Fourier-Motzkin feasibility queries for their supporting functionals.

A compact face whose support is affinely independent (a simplex, vertices
included) is nondegenerate for any nonzero coefficients: the equations
q = t_j dq/dt_j = 0 say that an invertible matrix, with the columns
(1, a) for the support points a, kills the vector of terms c_a t^a, and
no term vanishes on the torus.  Any other face (an edge or a 2-face) is
rewritten in coordinates t_1..t_d of the affine lattice of its support and
shifted so that q has no monomial factor.  Its critical points on the torus
are the points of V(J), J = (q, dq/dt_1, ..., dq/dt_d), off the axes.  A
grevlex Groebner basis G of J over Q decides exactly: 1 in G means V(J) is
empty; a t_j with no pure power among the leading monomials means V(J)
holds a curve, which the shift keeps off the axes; otherwise Q[t]/J has
dimension s, and V(J) misses the torus iff (t_1...t_d)^s lies in J
(Stickelberger).  For an edge G is gcd(q, q'): q has no repeated root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm

from .errors import (ConsistencyCheckError, NotConvenientError, PreconditionError,
                     UnsupportedDimensionError)
from .linalg import feasible_point, hermite_basis, lattice_coords, solve_linear
from .poly import ExpVec, SparsePoly


@dataclass(frozen=True)
class Facet:
    """A compact facet: positive functional with its incident support points."""

    functional: tuple[Fraction, ...]
    vertices: frozenset[ExpVec]


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Support and compact facets; ``forms[i] / den`` is facet i's functional."""

    support: frozenset[ExpVec]
    facets: tuple[Facet, ...]
    nvars: int
    forms: tuple[tuple[int, ...], ...]
    den: int


@dataclass(frozen=True)
class NewtonFlags:
    convenient: bool
    nondegenerate: bool
    degenerate_face: tuple[ExpVec, ...] | None = None  # the first in compact_faces order


def newton_polyhedron(f: SparsePoly) -> NewtonPolyhedron:
    """Compact facets of the Newton polyhedron of f, in lex functional order."""
    n = f.nvars
    if n > 3:
        raise UnsupportedDimensionError(f"{n} variables (supported: n <= 3)")
    if f.is_zero():
        raise PreconditionError("newton_polyhedron of the zero polynomial")
    if f.constant_term() != 0:
        raise PreconditionError("germ must vanish at the origin")
    support = sorted(f.support())
    found: dict[tuple[Fraction, ...], frozenset[ExpVec]] = {}
    for subset in combinations(support, n):
        rows = [[Fraction(e) for e in a] for a in subset]
        sol = solve_linear(rows, [Fraction(1)] * n)
        if sol is None or sol[1]:
            continue  # singular or underdetermined subset
        ell = sol[0]
        if any(c <= 0 for c in ell):
            continue
        values = {a: sum((c * e for c, e in zip(ell, a)), Fraction(0)) for a in support}
        if any(v < 1 for v in values.values()):
            continue
        found[tuple(ell)] = frozenset(a for a, v in values.items() if v == 1)
    facets = tuple(
        Facet(ell, found[ell]) for ell in sorted(found)
    )
    den = lcm(*(c.denominator for F in facets for c in F.functional))
    forms = tuple(tuple(int(c * den) for c in F.functional) for F in facets)
    return NewtonPolyhedron(frozenset(support), facets, n, forms, den)


def phi_value(P: NewtonPolyhedron, p) -> Fraction:
    """Newton filtration value: min of the facet functionals at p."""
    if not P.facets:
        raise PreconditionError("polyhedron has no compact facets")
    p = tuple(Fraction(x) for x in p)
    if len(p) != P.nvars:
        raise PreconditionError(f"phi_value needs a point with {P.nvars} coordinates")
    if any(x < 0 for x in p):
        raise PreconditionError("phi_value needs a non-negative point")
    return Fraction(min(sum(c * x for c, x in zip(form, p)) for form in P.forms), P.den)


# ---------------------------------------------------------------------------
# compact face enumeration


def _supported(a: ExpVec, above: list[ExpVec], n: int, level: tuple = ()) -> bool:
    """Is some positive functional larger on ``above`` than at a, and zero on ``level``?"""
    rows = [([Fraction(int(i == j)) for j in range(n)], Fraction(0), True) for i in range(n)]
    for v in level:
        rows += [(v, Fraction(0), False), ([-x for x in v], Fraction(0), False)]
    rows += [([Fraction(ci - ai) for ci, ai in zip(c, a)], Fraction(0), True) for c in above]
    return feasible_point(rows, n) is not None


def _is_vertex(support: list[ExpVec], a: ExpVec, n: int) -> bool:
    return _supported(a, [c for c in support if c != a], n)


def _collinear(a: ExpVec, b: ExpVec, c: ExpVec) -> bool:
    u = [bi - ai for bi, ai in zip(b, a)]
    v = [ci - ai for ci, ai in zip(c, a)]
    # rank of {u, v} <= 1: all 2x2 minors vanish
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] - u[j] * v[i] != 0:
                return False
    return True


def _edge_face(support: list[ExpVec], a: ExpVec, b: ExpVec, n: int):
    """Support points of a compact edge through a, b, or None."""
    on_line = [c for c in support if _collinear(a, b, c)]
    diff = [Fraction(ai - bi) for ai, bi in zip(a, b)]
    if _supported(a, [c for c in support if c not in on_line], n, (diff,)):
        return frozenset(on_line)
    return None


def compact_faces(P: NewtonPolyhedron) -> list[frozenset[ExpVec]]:
    """Support sets of all compact faces of the Newton polyhedron."""
    support = sorted(P.support)
    n = P.nvars
    faces: set[frozenset[ExpVec]] = set()
    vertices = [a for a in support if _is_vertex(support, a, n)]
    for a in vertices:
        faces.add(frozenset([a]))
    if n >= 2:
        for a, b in combinations(vertices, 2):
            e = _edge_face(support, a, b, n)
            if e is not None:
                faces.add(e)
    for F in P.facets:
        faces.add(F.vertices)
    return sorted(faces, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# nondegeneracy


def _face_lattice_poly(f: SparsePoly, face: frozenset[ExpVec]) -> SparsePoly:
    """Rewrite the face polynomial in coordinates of its affine lattice."""
    pts = sorted(face)
    a0 = pts[0]
    diffs = [tuple(p - q for p, q in zip(a, a0)) for a in pts[1:]]
    basis = hermite_basis(diffs)
    d = len(basis)
    coords = []
    for a in pts:
        v = tuple(p - q for p, q in zip(a, a0))
        c = lattice_coords(basis, v) if d else ()
        if c is None:
            raise ConsistencyCheckError(f"support point {a} is off the face lattice")
        coords.append(c)
    if d == 0:
        return SparsePoly.constant(0, f.terms[a0])
    shift = [min(c[j] for c in coords) for j in range(d)]
    terms = {}
    for a, c in zip(pts, coords):
        e = tuple(cj - sj for cj, sj in zip(c, shift))
        terms[e] = f.terms[a]
    return SparsePoly(d, terms)


def _grevlex(e: ExpVec):
    return (sum(e), tuple(-x for x in reversed(e)))


def _divides(a: ExpVec, b: ExpVec) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _reduce(p: dict, basis: list) -> dict:
    """Normal form of p modulo basis, a list of (leading monomial, monic poly)."""
    p = dict(p)
    rem = {}
    while p:
        m = max(p, key=_grevlex)
        c = p.pop(m)
        if not c:
            continue
        for lm, g in basis:
            if _divides(lm, m):
                for e, a in g.items():
                    if e != lm:
                        k = tuple(x + y - z for x, y, z in zip(e, m, lm))
                        p[k] = p.get(k, Fraction(0)) - c * a
                break
        else:
            rem[m] = c
    return rem


def _s_poly(f: tuple[ExpVec, dict], g: tuple[ExpVec, dict]) -> dict:
    """The S-polynomial of two monic (leading monomial, poly) pairs."""
    top = tuple(map(max, f[0], g[0]))
    out: dict = {}
    for (lm, p), sign in ((f, 1), (g, -1)):
        for e, c in p.items():
            k = tuple(x + y - z for x, y, z in zip(e, top, lm))
            out[k] = out.get(k, Fraction(0)) + sign * c
    return out


def _groebner(gens: list[dict]) -> list[tuple[ExpVec, dict]]:
    """Groebner basis for grevlex, as (leading monomial, monic poly) pairs.

    Buchberger's algorithm with the normal selection strategy (least lcm
    first) and the Gebauer-Moeller update, which applies the product and
    chain criteria and drops basis elements whose leading monomial a newer
    one divides.  Stops at the first constant, returning it alone.
    """
    polys: list[tuple[ExpVec, dict]] = []  # every element added, by index
    live: list[int] = []  # indices of the current basis
    pairs: list[tuple] = []  # (grevlex key of the lcm, i, j, lcm) still to reduce
    todo = list(gens)
    while todo or pairs:
        if todo:
            p = todo.pop()
        else:
            pair = min(pairs)
            pairs.remove(pair)
            p = _s_poly(polys[pair[1]], polys[pair[2]])
        r = _reduce(p, [polys[i] for i in live])
        if not r:
            continue
        lm = max(r, key=_grevlex)
        if not any(lm):
            return [(lm, {lm: Fraction(1)})]
        h = len(polys)
        polys.append((lm, {e: c / r[lm] for e, c in r.items()}))
        # a new pair is needed only if no other new pair's lcm divides its own
        fresh = [(i, tuple(map(max, polys[i][0], lm))) for i in live]
        kept = []
        while fresh:
            i, top = fresh.pop()
            if not any(map(min, polys[i][0], lm)) or not any(
                    _divides(t, top) for _, t in fresh + kept):
                kept.append((i, top))
        # the chain criterion: lm divides an old pair's lcm, and neither new lcm equals it
        pairs = [pr for pr in pairs if not _divides(lm, pr[3])
                 or pr[3] in (tuple(map(max, polys[pr[1]][0], lm)),
                              tuple(map(max, polys[pr[2]][0], lm)))]
        pairs += [(_grevlex(top), i, h, top) for i, top in kept
                  if any(map(min, polys[i][0], lm))]
        live = [i for i in live if not _divides(lm, polys[i][0])] + [h]
    return [polys[i] for i in live]


def _face_nondegenerate(f: SparsePoly, face: frozenset[ExpVec]) -> bool:
    q = _face_lattice_poly(f, face)
    d = q.nvars
    if len(face) == d + 1:
        return True  # a simplex (a vertex is the 0-simplex): see the module docstring
    gens = [q.terms] + [
        {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j] for e, c in q.terms.items() if e[j]}
        for j in range(d)
    ]
    basis = _groebner(gens)
    leads = [lm for lm, _ in basis]
    if not any(leads[0]):
        return True  # 1 in J: no critical point at all
    tops = []
    for j in range(d):
        powers = [lm[j] for lm in leads if not any(lm[:j] + lm[j + 1:])]
        if not powers:
            return False  # J has a curve, and it is not an axis: it meets the torus
        tops.append(min(powers))
    s = sum(1 for m in product(*map(range, tops))
            if not any(_divides(lm, m) for lm in leads))
    # Stickelberger: t_1...t_d vanishes on V(J) iff it is nilpotent mod J
    r = {(0,) * d: Fraction(1)}
    for _ in range(s):
        r = _reduce({tuple(x + 1 for x in e): c for e, c in r.items()}, basis)
    return not r


def newton_flags(f: SparsePoly) -> NewtonFlags:
    """Convenience and Kouchnirenko nondegeneracy of the Newton boundary."""
    P = newton_polyhedron(f)
    n = f.nvars
    convenient = all(
        any(all(e[j] == 0 for j in range(n) if j != i) and e[i] > 0 for e in P.support)
        for i in range(n)
    )
    for face in compact_faces(P):
        if not _face_nondegenerate(f, face):
            return NewtonFlags(convenient, False, tuple(sorted(face)))
    return NewtonFlags(convenient, True)


# ---------------------------------------------------------------------------
# Newton number (Kouchnirenko's nu)


def _restricted_support(support, axes: tuple[int, ...]):
    out = []
    for a in support:
        if all(a[i] == 0 for i in range(len(a)) if i not in axes):
            out.append(tuple(a[i] for i in axes))
    return out


def _axis_intercept(points_1d: list[tuple[int]]) -> int:
    return min(p[0] for p in points_1d)


def _diagram_chain_2d(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Vertices of the 2-dimensional Newton diagram, x descending."""
    verts = [p for p in points if _is_vertex(points, p, 2)]
    return sorted(verts, key=lambda p: (-p[0], p[1]))


def _area2_under_diagram(points: list[tuple[int, int]]) -> Fraction:
    """Twice the area between the axes and the diagram (shoelace, exact)."""
    chain = _diagram_chain_2d(points)
    poly = [(Fraction(0), Fraction(0))] + [(Fraction(a), Fraction(b)) for a, b in chain]
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        total += x1 * y2 - x2 * y1
    return abs(total)


def _project_polygon(vertices: list[ExpVec], functional) -> list[tuple[int, int]]:
    drop = max(range(3), key=lambda i: functional[i])
    keep = [i for i in range(3) if i != drop]
    return [(v[keep[0]], v[keep[1]]) for v in vertices]


def _hull_order(points2d: list[tuple[int, int]]) -> list[int]:
    """Indices of the convex hull of coplanar projected points, in cyclic order."""
    idx = sorted(range(len(points2d)), key=lambda i: points2d[i])
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    lower, upper = [], []
    for i in idx:
        while len(lower) >= 2 and cross(points2d[lower[-2]], points2d[lower[-1]], points2d[i]) <= 0:
            lower.pop()
        lower.append(i)
    for i in reversed(idx):
        while len(upper) >= 2 and cross(points2d[upper[-2]], points2d[upper[-1]], points2d[i]) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _volume6_under_diagram(P: NewtonPolyhedron) -> Fraction:
    """Six times the 3-volume below the diagram: fan over the compact facets."""
    total = Fraction(0)
    for F in P.facets:
        verts = sorted(F.vertices)
        proj = _project_polygon(verts, F.functional)
        order = _hull_order(proj)
        pts = [verts[i] for i in order]
        for i in range(1, len(pts) - 1):
            a, b, c = pts[0], pts[i], pts[i + 1]
            det = (
                a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0])
            )
            total += abs(Fraction(det))
    return total


def newton_number(f: SparsePoly) -> int:
    """Kouchnirenko's alternating lattice-volume sum nu(Gamma), n <= 3."""
    P = newton_polyhedron(f)
    n = f.nvars
    support = sorted(P.support)
    for i in range(n):
        if not any(
            a[i] > 0 and all(a[j] == 0 for j in range(n) if j != i) for a in support
        ):
            raise NotConvenientError(f"support misses axis {i}")
    # V_k = total k-volume under the diagram in all k-dim coordinate subspaces
    total = Fraction(-1) ** n  # k = 0 term: (-1)^n * 0! * V_0 with V_0 = 1
    for k in range(1, n + 1):
        sign = Fraction(-1) ** (n - k)
        vk_scaled = Fraction(0)  # k! * V_k, an integer
        for axes in combinations(range(n), k):
            pts = _restricted_support(support, axes)
            if k == 1:
                vk_scaled += _axis_intercept(pts)
            elif k == 2:
                vk_scaled += _area2_under_diagram(pts)
            else:
                vk_scaled += _volume6_under_diagram(P)
        total += sign * vk_scaled
    if total.denominator != 1:
        raise ConsistencyCheckError(f"Newton number {total} is not an integer")
    return int(total)
