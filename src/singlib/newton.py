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
no term vanishes on the torus.  Every other face is first rewritten in
coordinates for the affine lattice of its support (an integer change of
monomials, harmless on the torus).  An edge then becomes a univariate q(t)
with q(0) != 0, and q = t q' = 0 has a root on C* iff q has a repeated
root, iff gcd(q, q') over Q is not constant: edges are decided exactly.
A 2-face is certified by ideal membership of 1: the torus is adjoined
through an auxiliary variable u with u*t_1*t_2 = 1, and the span of
bounded-degree multiples of the generators is searched for 1.  A
certificate proves the face has no critical point with all coordinates
nonzero; exhausting the degree budget yields UNDECIDED, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import (ConsistencyCheckError, NotConvenientError, PreconditionError,
                     UnsupportedDimensionError)
from .linalg import (Echelon, feasible_point, hermite_basis, int_row, lattice_coords,
                     solve_linear)
from .milnor import _monomials_upto, negdegrevlex_key
from .poly import ExpVec, SparsePoly

UNDECIDED = "UNDECIDED"


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
    nondegenerate: bool | str  # True, False, or UNDECIDED


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


def _is_vertex(support: list[ExpVec], a: ExpVec, n: int) -> bool:
    constraints = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        constraints.append((e, Fraction(0), True))
    for c in support:
        if c != a:
            constraints.append(
                ([Fraction(ci - ai) for ci, ai in zip(c, a)], Fraction(0), True)
            )
    return feasible_point(constraints, n) is not None


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
    off_line = [c for c in support if c not in on_line]
    constraints = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        constraints.append((e, Fraction(0), True))
    diff = [Fraction(ai - bi) for ai, bi in zip(a, b)]
    constraints.append((diff, Fraction(0), False))
    constraints.append(([-d for d in diff], Fraction(0), False))
    for c in off_line:
        constraints.append(
            ([Fraction(ci - ai) for ci, ai in zip(c, a)], Fraction(0), True)
        )
    if feasible_point(constraints, n) is None:
        return None
    return frozenset(on_line)


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


# the membership search raises its degree by this much per attempt
MEMBERSHIP_STEP = 2


@dataclass
class MembershipBudget:
    """Degree budget for the torus-emptiness membership certificates."""

    degree_cap: int = 40


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


def _one_in_ideal(gens: list[SparsePoly], nvars: int, budget: MembershipBudget) -> bool:
    """Search for a bounded-degree certificate that 1 lies in the ideal."""
    key = negdegrevlex_key
    int_gens = [int_row(g.terms) for g in gens]
    start = max((g.total_degree() for g in gens), default=1) + 1
    level = min(start, budget.degree_cap)
    one = {(0,) * nvars: Fraction(1)}
    while True:
        red = Echelon(key)
        rows = []
        for g in int_gens:
            gdeg = max(sum(e) for e in g)
            for m in _monomials_upto(nvars, level - gdeg):
                rows.append({tuple(a + b for a, b in zip(m, e)): c for e, c in g.items()})
        rows.sort(key=lambda r: key(min(r, key=key)))
        for row in rows:
            red.insert(row)
        if not red.normal_form(dict(one)):
            return True
        if level >= budget.degree_cap:
            return False
        level = min(level + MEMBERSHIP_STEP, budget.degree_cap)


def _remainder(a: list, b: list) -> list:
    """a mod b for dense coefficient lists (constant first, no trailing zeros)."""
    a = list(a)
    while len(a) >= len(b):
        f, k = a[-1] / b[-1], len(a) - len(b)
        for i, c in enumerate(b):
            a[k + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _edge_nondegenerate(q: SparsePoly) -> bool:
    """True iff gcd(q, q') is constant for a univariate q with q(0) != 0."""
    a = [Fraction(0)] * (q.total_degree() + 1)
    for (e,), c in q.terms.items():
        a[e] = c
    b = [i * c for i, c in enumerate(a)][1:]
    while b:
        a, b = b, _remainder(a, b)
    return len(a) == 1


def _face_nondegenerate(
    f: SparsePoly, face: frozenset[ExpVec], budget: MembershipBudget
) -> bool | str:
    q = _face_lattice_poly(f, face)
    d = q.nvars
    if len(face) == d + 1:
        return True  # a simplex (a vertex is the 0-simplex): see the module docstring
    if d == 1:
        return _edge_nondegenerate(q)  # the shift in _face_lattice_poly makes q(0) != 0
    gens = [q] + [_t_partial(q, j) for j in range(d)]
    # adjoin u * t_1 ... t_d - 1 in d + 1 variables
    lifted = []
    for g in gens:
        lifted.append(SparsePoly(d + 1, {e + (0,): c for e, c in g.terms.items()}))
    torus = SparsePoly(
        d + 1,
        {tuple([1] * d + [1]): Fraction(1), (0,) * (d + 1): Fraction(-1)},
    )
    lifted.append(torus)
    if _one_in_ideal(lifted, d + 1, budget):
        return True
    return UNDECIDED


def _t_partial(q: SparsePoly, j: int) -> SparsePoly:
    """The logarithmic derivative t_j * dq/dt_j (termwise e_j scaling)."""
    terms = {}
    for e, c in q.terms.items():
        if e[j]:
            terms[e] = c * e[j]
    return SparsePoly(q.nvars, terms)


def newton_flags(
    f: SparsePoly, budget: MembershipBudget | None = None
) -> NewtonFlags:
    """Convenience and Kouchnirenko nondegeneracy of the Newton boundary."""
    P = newton_polyhedron(f)
    n = f.nvars
    convenient = all(
        any(all(e[j] == 0 for j in range(n) if j != i) and e[i] > 0 for e in P.support)
        for i in range(n)
    )
    budget = budget or MembershipBudget()
    verdict: bool | str = True
    for face in compact_faces(P):
        res = _face_nondegenerate(f, face, budget)
        if res is UNDECIDED:
            verdict = UNDECIDED
        elif res is False:
            verdict = False
            break
    return NewtonFlags(convenient, verdict)


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


def _project_polygon(vertices: list[ExpVec], functional) -> list[tuple[int, int]] | None:
    drop = max(range(3), key=lambda i: functional[i])
    keep = [i for i in range(3) if i != drop]
    return [(v[keep[0]], v[keep[1]]) for v in vertices], keep


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
        proj, _ = _project_polygon(verts, F.functional)
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
