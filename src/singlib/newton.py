"""Newton polyhedron machinery for germs in at most three variables.

Gamma_+ = conv(supp f) + R^n_{>=0} is generated by the support points and
the unit rays.  An n-subset of generators holding a point has an integer
normal w; it spans a facet <w, x> = m iff w can be signed >= 0 and its least
value m on the support is taken at the subset's points.  Compact facets have
w > 0 and the functional w / m.  Every face is an intersection of facets, so
closing the facets' (points, rays) under intersection lists all faces; the
compact ones hold no ray.  No linear program and no rational solve is needed.

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

Kouchnirenko's nu sums volumes under the diagram of f restricted to each
coordinate subspace.  Gamma_+ meets a subspace in a face, Gamma_+ of the
restricted germ, so nu is read from the one face closure.  P keeps its germ,
and ``newton_polyhedron(P)`` is P, so the functions take a germ or its P.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul, sub

from .errors import (ConsistencyCheckError, NotConvenientError, PreconditionError,
                     UnsupportedDimensionError)
from .linalg import hermite_basis, lattice_coords
from .poly import ExpVec, SparsePoly


@dataclass(frozen=True)
class Facet:
    """A compact facet: positive functional with its incident support points."""

    functional: tuple[Fraction, ...]
    vertices: frozenset[ExpVec]


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Support, compact facets and faces; ``forms[i] / den`` is facet i's functional."""

    support: frozenset[ExpVec]
    facets: tuple[Facet, ...]
    nvars: int
    forms: tuple[tuple[int, ...], ...]
    den: int
    faces: tuple[frozenset[ExpVec], ...]  # by size, then points
    germ: SparsePoly = field(compare=False, repr=False)


@dataclass(frozen=True)
class NewtonFlags:
    convenient: bool
    nondegenerate: bool
    degenerate_face: tuple[ExpVec, ...] | None = None  # the first in compact_faces order


def newton_polyhedron(f: SparsePoly | NewtonPolyhedron) -> NewtonPolyhedron:
    """Compact facets (lex functional order) and faces of Gamma_+(f); a P is returned as is."""
    if isinstance(f, NewtonPolyhedron):
        return f
    n = f.nvars
    if n > 3:
        raise UnsupportedDimensionError(f"{n} variables (supported: n <= 3)")
    if f.is_zero():
        raise PreconditionError("newton_polyhedron of the zero polynomial")
    if f.constant_term() != 0:
        raise PreconditionError("germ must vanish at the origin")
    support = sorted(f.support())
    all_facets = _facets(support, n)
    facets = sorted(
        (Facet(tuple(Fraction(x, m) for x in w), points)
         for w, (m, points, rays) in all_facets.items() if not rays),
        key=lambda F: F.functional,
    )
    den = lcm(*(c.denominator for F in facets for c in F.functional))
    forms = tuple(tuple(int(c * den) for c in F.functional) for F in facets)
    # a face holds exactly the generators that every facet through it holds
    facet_sets = [(points, rays) for _, points, rays in all_facets.values()]
    closed, todo = set(facet_sets), list(facet_sets)
    while todo:
        points, rays = todo.pop()
        for fp, fr in facet_sets:
            face = (points & fp, rays & fr)
            if face[0] and face not in closed:
                closed.add(face)
                todo.append(face)
    faces = sorted((points for points, rays in closed if not rays),
                   key=lambda s: (len(s), sorted(s)))
    return NewtonPolyhedron(frozenset(support), tuple(facets), n, forms, den, tuple(faces), f)


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
# facets and faces of Gamma_+


def _normal(dirs: list[ExpVec], n: int) -> ExpVec:
    """An integer vector orthogonal to n - 1 vectors in Z^n, zero iff they are dependent."""
    if n == 1:
        return (1,)
    if n == 2:
        (u,) = dirs
        return (u[1], -u[0])
    u, v = dirs
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _facets(support: list[ExpVec], n: int) -> dict[ExpVec, tuple]:
    """Every facet of Gamma_+ as w -> (m, points, rays), w >= 0 primitive.

    The facet is <w, x> = m and holds the support points at level m and the
    unit rays e_i with w_i = 0 (see the module docstring).
    """
    gens = support + [tuple(int(i == j) for j in range(n)) for i in range(n)]
    level: dict[ExpVec, tuple] = {}  # every primitive normal seen -> (m, points)
    facets: dict[ExpVec, tuple] = {}
    for first, *rest in combinations(range(len(gens)), n):
        if first >= len(support):
            break  # the remaining subsets hold rays only
        p = support[first]
        w = _normal([gens[k] if k >= len(support) else tuple(map(sub, gens[k], p))
                     for k in rest], n)
        if min(w) < 0:
            w = tuple(-x for x in w)
            if min(w) < 0:
                continue  # w changes sign: the half-space misses a ray
        g = gcd(*w)
        if not g:
            continue  # dependent directions: no hyperplane
        w = tuple(x // g for x in w)
        if w not in level:
            values = [sum(map(mul, w, a)) for a in support]
            m = min(values)
            level[w] = (m, frozenset(a for a, v in zip(support, values) if v == m))
        m, points = level[w]
        if p in points and w not in facets:
            facets[w] = (m, points, frozenset(i for i in range(n) if not w[i]))
    return facets


def compact_faces(P: NewtonPolyhedron) -> list[frozenset[ExpVec]]:
    """Support sets of all compact faces of the Newton polyhedron, by size then points."""
    return list(P.faces)


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


def _missed_axes(support, n: int) -> list[int]:
    """The coordinate axes that hold no support point."""
    return [i for i in range(n) if not any(a[i] and not any(a[:i] + a[i + 1:]) for a in support)]


def newton_flags(f: SparsePoly | NewtonPolyhedron) -> NewtonFlags:
    """Convenience and Kouchnirenko nondegeneracy of the Newton boundary."""
    P = newton_polyhedron(f)
    convenient = not _missed_axes(P.support, P.nvars)
    for face in compact_faces(P):
        if not _face_nondegenerate(P.germ, face):
            return NewtonFlags(convenient, False, tuple(sorted(face)))
    return NewtonFlags(convenient, True)


# ---------------------------------------------------------------------------
# Newton number (Kouchnirenko's nu)


def newton_number(f: SparsePoly | NewtonPolyhedron) -> int:
    """Kouchnirenko's alternating lattice-volume sum nu(Gamma), n <= 3.

    k! V_k is a sum of lattice simplices fanned from the origin: |det(a, b)|
    over each compact edge [a, b] in a coordinate plane, and |det(v0, a, b)|
    over each compact facet fanned from its least point v0 over its edges.
    """
    P = newton_polyhedron(f)
    n = P.nvars
    missed = _missed_axes(P.support, n)
    if missed:
        raise NotConvenientError(f"support misses axis {missed[0]}")
    edges = [E for E in P.faces if len(E) > 1]  # 2-faces too, but none lies in a plane
    vols = [1, 0, 0, 0]  # k! V_k, V_k the k-volume under the diagram in k-dim coordinate spaces
    for i in range(n):
        vols[1] += min(a[i] for a in P.support if not any(a[:i] + a[i + 1:]))
    for i, j in combinations(range(n), 2):
        for E in edges:
            if all(a[k] == 0 for a in E for k in range(n) if k not in (i, j)):
                a, b = min(E), max(E)
                vols[2] += abs(a[i] * b[j] - a[j] * b[i])
    for F in P.facets if n == 3 else ():
        v0 = min(F.vertices)
        vols[3] += sum(abs(sum(map(mul, v0, _normal([min(E), max(E)], 3))))
                       for E in edges if E < F.vertices and v0 not in E)
    return sum((-1) ** (n - k) * v for k, v in enumerate(vols[:n + 1]))
