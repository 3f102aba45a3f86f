"""Exact linear algebra over the rationals.

Three layers, all float-free:

* dense reduced row echelon form over ``Fraction`` with the usual
  derived operations (solve, nullspace, subspace sum/intersection);
* a strict-inequality feasibility solver (Fourier-Motzkin elimination
  with exact back-substituted witnesses), used for positive-weight and
  face-supporting-functional queries;
* integer lattice utilities (row-style Hermite reduction) for monomial
  changes of coordinates.

Vectors are tuples or lists of ``Fraction``; matrices are lists of rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ConsistencyCheckError

Vec = tuple[Fraction, ...]


def _as_vec(v) -> Vec:
    return tuple(Fraction(x) for x in v)


# ---------------------------------------------------------------------------
# dense RREF and friends


def rref(rows: list) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    mat = [list(_as_vec(r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    for r in mat:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def echelon_basis(vectors: list) -> list[Vec]:
    """Canonical RREF basis of the span of the given vectors."""
    basis, _ = rref(list(vectors))
    return basis


def rank(vectors: list) -> int:
    return len(echelon_basis(vectors))


def subspace_sum(a: list[Vec], b: list[Vec]) -> list[Vec]:
    return echelon_basis(list(a) + list(b))


def nullspace(rows: list) -> list[Vec]:
    """Basis of {x : rows . x = 0}."""
    mat = [list(_as_vec(r)) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    red, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for rrow, pc in zip(red, pivots):
            v[pc] = -rrow[fc]
        basis.append(tuple(v))
    return basis


def subspace_intersection(a: list[Vec], b: list[Vec]) -> list[Vec]:
    """Basis of span(a) & span(b)."""
    a = [_as_vec(v) for v in a]
    b = [_as_vec(v) for v in b]
    if not a or not b:
        return []
    n = len(a[0])
    # columns: coefficients on a, then on b; rows: one per ambient coordinate
    rows = []
    for k in range(n):
        rows.append([v[k] for v in a] + [-w[k] for w in b])
    inter = []
    for sol in nullspace(rows):
        coeffs = sol[: len(a)]
        vec = tuple(
            sum((c * v[k] for c, v in zip(coeffs, a)), Fraction(0)) for k in range(n)
        )
        if any(x != 0 for x in vec):
            inter.append(vec)
    return echelon_basis(inter)


def solve_linear(rows: list, rhs: list) -> tuple[Vec, list[Vec]] | None:
    """Solve rows . x = rhs.

    Returns (particular solution with free variables at 0, nullspace basis),
    or None when inconsistent.
    """
    mat = [list(_as_vec(r)) for r in rows]
    if not mat:
        return (), []
    ncols = len(mat[0])
    aug = [row + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None  # pivot in the constant column
    x = [Fraction(0)] * ncols
    for rrow, pc in zip(red, pivots):
        x[pc] = rrow[-1]
    null = nullspace(mat)
    return tuple(x), null


def mat_vec(m: list, v) -> Vec:
    v = _as_vec(v)
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m)


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility with exact witnesses

# A constraint is (coeffs, rhs, strict) meaning  sum(coeffs * x) >= rhs,
# with > instead of >= when strict is True.
Constraint = tuple[Vec, Fraction, bool]


def _normalize(c: Constraint) -> Constraint | None:
    """Scale to coprime integers; None means trivially true."""
    coeffs, rhs, strict = c
    nums = [x for x in coeffs] + [rhs]
    den = 1
    for x in nums:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in nums]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    coeffs = tuple(Fraction(x) for x in ints[:-1])
    rhs = Fraction(ints[-1])
    if all(x == 0 for x in coeffs):
        if rhs < 0 or (rhs == 0 and not strict):
            return None  # always satisfied
        return (coeffs, rhs, strict)  # unsatisfiable marker, kept for the check
    return (coeffs, rhs, strict)


def _eliminate(constraints: list[Constraint], k: int) -> list[Constraint] | None:
    """Project out variable k.  Returns None on detected infeasibility."""
    zero, lower, upper = [], [], []
    for coeffs, rhs, strict in constraints:
        ck = coeffs[k]
        if ck == 0:
            zero.append((coeffs, rhs, strict))
        elif ck > 0:
            lower.append((coeffs, rhs, strict))
        else:
            upper.append((coeffs, rhs, strict))
    out = set()
    for c in zero:
        n = _normalize(c)
        if n is not None:
            if all(x == 0 for x in n[0]) and (n[1] > 0 or (n[1] == 0 and n[2])):
                return None
            out.add(n)
    for lc, lrhs, lstrict in lower:
        for uc, urhs, ustrict in upper:
            a, b = lc[k], -uc[k]
            comb = tuple(b * x + a * y for x, y in zip(lc, uc))
            rhs = b * lrhs + a * urhs
            n = _normalize((comb, rhs, lstrict or ustrict))
            if n is None:
                continue
            if all(x == 0 for x in n[0]) and (n[1] > 0 or (n[1] == 0 and n[2])):
                return None
            out.add(n)
    return list(out)


def feasible_point(constraints: list, nvars: int) -> list[Fraction] | None:
    """Exact witness for a system of (strict) linear inequalities, or None.

    Each constraint is (coeffs, rhs, strict) with the meaning described
    above.  Equalities should be passed as a >=/<= pair.
    """
    system: list[Constraint] = []
    for coeffs, rhs, strict in constraints:
        n = _normalize((_as_vec(coeffs), Fraction(rhs), bool(strict)))
        if n is not None:
            system.append(n)
    stages = [system]
    for k in range(nvars - 1, -1, -1):
        nxt = _eliminate(stages[-1], k)
        if nxt is None:
            return None
        stages.append(nxt)
    # stages[i] eliminated the last i variables; stages[nvars] is constants
    for coeffs, rhs, strict in stages[-1]:
        if rhs > 0 or (rhs == 0 and strict):
            return None
    point: list[Fraction] = [Fraction(0)] * nvars
    for k in range(nvars):
        sys_k = stages[nvars - 1 - k]  # variables 0..k still present
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, rhs, strict in sys_k:
            ck = coeffs[k]
            if ck == 0:
                continue
            rest = sum((coeffs[i] * point[i] for i in range(k)), Fraction(0))
            bound = (rhs - rest) / ck
            if ck > 0:
                if lo is None or bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict
            else:
                if hi is None or bound < hi or (bound == hi and strict):
                    hi, hi_strict = bound, strict
        if lo is None and hi is None:
            point[k] = Fraction(0)
        elif lo is None:
            point[k] = hi - 1
        elif hi is None:
            point[k] = lo + 1
        elif lo < hi:
            point[k] = (lo + hi) / 2
        elif lo == hi and not lo_strict and not hi_strict:
            point[k] = lo
        else:  # pragma: no cover - contradicts FM feasibility
            raise ConsistencyCheckError("Fourier-Motzkin back-substitution failed")
    for coeffs, rhs, strict in system:
        val = sum((c * x for c, x in zip(coeffs, point)), Fraction(0))
        if not (val > rhs or (val == rhs and not strict)):
            raise ConsistencyCheckError("feasibility witness violates a constraint")
    return point


# ---------------------------------------------------------------------------
# integer lattices


def hermite_basis(rows: list) -> list[tuple[int, ...]]:
    """Row-style Hermite-type basis of the lattice spanned by integer rows."""
    mat = [list(int(x) for x in r) for r in rows if any(x != 0 for x in r)]
    if not mat:
        return []
    ncols = len(mat[0])
    basis: list[list[int]] = []
    r = 0
    work = [row[:] for row in mat]
    for c in range(ncols):
        idx = [i for i in range(r, len(work)) if work[i][c] != 0]
        if not idx:
            continue
        # euclidean sweep: leave one row with the column gcd
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(work[i][c]))
            i0 = idx[0]
            for i in idx[1:]:
                q = work[i][c] // work[i0][c]
                work[i] = [a - q * b for a, b in zip(work[i], work[i0])]
            idx = [i for i in idx if work[i][c] != 0]
        i0 = idx[0]
        work[r], work[i0] = work[i0], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        r += 1
    basis = [row for row in work[:r] if any(x != 0 for x in row)]
    return [tuple(row) for row in basis]


def lattice_coords(basis: list[tuple[int, ...]], v) -> tuple[int, ...] | None:
    """Integer coordinates of v in the given triangular lattice basis."""
    sol = solve_linear([[Fraction(x) for x in b] for b in zip(*basis)], list(v))
    if sol is None:
        return None
    coords, null = sol
    if null:  # basis not independent; should not happen for hermite output
        return None
    if any(c.denominator != 1 for c in coords):
        return None
    return tuple(int(c) for c in coords)
