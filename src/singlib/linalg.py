"""Exact linear algebra over the rationals.

Two layers, both float-free:

* one row-reduction kernel, ``Echelon``: fraction-free (Bareiss-style)
  elimination of sparse integer rows keyed by column, with the dense
  operations built on it (rank, echelon basis, and ``solve_linear``,
  which also returns a basis of the nullspace);
* integer lattice utilities (row-style Hermite reduction) for monomial
  changes of coordinates.

Dense vectors are tuples or lists of ints or ``Fraction``; matrices are
lists of rows.  ``echelon_basis`` returns int rows, ``solve_linear``
tuples of ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vec = tuple[int | Fraction, ...]


# ---------------------------------------------------------------------------
# fraction-free elimination


def int_row(row: dict) -> dict:
    """Scale a sparse rational row to integers by the lcm of its denominators,
    dropping zero entries."""
    den = 1
    for c in row.values():
        den = lcm(den, c.denominator)
    return {k: c.numerator * (den // c.denominator) for k, c in row.items() if c}


class Echelon:
    """Echelon form of sparse integer rows, kept fraction-free.

    A row is a dict from a key (a column index, a monomial, ...) to a
    nonzero int.  ``order`` is a sort key on keys (None: the keys' own
    order); a row's leading key is its smallest.  Every pivot row is stored
    under its leading key, and an inserted row is reduced against all pivots
    by integer cross-multiplication with the content stripped after each
    step, so no rational number ever appears.  The set of leading keys
    depends only on the span of the inserted rows.
    """

    def __init__(self, order=None):
        self.order = order
        self.pivots: dict = {}

    def _lead_hit(self, v: dict):
        """The smallest key of v that has a pivot row, or None."""
        pivots = self.pivots
        hits = [k for k in v if k in pivots]
        return min(hits, key=self.order) if hits else None

    def insert(self, v: dict) -> bool:
        """Fully reduce v and adjoin it as a new pivot row.  True if new."""
        pivots = self.pivots
        while (hit := self._lead_hit(v)) is not None:
            p = pivots[hit]
            a, b = v[hit], p[hit]
            g = gcd(a, b)
            fa, fb = b // g, a // g
            if fa < 0:
                fa, fb = -fa, -fb
            nv = {k: fa * c for k, c in v.items()}
            for k, c in p.items():
                nc = nv.get(k, 0) - fb * c
                if nc:
                    nv[k] = nc
                else:
                    nv.pop(k, None)
            content = 0
            for c in nv.values():
                content = gcd(content, c)
                if content == 1:
                    break
            v = {k: c // content for k, c in nv.items()} if content > 1 else nv
        if not v:
            return False
        lead = min(v, key=self.order)
        if v[lead] < 0:
            v = {k: -c for k, c in v.items()}
        pivots[lead] = v
        return True

    def normal_form(self, q: dict) -> dict:
        """The remainder of the rational row q after reduction by the pivots."""
        pivots = self.pivots
        v = {k: Fraction(c) for k, c in q.items() if c}
        while (hit := self._lead_hit(v)) is not None:
            p = pivots[hit]
            f = v[hit] / p[hit]
            for k, c in p.items():
                nc = v.get(k, 0) - f * c
                if nc:
                    v[k] = nc
                else:
                    v.pop(k, None)
        return v


# ---------------------------------------------------------------------------
# dense operations on the kernel


def _echelon(rows: list) -> tuple[Echelon, int]:
    """Echelon form of dense rows keyed by column index, and the column count."""
    ech = Echelon()
    if not rows:
        return ech, 0
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        ech.insert(int_row(dict(enumerate(r))))
    return ech, ncols


def echelon_basis(vectors: list) -> list[tuple[int, ...]]:
    """An echelon basis of the span: the int pivot rows by leading column.

    The rows are scaled to integers and not reduced above their pivots; no
    caller needs the reduced form, since every caller reads dimensions or
    applies a map to the basis.
    """
    ech, ncols = _echelon(list(vectors))
    basis = []
    for c in sorted(ech.pivots):
        row = [0] * ncols
        for j, x in ech.pivots[c].items():
            row[j] = x
        basis.append(tuple(row))
    return basis


def rank(vectors: list) -> int:
    return len(_echelon(list(vectors))[0].pivots)


def _back_substitute(pivots: dict, ncols: int, x: list[Fraction], rhs: bool) -> Vec:
    """Fill the pivot columns of x so that every pivot row holds.

    A pivot row reads sum_j row[j] x[j] = row[ncols] when ``rhs`` (the
    augmented column, absent meaning 0) and = 0 otherwise.  The free
    columns of x are left as given; each pivot column is solved for, last
    pivot first, so the solution is the unique one with those free values.
    """
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        s = Fraction(row.get(ncols, 0) if rhs else 0)
        for j, a in row.items():
            if c < j < ncols:
                s -= a * x[j]
        x[c] = s / row[c]
    return tuple(x)


def _null_basis(pivots: dict, ncols: int) -> list[Vec]:
    """One kernel vector per free column: 1 there, 0 at the other free ones."""
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            x = [Fraction(0)] * ncols
            x[fc] = Fraction(1)
            basis.append(_back_substitute(pivots, ncols, x, rhs=False))
    return basis


def solve_linear(rows: list, rhs: list) -> tuple[Vec, list[Vec]] | None:
    """Solve rows . x = rhs.

    Returns (particular solution with free variables at 0, nullspace basis),
    or None when inconsistent.  One elimination of the augmented matrix
    serves both: the pivot columns of an echelon form depend only on the
    row space, so the result is the same as from the reduced form.
    """
    if not rows:
        return (), []
    ncols = len(rows[0])
    ech, _ = _echelon([list(row) + [rhs[i]] for i, row in enumerate(rows)])
    if ncols in ech.pivots:
        return None  # pivot in the constant column
    x = _back_substitute(ech.pivots, ncols, [Fraction(0)] * ncols, rhs=True)
    return x, _null_basis(ech.pivots, ncols)


def mat_vec(m: list, v) -> Vec:
    return tuple(sum(map(mul, row, v)) for row in m)


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
        # reduce the rows above into [0, pivot): the basis depends on the lattice only
        for k in range(r):
            q = work[k][c] // work[r][c]
            work[k] = [a - q * b for a, b in zip(work[k], work[r])]
        r += 1
    basis = [row for row in work[:r] if any(x != 0 for x in row)]
    return [tuple(row) for row in basis]


def lattice_coords(basis: list[tuple[int, ...]], v) -> tuple[int, ...] | None:
    """Integer coordinates of v in a ``hermite_basis`` basis, or None off the lattice.

    Solved by substitution on the rows' increasing pivots, then recombined:
    a remainder left at a pivot stays in the residual.
    """
    residual = list(v)
    coords = []
    for row in basis:
        j = next(j for j, x in enumerate(row) if x)
        c = residual[j] // row[j]
        residual = [r - c * x for r, x in zip(residual, row)]
        coords.append(c)
    return None if any(residual) else tuple(coords)
