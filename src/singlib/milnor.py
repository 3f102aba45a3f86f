"""The Milnor algebra O/(df) as a finite-dimensional Q-vector space.

Everything is exact linear algebra on truncated jets.  Fix a local monomial
order (anti-graded: lower total degree means larger monomial).  For a
truncation level D, the span of all truncated monomial multiples of the
partial derivatives equals the degree-<=D slice of (df) + m^(D+1); row
reduction of that span yields a pivot set whose complement is the candidate
staircase.

Termination certificate: if every monomial of one total degree s <= D is a
pivot, then m^s lies in (df) + m^(s+1), hence in (df) + m^N for every N by
multiplying through, hence in (df) by the Krull intersection theorem.  Then
(df) + m^(D+1) = (df) and the level-D quotient is exactly O/(df): the
staircase is the true monomial basis and its size is the Milnor number.
If no level up to the degree cap certifies, the computation reports
NON_ISOLATED instead of looping.

Rows are kept as sparse integer dictionaries with content stripped after
every combination (fraction-free elimination); rational arithmetic appears
only when reducing a query polynomial to its normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from .errors import ConsistencyCheckError, PreconditionError
from .linalg import rank
from .poly import ExpVec, SparsePoly, partials

FINITE = "FINITE"
NON_ISOLATED = "NON_ISOLATED"
SMOOTH_POINT = "SMOOTH_POINT"


def negdegrevlex_key(m: ExpVec):
    """Sort key: ascending key = descending monomial in the local order."""
    return (sum(m), tuple(reversed(m)))


def negdeglex_key(m: ExpVec):
    return (sum(m), tuple(-e for e in m))


_ORDERS = {"negdegrevlex": negdegrevlex_key, "negdeglex": negdeglex_key}


@dataclass
class JetConfig:
    """Truncation schedule for the jet computation."""

    degree_cap: int | None = None  # default: 4 * max support degree
    start: int | None = None
    step: int = 4
    local_order: str = "negdegrevlex"


@dataclass
class JetBasisResult:
    status: str
    milnor_number: int | None
    staircase: frozenset[ExpVec]
    truncation_degree: int
    _reducer: "_Reducer | None" = field(default=None, repr=False, compare=False)

    @property
    def finite(self) -> bool:
        return self.status == FINITE


class _Reducer:
    """Echelonized sparse integer rows keyed by leading monomial."""

    def __init__(self, key):
        self.key = key
        self.pivots: dict[ExpVec, dict[ExpVec, int]] = {}
        # degree at which every monomial of that degree is known to reduce
        self.ideal_degree: int | None = None

    def _strip(self, v: dict[ExpVec, int]) -> dict[ExpVec, int]:
        g = 0
        for c in v.values():
            g = gcd(g, abs(c))
            if g == 1:
                return v
        if g > 1:
            return {m: c // g for m, c in v.items()}
        return v

    def insert(self, v: dict[ExpVec, int]) -> bool:
        """Fully reduce v and adjoin it as a new pivot row.  True if new."""
        pivots = self.pivots
        key = self.key
        while True:
            hit = None
            for m in v:
                if m in pivots and (hit is None or key(m) < key(hit)):
                    hit = m
            if hit is None:
                break
            p = pivots[hit]
            a, b = v[hit], p[hit]
            g = gcd(abs(a), abs(b))
            fa, fb = b // g, a // g
            if fa < 0:
                fa, fb = -fa, -fb
            nv = {m: fa * c for m, c in v.items()}
            for m, c in p.items():
                nc = nv.get(m, 0) - fb * c
                if nc:
                    nv[m] = nc
                elif m in nv:
                    del nv[m]
            v = self._strip(nv)
        if not v:
            return False
        lead = min(v, key=key)
        if v[lead] < 0:
            v = {m: -c for m, c in v.items()}
        pivots[lead] = v
        return True

    def normal_form(self, q: dict[ExpVec, Fraction]) -> dict[ExpVec, Fraction]:
        pivots = self.pivots
        key = self.key
        v = {m: Fraction(c) for m, c in q.items() if c}
        while True:
            hit = None
            for m in v:
                if m in pivots and (hit is None or key(m) < key(hit)):
                    hit = m
            if hit is None:
                return v
            p = pivots[hit]
            f = v[hit] / p[hit]
            for m, c in p.items():
                nc = v.get(m, Fraction(0)) - f * c
                if nc:
                    v[m] = nc
                elif m in v:
                    del v[m]


def _monomials_upto(n: int, d: int):
    """All exponent vectors in n variables of total degree <= d."""
    for deg in range(d + 1):
        for bars in combinations_with_replacement(range(n), deg):
            e = [0] * n
            for i in bars:
                e[i] += 1
            yield tuple(e)


def _monomials_of_degree(n: int, deg: int):
    for bars in combinations_with_replacement(range(n), deg):
        e = [0] * n
        for i in bars:
            e[i] += 1
        yield tuple(e)


def _int_rows(g: SparsePoly) -> dict[ExpVec, int]:
    den = 1
    for c in g.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return {e: int(c * den) for e, c in g.terms.items()}


def _build_level(gens: list[dict[ExpVec, int]], n: int, level: int, key) -> _Reducer:
    red = _Reducer(key)
    rows = []
    for g in gens:
        if not g:
            continue
        order = min(sum(e) for e in g)
        for m in _monomials_upto(n, level - order):
            row = {}
            for e, c in g.items():
                me = tuple(a + b for a, b in zip(m, e))
                if sum(me) <= level:
                    row[me] = c
            if row:
                rows.append(row)
    rows.sort(key=lambda r: key(min(r, key=key)))
    for row in rows:
        red.insert(row)
    return red


def _certified_degree(red: _Reducer, n: int, level: int) -> int | None:
    """Smallest s <= level with every degree-s monomial a pivot, if any."""
    pivots = red.pivots
    piv_degrees = sorted({sum(m) for m in pivots})
    for s in piv_degrees:
        if s > level:
            break
        if all(m in pivots for m in _monomials_of_degree(n, s)):
            return s
    return None


def milnor_basis(f: SparsePoly, config: JetConfig | None = None) -> JetBasisResult:
    """Milnor number and staircase monomial basis of O/(df).

    The result status is FINITE, SMOOTH_POINT (some partial derivative is a
    unit) or NON_ISOLATED (no truncation level up to the cap certified a
    finite quotient).  Batch callers branch on the status; nothing here
    raises once the germ preconditions hold.
    """
    if f.is_zero():
        raise PreconditionError("milnor_basis of the zero polynomial")
    if f.nvars < 1:
        raise PreconditionError("milnor_basis needs at least one variable")
    if f.constant_term() != 0:
        raise PreconditionError("germ must vanish at the origin")
    config = config or JetConfig()
    key = _ORDERS[config.local_order]
    n = f.nvars
    dfs = partials(f)
    if any(g.constant_term() != 0 for g in dfs):
        return JetBasisResult(SMOOTH_POINT, 0, frozenset(), 0)
    gens = [_int_rows(g) for g in dfs]
    cap = config.degree_cap if config.degree_cap is not None else 4 * f.total_degree()
    cap = max(cap, 2)
    level = config.start if config.start is not None else min(f.total_degree() + 2, cap)
    while True:
        red = _build_level(gens, n, level, key)
        s = _certified_degree(red, n, level)
        if s is not None:
            red.ideal_degree = s
            staircase = frozenset(
                m for m in _monomials_upto(n, s) if m not in red.pivots
            )
            return JetBasisResult(FINITE, len(staircase), staircase, level, red)
        if level >= cap:
            return JetBasisResult(NON_ISOLATED, None, frozenset(), level)
        level = min(level + config.step, cap)


def normal_form(
    p: SparsePoly, f: SparsePoly, basis: JetBasisResult | None = None,
    config: JetConfig | None = None,
) -> SparsePoly:
    """Unique representative of p mod (df) supported on the staircase.

    Monomials of degree >= the certified ideal degree lie in (df) and map to
    zero, so arbitrary-degree inputs are fine.  Passing a precomputed
    ``basis`` avoids re-running the jet reduction.
    """
    if basis is None:
        basis = milnor_basis(f, config)
    if not basis.finite:
        raise PreconditionError(f"normal_form requires a finite Milnor algebra ({basis.status})")
    red = basis._reducer
    if red is None or red.ideal_degree is None:
        raise ConsistencyCheckError("finite basis carries no certified reducer")
    q = {e: c for e, c in p.terms.items() if sum(e) < red.ideal_degree}
    nf = red.normal_form(q)
    if any(m not in basis.staircase for m in nf):
        raise ConsistencyCheckError("normal form leaves the staircase")
    return SparsePoly(p.nvars, nf)


def is_monomial_basis(
    f: SparsePoly, mons, basis: JetBasisResult | None = None,
    config: JetConfig | None = None,
) -> bool:
    """True iff ``mons`` induces a vector-space basis of O/(df)."""
    if basis is None:
        basis = milnor_basis(f, config)
    if not basis.finite:
        raise PreconditionError("is_monomial_basis requires a finite Milnor algebra")
    mons = [tuple(m) for m in mons]
    if len(set(mons)) != len(mons) or len(mons) != basis.milnor_number:
        return False
    coords = sorted(basis.staircase)
    index = {m: i for i, m in enumerate(coords)}
    vectors = []
    for m in mons:
        nf = normal_form(SparsePoly.monomial(f.nvars, m), f, basis=basis)
        row = [Fraction(0)] * len(coords)
        for e, c in nf.terms.items():
            row[index[e]] = c
        vectors.append(row)
    return rank(vectors) == basis.milnor_number
