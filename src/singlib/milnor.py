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

Rows are sparse integer dictionaries reduced by the fraction-free kernel
``linalg.Echelon``; rational arithmetic appears only when reducing a query
polynomial to its normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .errors import ConsistencyCheckError, PreconditionError
from .linalg import Echelon, int_row
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


# the first truncation level is the germ's degree + 2; later ones add JET_STEP
JET_STEP = 4


@dataclass
class JetConfig:
    """Truncation schedule for the jet computation."""

    degree_cap: int | None = None  # default: 4 * max support degree
    local_order: str = "negdegrevlex"


@dataclass
class JetBasisResult:
    status: str
    milnor_number: int | None
    staircase: frozenset[ExpVec]
    truncation_degree: int
    _echelon: Echelon | None = field(default=None, repr=False, compare=False)
    # every monomial of this degree lies in (df)
    _ideal_degree: int | None = field(default=None, repr=False, compare=False)

    @property
    def finite(self) -> bool:
        return self.status == FINITE


def _monomials_of_degree(n: int, deg: int):
    """All exponent vectors in n variables of total degree deg."""
    for bars in combinations_with_replacement(range(n), deg):
        e = [0] * n
        for i in bars:
            e[i] += 1
        yield tuple(e)


def _monomials_upto(n: int, d: int):
    """All exponent vectors in n variables of total degree <= d."""
    for deg in range(d + 1):
        yield from _monomials_of_degree(n, deg)


def _build_level(gens: list[dict[ExpVec, int]], n: int, level: int, key) -> Echelon:
    red = Echelon(key)
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


def _certified_degree(red: Echelon, n: int, level: int) -> int | None:
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
    gens = [int_row(g.terms) for g in dfs]
    cap = config.degree_cap if config.degree_cap is not None else 4 * f.total_degree()
    cap = max(cap, 2)
    level = min(f.total_degree() + 2, cap)
    while True:
        red = _build_level(gens, n, level, key)
        s = _certified_degree(red, n, level)
        if s is not None:
            staircase = frozenset(
                m for m in _monomials_upto(n, s) if m not in red.pivots
            )
            return JetBasisResult(FINITE, len(staircase), staircase, level, red, s)
        if level >= cap:
            return JetBasisResult(NON_ISOLATED, None, frozenset(), level)
        level = min(level + JET_STEP, cap)


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
    red, s = basis._echelon, basis._ideal_degree
    if red is None or s is None:
        raise ConsistencyCheckError("finite basis carries no certified echelon form")
    nf = red.normal_form({e: c for e, c in p.terms.items() if sum(e) < s})
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
    ech = Echelon()
    for m in mons:
        ech.insert(int_row(normal_form(SparsePoly.monomial(f.nvars, m), f, basis=basis).terms))
    return len(ech.pivots) == basis.milnor_number
