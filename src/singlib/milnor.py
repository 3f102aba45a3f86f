"""The Milnor algebra O/(df) as a finite-dimensional Q-vector space.

Everything is exact linear algebra on truncated jets, under the local
monomial order negdegrevlex (anti-graded: lower total degree means larger
monomial).  For a truncation level D, the span of all truncated monomial
multiples of the partial derivatives equals the degree-<=D slice of
(df) + m^(D+1); row reduction of that span yields a pivot set whose
complement is the candidate staircase.

Termination certificate: if every monomial of one total degree s <= D is a
pivot, then m^s lies in (df) + m^(s+1), hence in (df) + m^N for every N by
multiplying through, hence in (df) by the Krull intersection theorem.  Then
(df) + m^(D+1) = (df) and the level-D quotient is exactly O/(df): the
staircase is the true monomial basis and its size is the Milnor number.

Stop rule: every degree below s holds a staircase monomial, so s <= mu, and
for an isolated zero of df, mu <= B = prod_i deg(df/dx_i) by Bezout's bound
for an isolated component (Fulton, *Intersection Theory*, 12.3).  So every
level >= B certifies an isolated germ, and NON_ISOLATED, reported only from
a level >= B, is a proof.  B is 0 when a partial is zero: f then does not
depend on that variable.  Levels are capped at 4d (d the degree of f) or at
the caller's ``jet_cap``.  At a cap below B the default cap moves up to B,
while a caller's cap raises ``PreconditionError`` (exit 2 in the CLI)
naming the cap and B: it spent the budget without deciding anything.

Level independence: the level-D span is the degree-<=D truncation of the
polynomial ideal (df), and truncation keeps the lowest-degree part that a
local order leads with.  So the pivots of degree <= D are exactly the
leading monomials of (df) of degree <= D, whatever D is (Greuel-Pfister,
*A Singular Introduction to Commutative Algebra*, 1.5-1.6).  The count
H(k) of staircase monomials of degree k is therefore final once built, and
every level >= s certifies the same degree s, staircase and normal forms.
A level that fails extrapolates H linearly to zero to choose the next one
(at least JET_STEP further, never past the cap).  The reported
``truncation_degree`` is the first level of the schedule d+2, d+2+JET_STEP,
... (clamped at the cap) that is >= s, computed from s rather than built,
so it does not depend on which levels were built.

Work bound: a level-D build lists all C(D+n, n) monomials of degree <= D in
n variables before it reduces anything.  A jump stops at the last level
whose build lists at most ``_MAX_JET_MONOMIALS`` (one million) monomials,
and ``truncation_degree`` does not depend on where it stopped.  A first
level past the bound, or that last level failing, raises
``PreconditionError`` before the monomials are listed, naming the level
that would be built and its count.  The largest build of the b <= 16 sweep lists 154,846.

Rows are sparse integer dictionaries keyed by monomials, reduced by the
fraction-free kernel ``linalg.Echelon`` under the int rank of each monomial
in the local order; rational arithmetic appears only when reducing a query
polynomial to its normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, prod
from operator import add, itemgetter

from .errors import ConsistencyCheckError, PreconditionError
from .linalg import Echelon, int_row
from .poly import ExpVec, SparsePoly, partials

FINITE = "FINITE"
NON_ISOLATED = "NON_ISOLATED"
SMOOTH_POINT = "SMOOTH_POINT"


def negdegrevlex_key(m: ExpVec):
    """Sort key: ascending key = descending monomial in the local order."""
    return (sum(m), tuple(reversed(m)))


# the most monomials one jet build may list
_MAX_JET_MONOMIALS = 1_000_000

# the first truncation level is the germ's degree d + 2; the reported level is
# on the schedule d + 2 + k * JET_STEP, and a jump goes at least JET_STEP further
JET_STEP = 4


@dataclass
class JetBasisResult:
    status: str
    milnor_number: int | None
    staircase: frozenset[ExpVec]
    # FINITE: the first level of the d+2, d+2+JET_STEP, ... schedule (clamped
    # at the cap) that is >= the certified degree; NON_ISOLATED: the cap, >= B
    truncation_degree: int
    _echelon: Echelon | None = field(default=None, repr=False, compare=False)
    # every monomial of this degree lies in (df)
    _ideal_degree: int | None = field(default=None, repr=False, compare=False)

    @property
    def finite(self) -> bool:
        return self.status == FINITE


def _monomials_of_degree(n: int, deg: int) -> list[ExpVec]:
    """All exponent vectors in n variables of total degree deg, lex-descending."""
    if n == 1:
        return [(deg,)]
    return [(i,) + rest for i in range(deg, -1, -1)
            for rest in _monomials_of_degree(n - 1, deg - i)]


def _extend_ranks(by_degree: list, rank: dict, n: int, level: int) -> None:
    """Append the monomials of each degree up to ``level`` not yet listed.

    ``by_degree[k]`` holds the degree-k monomials sorted in the local order,
    and ``rank`` numbers all listed monomials in that order, so an int
    comparison of ranks is a comparison of monomials.
    """
    for k in range(len(by_degree), level + 1):
        mons = sorted(_monomials_of_degree(n, k), key=negdegrevlex_key)
        by_degree.append(mons)
        rank.update(zip(mons, range(len(rank), len(rank) + len(mons))))


def _build_level(gens: list[dict[ExpVec, int]], by_degree: list, rank: dict,
                 level: int) -> Echelon:
    rows = []
    for g in gens:
        if not g:
            continue
        terms = [(e, sum(e), c) for e, c in g.items()]
        order = min(de for _, de, _ in terms)
        for k in range(level - order + 1):
            for m in by_degree[k]:
                row = {tuple(map(add, m, e)): c for e, de, c in terms if k + de <= level}
                rows.append((min(map(rank.__getitem__, row)), row))
    rows.sort(key=itemgetter(0))
    red = Echelon(rank.__getitem__)
    for _, row in rows:
        red.insert(row)
    return red


def milnor_basis(f: SparsePoly, jet_cap: int | None = None) -> JetBasisResult:
    """Milnor number and staircase monomial basis of O/(df).

    The result status is FINITE, SMOOTH_POINT (some partial derivative is a
    unit) or NON_ISOLATED (a level >= the Bezout bound B did not certify).
    ``jet_cap`` is a work budget.  A cap below B that certifies nothing, or
    a level over the monomial bound, raises ``PreconditionError``.
    """
    if f.is_zero():
        raise PreconditionError("milnor_basis of the zero polynomial")
    if f.nvars < 1:
        raise PreconditionError("milnor_basis needs at least one variable")
    if f.constant_term() != 0:
        raise PreconditionError("germ must vanish at the origin")
    if jet_cap is not None and jet_cap < 1:
        raise PreconditionError(f"jet degree cap must be at least 1, got {jet_cap}")
    n = f.nvars
    dfs = partials(f)
    if any(g.constant_term() != 0 for g in dfs):
        return JetBasisResult(SMOOTH_POINT, 0, frozenset(), 0)
    gens = [int_row(g.terms) for g in dfs]
    d = f.total_degree()
    bound = prod(max(g.total_degree(), 0) for g in dfs)  # B; mu <= B if isolated
    cap = max(4 * d if jet_cap is None else jet_cap, 2)
    by_degree: list = []
    rank: dict = {}
    level = min(d + 2, cap)
    while True:
        count = comb(level + n, n)
        if count > _MAX_JET_MONOMIALS:
            raise PreconditionError(
                f"jet level {level} would list {count} monomials, "
                f"over the bound of {_MAX_JET_MONOMIALS}"
            )
        _extend_ranks(by_degree, rank, n, level)
        red = _build_level(gens, by_degree, rank, level)
        # holes[k]: how many staircase monomials have degree k, the same at every level >= k
        holes = [sum(m not in red.pivots for m in mons) for mons in by_degree]
        if 0 in holes:
            s = holes.index(0)
            staircase = frozenset(
                m for mons in by_degree[:s] for m in mons if m not in red.pivots
            )
            steps = max(0, -((d + 2 - s) // JET_STEP))
            reported = min(d + 2 + JET_STEP * steps, cap)
            return JetBasisResult(FINITE, len(staircase), staircase, reported, red, s)
        if level >= cap:
            if cap >= bound:
                return JetBasisResult(NON_ISOLATED, None, frozenset(), level)
            if jet_cap is not None:
                raise PreconditionError(
                    f"jet cap {jet_cap} stops at level {level} without a certificate; an "
                    f"isolated germ certifies by level {bound}, its Bezout bound")
            cap = bound
        # extrapolate the shrinking staircase to the degree where it runs out
        step, drop = JET_STEP, holes[level - 1] - holes[level]
        if drop > 0:
            step = max(JET_STEP, -(-holes[level] // drop))
        # stop at the last level within the monomial bound; past it from there, raise above
        lo, hi = level, min(level + step, cap) + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if comb(mid + n, n) <= _MAX_JET_MONOMIALS else (lo, mid)
        level = max(lo, level + 1)


def normal_form(p: SparsePoly, f: SparsePoly, basis: JetBasisResult | None = None) -> SparsePoly:
    """Unique representative of p mod (df) supported on the staircase.

    Monomials of degree >= the certified ideal degree lie in (df) and map to
    zero, so arbitrary-degree inputs are fine.  Passing a precomputed
    ``basis`` avoids re-running the jet reduction.
    """
    if basis is None:
        basis = milnor_basis(f)
    if not basis.finite:
        raise PreconditionError(f"normal_form requires a finite Milnor algebra ({basis.status})")
    red, s = basis._echelon, basis._ideal_degree
    if red is None or s is None:
        raise ConsistencyCheckError("finite basis carries no certified echelon form")
    nf = red.normal_form({e: c for e, c in p.terms.items() if sum(e) < s})
    if any(m not in basis.staircase for m in nf):
        raise ConsistencyCheckError("normal form leaves the staircase")
    return SparsePoly(p.nvars, nf)


def is_monomial_basis(f: SparsePoly, mons, basis: JetBasisResult | None = None) -> bool:
    """True iff ``mons`` induces a vector-space basis of O/(df)."""
    if basis is None:
        basis = milnor_basis(f)
    if not basis.finite:
        raise PreconditionError("is_monomial_basis requires a finite Milnor algebra")
    mons = [tuple(m) for m in mons]
    if len(set(mons)) != len(mons) or len(mons) != basis.milnor_number:
        return False
    ech = Echelon()
    for m in mons:
        ech.insert(int_row(normal_form(SparsePoly.monomial(f.nvars, m), f, basis=basis).terms))
    return len(ech.pivots) == basis.milnor_number
