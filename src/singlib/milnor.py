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
n variables before it reduces anything.  Past ``_MAX_JET_MONOMIALS`` (one
million) ``milnor_basis`` raises ``PreconditionError`` before it allocates
them, naming the level and the count.  The largest build of the b <= 16
family sweep lists 154,846 monomials.

Rows are sparse integer dictionaries keyed by monomials, reduced by the
fraction-free kernel ``linalg.Echelon`` under the int rank of each monomial
in the local order; rational arithmetic appears only when reducing a query
polynomial to its normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
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


def negdeglex_key(m: ExpVec):
    return (sum(m), tuple(-e for e in m))


_ORDERS = {"negdegrevlex": negdegrevlex_key, "negdeglex": negdeglex_key}


# the most monomials one jet build may list
_MAX_JET_MONOMIALS = 1_000_000

# the first truncation level is the germ's degree d + 2; the reported level is
# on the schedule d + 2 + k * JET_STEP, and a jump goes at least JET_STEP further
JET_STEP = 4


@dataclass
class JetConfig:
    """Truncation schedule for the jet computation."""

    degree_cap: int | None = None  # default: 4 * max support degree
    local_order: str = "negdegrevlex"

    def __post_init__(self):
        if self.degree_cap is not None and self.degree_cap < 1:
            raise PreconditionError(f"jet degree cap must be at least 1, got {self.degree_cap}")


@dataclass
class JetBasisResult:
    status: str
    milnor_number: int | None
    staircase: frozenset[ExpVec]
    # FINITE: the first level of the d+2, d+2+JET_STEP, ... schedule (clamped
    # at the cap) that is >= the certified degree; NON_ISOLATED: the cap
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


def _extend_ranks(by_degree: list, rank: dict, n: int, level: int, key) -> None:
    """Append the monomials of each degree up to ``level`` not yet listed.

    ``by_degree[k]`` holds the degree-k monomials sorted in the local order,
    and ``rank`` numbers all listed monomials in that order, so an int
    comparison of ranks is a comparison of monomials.
    """
    for k in range(len(by_degree), level + 1):
        mons = sorted(_monomials_of_degree(n, k), key=key)
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
    d = f.total_degree()
    cap = config.degree_cap if config.degree_cap is not None else 4 * d
    cap = max(cap, 2)
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
        _extend_ranks(by_degree, rank, n, level, key)
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
            return JetBasisResult(NON_ISOLATED, None, frozenset(), level)
        # extrapolate the shrinking staircase to the degree where it runs out
        step, drop = JET_STEP, holes[level - 1] - holes[level]
        if drop > 0:
            step = max(JET_STEP, -(-holes[level] // drop))
        level = min(level + step, cap)


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
