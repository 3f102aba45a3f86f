"""The fragment of Brieskorn-lattice calculus the certificate pipeline uses.

For a germ f and a positive covector w, contraction of x^a omega_0 with the
weight vector field v_w = sum_i w_i x_i d/dx_i produces a primitive form
eta with d eta = <a+1, w> x^a omega_0, and the wedge identity

    df ^ iota_{v_w}(x^a omega_0) = (v_w . f) x^a omega_0

turns the inverse-integration rule into an exact polynomial rewrite: with
c = <a+1, w>,

    (c * dt^{-1} - t) [x^a omega_0] = [(v_w . f - f) x^a omega_0].

``euler_relation`` returns c and that remainder, re-deriving the wedge
identity symbolically on every call.  The remaining operations are the
filtration level of Taylor terms of a one-parameter deformation and exact
membership in a numerical monoid (the component-vanishing certificate).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ConsistencyCheckError
from .newton import NewtonPolyhedron, phi_value
from .poly import ExpVec, SparsePoly, weighted_degree


@dataclass(frozen=True)
class EulerRelation:
    """(c * dt^{-1} - t) [x^a omega_0] = [remainder * omega_0]."""

    c: Fraction
    remainder: SparsePoly


def _contraction_identity_holds(f: SparsePoly, a: ExpVec, w) -> bool:
    """Expand df ^ iota_{v_w}(x^a omega_0) and compare with (v_w.f) x^a omega_0.

    Both sides are coefficients of the volume form.  The wedge picks the
    i-th component of the contraction against df with sign (-1)^(i-1),
    cancelling the contraction signs, so the left side expands to
    sum_i (df/dx_i) w_i x_i x^a.
    """
    n = f.nvars
    xa = SparsePoly.monomial(n, a)
    lhs = SparsePoly.zero(n)
    for i in range(n):
        e = [0] * n
        e[i] = 1
        xi = SparsePoly.monomial(n, e)
        lhs = lhs + f.diff(i) * xi * Fraction(w[i]) * xa
    rhs = f.weighted_derivative(w) * xa
    return lhs == rhs


def euler_relation(f: SparsePoly, a, w) -> EulerRelation:
    """Inverse-integration rewrite of [x^a omega_0] along the weight field w."""
    a = tuple(int(e) for e in a)
    w = tuple(Fraction(x) for x in w)
    if len(a) != f.nvars or len(w) != f.nvars:
        raise ValueError("exponent and weights must match the variable count")
    if any(x <= 0 for x in w):
        raise ValueError("weights must be positive")
    if not _contraction_identity_holds(f, a, w):
        raise ConsistencyCheckError("contraction identity fails for this weight field")
    one = (1,) * f.nvars
    c = weighted_degree(tuple(ai + o for ai, o in zip(a, one)), w)
    xa = SparsePoly.monomial(f.nvars, a)
    remainder = (f.weighted_derivative(w) - f) * xa
    return EulerRelation(c, remainder)


def taylor_term_value(P: NewtonPolyhedron, deformation_monomial, r: int) -> Fraction:
    """Filtration level of the r-th Taylor term of the deformed volume class.

    The r-th term is dt^r [(deformation monomial)^r omega_0]; its level is
    phi(r*m + 1) minus r, each dt lowering the filtration by one.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    m = tuple(int(x) for x in deformation_monomial)
    if any(x < 0 for x in m):
        raise ValueError("deformation monomial must be non-negative")
    p = tuple(r * mi + 1 for mi in m)
    return phi_value(P, p) - r


def monoid_membership(x, gens) -> bool:
    """Exact membership of x in the additive monoid generated by gens.

    Denominators are cleared and the resulting integer coin problem is
    decided by dynamic programming over the target.
    """
    x = Fraction(x)
    gens = [Fraction(g) for g in gens]
    if any(g <= 0 for g in gens):
        raise ValueError("generators must be positive")
    if x < 0:
        return False
    if x == 0:
        return True
    den = x.denominator
    for g in gens:
        den = lcm(den, g.denominator)
    target = int(x * den)
    coins = sorted({int(g * den) for g in gens})
    if target > 10**7:
        raise ValueError("cleared target too large for exact DP")
    reachable = bytearray(target + 1)
    reachable[0] = 1
    for c in coins:
        for t in range(c, target + 1):
            if reachable[t - c]:
                reachable[t] = 1
    return bool(reachable[target])


EXCLUDED_BY_LEVEL = "EXCLUDED_BY_LEVEL"
EXCLUDED_BY_MONOID = "EXCLUDED_BY_MONOID"
POSSIBLE = "POSSIBLE"


@dataclass(frozen=True)
class ExclusionEntry:
    r: int
    level: Fraction
    verdict: str
    gap: Fraction | None  # beta0 - level when the level does not exceed


@dataclass(frozen=True)
class ExclusionReport:
    beta0: Fraction
    entries: tuple[ExclusionEntry, ...]

    def possible_at(self) -> tuple[int, ...]:
        return tuple(e.r for e in self.entries if e.verdict == POSSIBLE)


def component_exclusion(
    P: NewtonPolyhedron, deformation_monomial, beta0, gens, r_max: int
) -> ExclusionReport:
    """Which Taylor terms can contribute at level beta0.

    A term is excluded when its level already exceeds beta0, or when the
    defect beta0 - level is not a monoid combination of the generators.
    """
    beta0 = Fraction(beta0)
    entries = []
    for r in range(r_max + 1):
        v = taylor_term_value(P, deformation_monomial, r)
        if v > beta0:
            entries.append(ExclusionEntry(r, v, EXCLUDED_BY_LEVEL, None))
            continue
        gap = beta0 - v
        if monoid_membership(gap, gens):
            entries.append(ExclusionEntry(r, v, POSSIBLE, gap))
        else:
            entries.append(ExclusionEntry(r, v, EXCLUDED_BY_MONOID, gap))
    return ExclusionReport(beta0, tuple(entries))
