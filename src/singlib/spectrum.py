"""Singularity spectra and their queries.

A spectrum is stored as one denominator ``den`` (the lcm of the reduced
value denominators) and the sorted int numerators ``nums``; the rationals
themselves are derived on demand.  The Newton and Thom-Sebastiani
constructors, the checks below and every query work on those ints, and
the queries bisect the sorted numerators.

Three constructors, each guarded by the cardinality |Sp| = mu:

* ``spectrum_wh``: weighted homogeneous germs; each staircase monomial a
  contributes <a + (1,..,1), w>.
* ``spectrum_newton_2d``: two-variable convenient nondegenerate germs; the
  part in (0, 1] is the multiset of Newton filtration values phi(p) over
  positive lattice points with phi(p) <= 1, the rest is its reflection
  alpha -> 2 - alpha of the part below 1.
* ``thom_sebastiani``: multiset of pairwise sums for a sum of germs in
  disjoint variables.

Every constructed spectrum satisfies: values strictly inside (0, n),
multiplicity(alpha) = multiplicity(n - alpha), and sum = n * mu / 2.  The
constructors check all three.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm

from .errors import (
    ConsistencyCheckError,
    NotWeightedHomogeneousError,
    PreconditionError,
    SpectrumCountMismatchError,
)
from .milnor import JetBasisResult, milnor_basis
from .newton import NewtonFlags, NewtonPolyhedron, newton_flags, newton_polyhedron
from .poly import SparsePoly, weighted_degree


@dataclass(frozen=True, init=False)
class Spectrum:
    """Sorted multiset of rationals in (0, nvars): ``nums[i] / den``.

    ``den`` is the lcm of the reduced denominators of the values, so equal
    multisets have equal fields.
    """

    nums: tuple[int, ...]
    den: int
    nvars: int

    def __init__(self, values, nvars: int):
        vals = [Fraction(v) for v in values]
        den = lcm(*(v.denominator for v in vals))
        self._set([v.numerator * (den // v.denominator) for v in vals], den, nvars)

    @classmethod
    def from_ints(cls, nums, den: int, nvars: int) -> "Spectrum":
        """The spectrum of the values ``x / den`` for x in nums."""
        s = object.__new__(cls)
        s._set(nums, den, nvars)
        return s

    def _set(self, nums, den: int, nvars: int):
        g = gcd(den, *nums)
        nums = sorted(x // g for x in nums)
        den //= g
        if nums and (nums[0] <= 0 or nums[-1] >= nvars * den):
            raise ValueError("spectral values must lie strictly inside (0, nvars)")
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nvars", nvars)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __len__(self):
        return len(self.nums)

    def multiplicities(self) -> dict[Fraction, int]:
        return {Fraction(x, self.den): m for x, m in Counter(self.nums).items()}

    def is_symmetric(self) -> bool:
        top, nums = self.nvars * self.den, self.nums
        return all(x + y == top for x, y in zip(nums, reversed(nums)))

    def checksum(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)


def _validated(s: Spectrum, mu: int | None = None) -> Spectrum:
    if not s.is_symmetric():
        raise ConsistencyCheckError("spectrum symmetry violated")
    if 2 * sum(s.nums) != s.nvars * s.den * len(s):
        raise ConsistencyCheckError("spectrum sum rule violated")
    if mu is not None and len(s) != mu:
        raise SpectrumCountMismatchError(
            f"spectrum has {len(s)} values, Milnor number is {mu}"
        )
    return s


def spectrum_wh(f: SparsePoly, w, basis: JetBasisResult | None = None) -> Spectrum:
    """Spectrum of a weighted homogeneous germ with weights w."""
    w = tuple(Fraction(x) for x in w)
    if len(w) != f.nvars or any(x <= 0 for x in w):
        raise NotWeightedHomogeneousError("weights must be positive, one per variable")
    for e in f.support():
        if weighted_degree(e, w) != 1:
            raise NotWeightedHomogeneousError(
                f"monomial {e} has weighted degree {weighted_degree(e, w)} != 1"
            )
    if basis is None:
        basis = milnor_basis(f)
    if not basis.finite:
        raise PreconditionError(f"Milnor algebra not finite ({basis.status})")
    one = (1,) * f.nvars
    values = [
        weighted_degree(tuple(a + b for a, b in zip(e, one)), w) for e in basis.staircase
    ]
    return _validated(Spectrum(values, f.nvars), basis.milnor_number)


def spectrum_newton_2d(
    f: SparsePoly | NewtonPolyhedron,
    flags: NewtonFlags | None = None,
    basis: JetBasisResult | None = None,
) -> Spectrum:
    """Spectrum of a convenient nondegenerate germ in two variables, or of its polyhedron."""
    if f.nvars != 2:
        raise PreconditionError("spectrum_newton_2d needs exactly two variables")
    P = newton_polyhedron(f)
    if flags is None:
        flags = newton_flags(P)
    if not (flags.convenient and flags.nondegenerate):
        raise PreconditionError(
            f"need convenient nondegenerate input (convenient={flags.convenient}, "
            f"nondegenerate={flags.nondegenerate})"
        )
    if not P.forms:
        raise PreconditionError("polyhedron has no compact facets")
    # phi(p) = min over the integer forms at p, divided by P.den
    D = P.den
    bound = max(max(e) for e in P.support)
    part1 = []
    for x, y in product(range(1, bound + 1), repeat=2):
        v = min(a * x + b * y for a, b in P.forms)
        if v <= D:
            part1.append(v)
    nums = part1 + [2 * D - v for v in part1 if v < D]
    if basis is None:
        basis = milnor_basis(P.germ)
    if not basis.finite:
        raise PreconditionError(f"Milnor algebra not finite ({basis.status})")
    return _validated(Spectrum.from_ints(nums, D, 2), basis.milnor_number)


def thom_sebastiani(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Spectrum of a sum of germs in disjoint variables: all pairwise sums."""
    den = lcm(s1.den, s2.den)
    k1, k2 = den // s1.den, den // s2.den
    b = [y * k2 for y in s2.nums]
    nums = [x * k1 + y for x in s1.nums for y in b]
    return _validated(Spectrum.from_ints(nums, den, s1.nvars + s2.nvars))


# ---------------------------------------------------------------------------
# queries


def _count(nums, x: int) -> int:
    return bisect_right(nums, x) - bisect_left(nums, x)


def kth(s: Spectrum, k: int) -> Fraction:
    """k-th smallest spectral value, 1-indexed, counting multiplicity."""
    if not 1 <= k <= len(s):
        raise PreconditionError(f"k={k} out of range 1..{len(s)}")
    return Fraction(s.nums[k - 1], s.den)


def multiplicity(s: Spectrum, alpha) -> int:
    alpha = Fraction(alpha)
    if s.den % alpha.denominator:
        return 0
    return _count(s.nums, alpha.numerator * (s.den // alpha.denominator))


def count_le(s: Spectrum, alpha) -> int:
    alpha = Fraction(alpha)
    return bisect_right(s.nums, alpha.numerator * s.den // alpha.denominator)


def eigenspace_dim(s: Spectrum, beta) -> int:
    """Number of distinct spectral values congruent to beta modulo 1.

    This realizes the dimension of the graded piece of the Gauss-Manin
    system at level beta as reported alongside the certificate: congruent
    values are counted once each (their multiset multiplicities are
    available through ``congruent_values``).
    """
    return len(congruent_values(s, beta))


def congruent_values(s: Spectrum, beta) -> dict[Fraction, int]:
    """The distinct values of s congruent to beta mod 1, with multiplicities.

    A value x / den is congruent to beta iff x = beta * den mod den, which
    needs beta's denominator to divide den; the candidates x are then one
    residue plus the multiples of den below nvars * den.
    """
    beta = Fraction(beta)
    if s.den % beta.denominator:
        return {}
    residue = beta.numerator * (s.den // beta.denominator) % s.den
    out: dict[Fraction, int] = {}
    for x in range(residue, s.nvars * s.den, s.den):
        m = _count(s.nums, x)
        if m:
            out[Fraction(x, s.den)] = m
    return out
