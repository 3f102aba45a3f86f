"""Singularity spectra and their queries.

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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    ConsistencyCheckError,
    NotWeightedHomogeneousError,
    PreconditionError,
    SpectrumCountMismatchError,
)
from .milnor import JetBasisResult, milnor_basis
from .newton import NewtonFlags, newton_flags, newton_polyhedron, phi_value
from .poly import SparsePoly, weighted_degree


@dataclass(frozen=True)
class Spectrum:
    """Sorted multiset of rationals in (0, nvars)."""

    values: tuple[Fraction, ...]
    nvars: int

    def __post_init__(self):
        vals = tuple(sorted(Fraction(v) for v in self.values))
        object.__setattr__(self, "values", vals)
        if any(v <= 0 or v >= self.nvars for v in vals):
            raise ValueError("spectral values must lie strictly inside (0, nvars)")

    def __len__(self):
        return len(self.values)

    def multiplicities(self) -> dict[Fraction, int]:
        return dict(Counter(self.values))

    def is_symmetric(self) -> bool:
        c = Counter(self.values)
        return all(c[v] == c[self.nvars - v] for v in c)

    def checksum(self) -> Fraction:
        return sum(self.values, Fraction(0))


def _validated(values, nvars: int, mu: int | None = None) -> Spectrum:
    s = Spectrum(tuple(values), nvars)
    if not s.is_symmetric():
        raise ConsistencyCheckError("spectrum symmetry violated")
    if 2 * s.checksum() != nvars * len(s):
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
    return _validated(values, f.nvars, basis.milnor_number)


def spectrum_newton_2d(
    f: SparsePoly,
    flags: NewtonFlags | None = None,
    basis: JetBasisResult | None = None,
) -> Spectrum:
    """Spectrum of a convenient nondegenerate germ in two variables."""
    if f.nvars != 2:
        raise PreconditionError("spectrum_newton_2d needs exactly two variables")
    if flags is None:
        flags = newton_flags(f)
    if not flags.convenient or flags.nondegenerate is not True:
        raise PreconditionError(
            f"need convenient nondegenerate input (convenient={flags.convenient}, "
            f"nondegenerate={flags.nondegenerate})"
        )
    P = newton_polyhedron(f)
    bound = max(max(e) for e in P.support)
    part1: list[Fraction] = []
    for p in product(range(1, bound + 1), repeat=2):
        v = phi_value(P, p)
        if v <= 1:
            part1.append(v)
    values = part1 + [2 - v for v in part1 if v < 1]
    if basis is None:
        basis = milnor_basis(f)
    if not basis.finite:
        raise PreconditionError(f"Milnor algebra not finite ({basis.status})")
    return _validated(values, 2, basis.milnor_number)


def thom_sebastiani(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Spectrum of a sum of germs in disjoint variables: all pairwise sums."""
    values = [a + b for a in s1.values for b in s2.values]
    return _validated(values, s1.nvars + s2.nvars)


# ---------------------------------------------------------------------------
# queries


def kth(s: Spectrum, k: int) -> Fraction:
    """k-th smallest spectral value, 1-indexed, counting multiplicity."""
    if not 1 <= k <= len(s):
        raise PreconditionError(f"k={k} out of range 1..{len(s)}")
    return s.values[k - 1]


def multiplicity(s: Spectrum, alpha) -> int:
    alpha = Fraction(alpha)
    return sum(1 for v in s.values if v == alpha)


def count_le(s: Spectrum, alpha) -> int:
    alpha = Fraction(alpha)
    return sum(1 for v in s.values if v <= alpha)


def eigenspace_dim(s: Spectrum, beta) -> int:
    """Number of distinct spectral values congruent to beta modulo 1.

    This realizes the dimension of the graded piece of the Gauss-Manin
    system at level beta as reported alongside the certificate: congruent
    values are counted once each (their multiset multiplicities are
    available through ``congruent_values``).
    """
    return len(congruent_values(s, beta))


def congruent_values(s: Spectrum, beta) -> dict[Fraction, int]:
    """The distinct values of s congruent to beta mod 1, with multiplicities."""
    beta = Fraction(beta)
    out: dict[Fraction, int] = {}
    for v in s.values:
        if (v - beta).denominator == 1:
            out[v] = out.get(v, 0) + 1
    return out
