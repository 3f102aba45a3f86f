"""Certificate-level checkers for reduced b-function data.

The central object is the filtered nilpotent module (FNM): a finite
dimensional rational vector space M with a nilpotent operator N and an
exhaustive increasing filtration G preserved by N, G_j = 0 for j < 0.  The
checkers answer, entirely by exact subspace arithmetic on image chains
(the echelon bases of V, N(V), N^2(V), ... down to 0 for an N-stable V,
each one N applied to the previous basis; no power of N is ever formed):

* the dimensions of the graded pieces Gr^G_j M and Gr^G_j (M / NM), the
  induced nilpotency order on each graded piece, and the global nilpotency
  order of N;
* strict compatibility of N with G (N(M) & G_j = N(G_j) for all j);
* whether a nonzero graded piece survives in the N-coinvariants (the
  positive / negative verdict for the generated-module question), with the
  maximal-multiplicity shortcut reported alongside;
* the Jordan types of N on M and of the induced operator on the direct sum
  of graded pieces, whose disagreement is exactly failure of strictness of
  some power of N.

A reduced b-function is stored through the positive numbers alpha with
btilde(-alpha) = 0; for a weighted homogeneous germ these are the distinct
spectral values, each simple.  The spectral matching estimate is solved as
an exact min-cost bipartite assignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyCheckError, InvalidFNMError, NotARootError, PreconditionError
from .linalg import Vec, echelon_basis, mat_vec, rank, subspace_sum
from .matching import min_cost_perfect_matching
from .ratio import rat_from_str, rat_to_str
from .spectrum import Spectrum

POSITIVE = "POSITIVE"
NEGATIVE = "NEGATIVE"


# ---------------------------------------------------------------------------
# reduced b-function data


@dataclass(frozen=True)
class BPoly:
    """Roots of the reduced b-function, stored as positive numbers alpha."""

    roots: tuple[tuple[Fraction, int], ...]  # (alpha, multiplicity), sorted
    nvars: int

    def __post_init__(self):
        rts = tuple(sorted((Fraction(a), int(m)) for a, m in self.roots))
        object.__setattr__(self, "roots", rts)
        for a, m in rts:
            if not (0 < a < self.nvars):
                raise ValueError(f"root {a} outside (0, {self.nvars})")
            if m < 1:
                raise ValueError("multiplicities must be positive")


def btilde_wh(s: Spectrum) -> BPoly:
    """Reduced b-function of a weighted homogeneous germ from its spectrum.

    The action being semisimple, the minimal polynomial has each distinct
    spectral value as a simple root.
    """
    distinct = sorted(set(s.values))
    return BPoly(tuple((a, 1) for a in distinct), s.nvars)


# ---------------------------------------------------------------------------
# spectral matching estimates


@dataclass(frozen=True)
class AnnotatedSpectrum:
    """Spectrum with one non-negative integer annotation per element."""

    values: Spectrum
    r_annotations: tuple[int, ...] = ()

    def __post_init__(self):
        r = self.r_annotations or (0,) * len(self.values)
        r = tuple(int(x) for x in r)
        if len(r) != len(self.values):
            raise ValueError("need one annotation per spectral value")
        if any(x < 0 for x in r):
            raise ValueError("annotations must be non-negative")
        object.__setattr__(self, "r_annotations", r)


def delta_matching(a: AnnotatedSpectrum, b) -> tuple[int, ...] | None:
    """Permutation sigma with alpha_k - r_k - beta_sigma(k) a non-negative
    integer for every k, or None.

    ``b`` is a multiset of rationals (any iterable), used in sorted order.
    Among admissible matchings the one minimizing the total defect is
    returned (exact integer min-cost assignment), making output canonical.
    """
    alphas = a.values.values
    betas = tuple(sorted(Fraction(x) for x in b))
    if len(alphas) != len(betas):
        raise PreconditionError("spectra must have equal cardinality")
    n = len(alphas)
    if n == 0:
        return ()
    cost: list[list[int | None]] = []
    for k in range(n):
        row: list[int | None] = []
        target = alphas[k] - a.r_annotations[k]
        for l in range(n):
            d = target - betas[l]
            row.append(int(d) if d.denominator == 1 and d >= 0 else None)
        cost.append(row)
    res = min_cost_perfect_matching(cost)
    if res is None:
        return None
    sigma, _ = res
    for k, l in enumerate(sigma):  # re-verify the defect constraints post hoc
        d = alphas[k] - a.r_annotations[k] - betas[l]
        if d.denominator != 1 or d < 0:
            raise ConsistencyCheckError(f"matched defect {d} is not a non-negative integer")
    return tuple(sigma)


# ---------------------------------------------------------------------------
# filtered nilpotent modules


@dataclass(frozen=True)
class FilteredNilpotentModule:
    """(M, N, G): nilpotent N on Q^dim with an N-stable filtration G."""

    dim: int
    N: tuple[tuple[Fraction, ...], ...]
    # filtration jumps: (level, spanning vectors); G_j = span of levels <= j
    G: tuple[tuple[int, tuple[Vec, ...]], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidFNMError("dim must be positive")
        N = tuple(tuple(Fraction(x) for x in row) for row in self.N)
        if len(N) != self.dim or any(len(r) != self.dim for r in N):
            raise InvalidFNMError("N must be dim x dim")
        G = tuple(
            (int(lvl), tuple(tuple(Fraction(x) for x in v) for v in vecs))
            for lvl, vecs in self.G
        )
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "G", tuple(sorted(G)))
        self._validate()

    def _validate(self):
        if any(len(v) != self.dim for _, vecs in self.G for v in vecs):
            raise InvalidFNMError("spanning vectors must have length dim")
        if not self.G:
            raise InvalidFNMError("filtration must have at least one level")
        if any(lvl < 0 for lvl, _ in self.G):
            raise InvalidFNMError("filtration levels must be >= 0 (G_j = 0 below)")
        levels = [lvl for lvl, _ in self.G]
        if len(set(levels)) != len(levels):
            raise InvalidFNMError("duplicate filtration level")
        identity = [[int(i == j) for j in range(self.dim)] for i in range(self.dim)]
        _chain(self.N, identity)  # raises unless N is nilpotent
        top = self.level_basis(self.max_level())
        if len(top) != self.dim:
            raise InvalidFNMError("filtration is not exhaustive")
        for lvl, _ in self.G:
            basis = self.level_basis(lvl)
            image = [mat_vec(self.N, v) for v in basis]
            if len(subspace_sum(basis, image)) != len(basis):
                raise InvalidFNMError(f"N does not preserve G_{lvl}")

    def max_level(self) -> int:
        return max(lvl for lvl, _ in self.G)

    def level_basis(self, j: int) -> list[Vec]:
        """An echelon basis of G_j (empty for j < 0).

        It is not reduced: the checkers read only dimensions and images
        under N, which any basis gives.
        """
        vecs = [v for lvl, spans in self.G if lvl <= j for v in spans]
        return echelon_basis(vecs)

    def full_basis(self) -> list[Vec]:
        return self.level_basis(self.max_level())


def _chain(N, basis: list[Vec]) -> list[list[Vec]]:
    """Echelon bases of V, N(V), N^2(V), ... down to 0, for V = span(basis).

    V must be N-stable, so that the images are nested: if the dimension
    stops falling above 0, N is invertible on that image and not nilpotent.
    """
    chain = [echelon_basis(basis)]
    while chain[-1]:
        image = echelon_basis([mat_vec(N, v) for v in chain[-1]])
        if len(image) == len(chain[-1]):
            raise InvalidFNMError("N is not nilpotent")
        chain.append(image)
    return chain


def _power_image(chain: list[list[Vec]], k: int) -> list[Vec]:
    """Basis of N^k(V) from the chain of V; 0 once k passes its end."""
    return chain[min(k, len(chain) - 1)]


@dataclass(frozen=True)
class LevelReport:
    level: int
    dim_g: int
    dim_gr: int
    dim_gr_coinvariants: int
    nilpotency_order: int  # induced N on Gr^G_level; 0 on a zero piece


@dataclass(frozen=True)
class Question1Result:
    answer: str  # POSITIVE or NEGATIVE
    via_max_multiplicity: bool  # the maximal-multiplicity shortcut applied


@dataclass(frozen=True)
class FNMReport:
    dim: int
    m_tilde: int
    levels: tuple[LevelReport, ...]
    jordan_ambient: tuple[int, ...]
    jordan_graded: tuple[int, ...]

    @property
    def jordan_mismatch(self) -> bool:
        return self.jordan_ambient != self.jordan_graded

    def question1(self, j: int) -> Question1Result:
        """Does the graded piece at level j survive in the N-coinvariants?

        Raises NotARootError when Gr^G_j M = 0 (then there is nothing to
        ask).  The shortcut flag records when the induced nilpotency order
        at level j equals the global one, which forces a positive answer.
        """
        level = next((l for l in self.levels if l.level == j), None)
        if level is None or level.dim_gr == 0:
            raise NotARootError(f"graded piece at level {j} vanishes")
        answer = POSITIVE if level.dim_gr_coinvariants > 0 else NEGATIVE
        shortcut = level.nilpotency_order == self.m_tilde
        if shortcut and answer != POSITIVE:
            raise ConsistencyCheckError("maximal multiplicity must force POSITIVE")
        return Question1Result(answer, shortcut)


def _jordan_from_ranks(ranks: list[int]) -> tuple[int, ...]:
    """Jordan block sizes, largest first, from the ranks of N^0, N^1, ..., 0.

    r_(k-1) - 2 r_k + r_(k+1) blocks have size exactly k.
    """
    r = list(ranks) + [0]
    return tuple(k for k in range(len(ranks) - 1, 0, -1)
                 for _ in range(r[k - 1] - 2 * r[k] + r[k + 1]))


def fnm_report(M: FilteredNilpotentModule) -> FNMReport:
    """Dimension, coinvariant, nilpotency and Jordan data, in one pass.

    At level j, the piece ranks dim(N^k G_j + G_{j-1}) - dim G_{j-1} up to
    the first 0 are the ranks of the powers of the induced map on Gr_j.
    """
    ambient_chain = _chain(M.N, M.full_basis())
    ambient = _jordan_from_ranks([len(img) for img in ambient_chain])
    n_image = ambient_chain[1]  # dim M > 0, so the chain has two entries
    levels = []
    graded: list[int] = []
    prev_plus_im = len(n_image)
    below: list[Vec] = []
    for lvl, _ in M.G:
        basis = M.level_basis(lvl)
        piece_ranks = []
        for img in _chain(M.N, basis):
            r = len(subspace_sum(img, below)) - len(below)
            piece_ranks.append(r)
            if r == 0:
                break
        graded.extend(_jordan_from_ranks(piece_ranks))
        plus_im = len(subspace_sum(basis, n_image))
        levels.append(LevelReport(lvl, len(basis), piece_ranks[0], plus_im - prev_plus_im,
                                  len(piece_ranks) - 1))
        prev_plus_im = plus_im
        below = basis
    if sum(l.dim_gr for l in levels) != M.dim:
        raise ConsistencyCheckError("graded dimensions do not telescope to dim M")
    return FNMReport(M.dim, ambient[0], tuple(levels), ambient,
                     tuple(sorted(graded, reverse=True)))


def jordan_types(M: FilteredNilpotentModule) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Jordan types of N on M and of the induced maps on the graded pieces."""
    report = fnm_report(M)
    return report.jordan_ambient, report.jordan_graded


def strictness_check(M: FilteredNilpotentModule) -> bool:
    """True iff N(M) & G_j = N(G_j) for every level j."""
    return power_strictness(M, 1)


def power_strictness(M: FilteredNilpotentModule, k: int) -> bool:
    """Strict compatibility of N^k with the filtration.

    dim(N^k M & G_j) is read as dim N^k M + dim G_j - dim(N^k M + G_j).
    """
    full_image = _power_image(_chain(M.N, M.full_basis()), k)
    for lvl, _ in M.G:
        basis = M.level_basis(lvl)
        meet = len(full_image) + len(basis) - rank(full_image + basis)
        if meet != len(_power_image(_chain(M.N, basis), k)):
            return False
    return True


def question1_verdict(M: FilteredNilpotentModule, j: int) -> Question1Result:
    """``fnm_report(M).question1(j)``; see ``FNMReport.question1``."""
    return fnm_report(M).question1(j)


# ---------------------------------------------------------------------------
# JSON interchange


def fnm_to_json(M: FilteredNilpotentModule) -> str:
    obj = {
        "dim": M.dim,
        "N": [rat_to_str(x) for row in M.N for x in row],
        "G": [
            {"level": lvl, "spanning_vectors": [[rat_to_str(x) for x in v] for v in vecs]}
            for lvl, vecs in M.G
        ],
    }
    return json.dumps(obj, indent=2)


def fnm_from_json(text: str) -> FilteredNilpotentModule:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidFNMError(f"not valid JSON: {e}") from e
    try:
        dim = int(obj["dim"])
        flat = [rat_from_str(s) for s in obj["N"]]
        if len(flat) != dim * dim:
            raise InvalidFNMError("N must have dim*dim entries (row-major)")
        N = tuple(tuple(flat[i * dim : (i + 1) * dim]) for i in range(dim))
        G = tuple(
            (
                int(entry["level"]),
                tuple(tuple(rat_from_str(x) for x in v) for v in entry["spanning_vectors"]),
            )
            for entry in obj["G"]
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InvalidFNMError(f"malformed FNM object: {e}") from e
    return FilteredNilpotentModule(dim, N, G)
