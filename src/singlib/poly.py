"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a finite map from exponent vectors (tuples of non-negative
ints, one slot per variable) to nonzero ``Fraction`` coefficients.  The
variable tuple is fixed at construction; arithmetic between polynomials over
different variable tuples raises rather than guessing an embedding.

Text grammar (whitespace ignored)::

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := rational | var ('^' uint)? | '(' expr ')'
    rational := int ('/' uint)?

Canonical serialization prints terms in descending graded-lexicographic
order, coefficients as ``p`` or ``p/q``, and elides unit coefficients except
on the constant term; the serializer output reparses to an equal polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ArityMismatchError, ConsistencyCheckError, PolyParseError
from .linalg import feasible_point, solve_linear

ExpVec = tuple[int, ...]

# positive rational weights, one per variable; <a, w> = 1 on a certified support
Weights = tuple[Fraction, ...]


def _check_terms(terms: dict, nvars: int) -> dict[ExpVec, Fraction]:
    out: dict[ExpVec, Fraction] = {}
    for exp, coeff in terms.items():
        exp = tuple(int(e) for e in exp)
        if len(exp) != nvars:
            raise ArityMismatchError(f"exponent {exp} has arity {len(exp)}, expected {nvars}")
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {exp}")
        coeff = Fraction(coeff)
        if coeff != 0:
            out[exp] = coeff
    return out


@dataclass(frozen=True)
class SparsePoly:
    """Immutable sparse polynomial over Q."""

    nvars: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.nvars < 0:
            raise ValueError("nvars must be non-negative")
        object.__setattr__(self, "terms", _check_terms(self.terms, self.nvars))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "SparsePoly":
        return SparsePoly(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "SparsePoly":
        return SparsePoly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def monomial(nvars: int, exp, c=1) -> "SparsePoly":
        return SparsePoly(nvars, {tuple(exp): Fraction(c)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> set[ExpVec]:
        return set(self.terms)

    def coeff(self, exp) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _same_arity(self, other: "SparsePoly"):
        if self.nvars != other.nvars:
            raise ArityMismatchError(
                f"cannot combine polynomials in {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._same_arity(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return SparsePoly(self.nvars, terms)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            c = Fraction(other)
            return SparsePoly(self.nvars, {e: c * v for e, v in self.terms.items()})
        self._same_arity(other)
        terms: dict[ExpVec, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return SparsePoly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SparsePoly":
        if k < 0:
            raise ValueError("negative power")
        out = SparsePoly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def diff(self, i: int) -> "SparsePoly":
        """Exact partial derivative with respect to variable i."""
        terms: dict[ExpVec, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = c * e[i]
        return SparsePoly(self.nvars, terms)

    def weighted_derivative(self, w) -> "SparsePoly":
        """Apply the vector field sum_i w_i x_i d/dx_i (termwise scaling)."""
        w = tuple(Fraction(x) for x in w)
        terms = {}
        for e, c in self.terms.items():
            s = sum((Fraction(a) * wi for a, wi in zip(e, w)), Fraction(0))
            if s != 0:
                terms[e] = c * s
        return SparsePoly(self.nvars, terms)

    def __repr__(self):
        return f"SparsePoly({serialize(self)!r})"


def partials(f: SparsePoly) -> list[SparsePoly]:
    """All first partial derivatives of f, in variable order."""
    return [f.diff(i) for i in range(f.nvars)]


# ---------------------------------------------------------------------------
# parsing


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            raise PolyParseError(f"unexpected character {text[at]!r}", at)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: list[str]):
        self.text = text
        self.vars = list(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        self.index = {name: i for i, name in enumerate(self.vars)}
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", pos)

    def parse(self) -> SparsePoly:
        p = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise PolyParseError("trailing input", pos)
        return p

    def expr(self) -> SparsePoly:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        acc = self.term() * sign
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                t = self.term()
                acc = acc + t if val == "+" else acc - t
            else:
                return acc

    def term(self) -> SparsePoly:
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> SparsePoly:
        kind, val, pos = self.next()
        if kind == "op" and val in "+-":
            # signed rational literal, e.g. x*-2
            sign = -1 if val == "-" else 1
            k2, _, p2 = self.peek()
            if k2 != "int":
                raise PolyParseError("expected a number after sign", p2)
            return self.factor() * sign
        if kind == "int":
            num = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.next()
                k3, v3, p3 = self.next()
                if k3 != "int":
                    raise PolyParseError("expected unsigned denominator", p3)
                den = int(v3)
                if den == 0:
                    raise PolyParseError("zero denominator", p3)
                return SparsePoly.constant(len(self.vars), Fraction(num, den))
            return SparsePoly.constant(len(self.vars), num)
        if kind == "name":
            if val not in self.index:
                raise PolyParseError(f"unknown variable {val!r}", pos)
            exp = [0] * len(self.vars)
            k2, v2, _ = self.peek()
            power = 1
            if k2 == "op" and v2 == "^":
                self.next()
                k3, v3, p3 = self.next()
                if k3 == "op" and v3 == "-":
                    raise PolyParseError("exponent must be a non-negative integer", p3)
                if k3 != "int":
                    raise PolyParseError("expected exponent", p3)
                power = int(v3)
            exp[self.index[val]] = power
            return SparsePoly.monomial(len(self.vars), exp)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise PolyParseError("expected a factor", pos)


def parse_poly(text: str, variables) -> SparsePoly:
    """Parse ``text`` over the ordered variable names ``variables``."""
    return _Parser(text, list(variables)).parse()


# ---------------------------------------------------------------------------
# canonical serialization


def _grlex_key(exp: ExpVec):
    # descending graded-lex: sort by this key ascending
    return (-sum(exp), tuple(-e for e in exp))


def serialize(f: SparsePoly, variables: list[str] | None = None) -> str:
    """Canonical text form; parse_poly(serialize(f)) == f."""
    if variables is None:
        variables = _default_names(f.nvars)
    if f.is_zero():
        return "0"
    parts = []
    for exp in sorted(f.terms, key=_grlex_key):
        c = f.terms[exp]
        factors = []
        for name, e in zip(variables, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if not factors:
            body = _coeff_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_coeff_str(mag)] + factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _default_names(n: int) -> list[str]:
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{i}" for i in range(n)]


# ---------------------------------------------------------------------------
# weighted homogeneity


def weighted_homogeneity(f: SparsePoly) -> Weights | None:
    """Positive rational weights w with <a, w> = 1 on the whole support.

    Returns the weight tuple, or None when no strictly positive solution
    exists.  Underdetermined systems are completed deterministically: the
    affine solution space is parametrized by the free (non-pivot) columns and a
    canonical interior point of the positivity region is picked by exact
    Fourier-Motzkin back-substitution.
    """
    if f.is_zero():
        raise ValueError("weighted_homogeneity of the zero polynomial")
    n = f.nvars
    rows = [[Fraction(e) for e in exp] for exp in sorted(f.terms)]
    sol = solve_linear(rows, [Fraction(1)] * len(rows))
    if sol is None:
        return None
    particular, null = sol
    if not null:
        if all(x > 0 for x in particular):
            return tuple(particular)
        return None
    # w = particular + t . null must be > 0 componentwise
    constraints = []
    for i in range(n):
        coeffs = [b[i] for b in null]
        constraints.append((coeffs, -particular[i], True))
    t = feasible_point(constraints, len(null))
    if t is None:
        return None
    w = list(particular)
    for coef, b in zip(t, null):
        w = [wi + coef * bi for wi, bi in zip(w, b)]
    if any(x <= 0 for x in w):
        raise ConsistencyCheckError("weight witness is not positive")
    return tuple(w)


def weighted_degree(exp, w) -> Fraction:
    return sum((Fraction(int(a)) * Fraction(x) for a, x in zip(exp, w)), Fraction(0))
