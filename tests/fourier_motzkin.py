"""Fourier-Motzkin feasibility with exact witnesses: a test oracle.

``feasible_point`` decides a system of (strict) linear inequalities by
eliminating one variable at a time, and back-substitutes an exact rational
witness.  The library decides its own questions by finite arguments on
``singlib.linalg.solve_linear``; this independent solver checks them
(compact Newton faces, positive weights).  Import it as
``from fourier_motzkin import feasible_point``: pytest puts the ``tests``
directory on ``sys.path``, and the file name keeps it from being collected.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from singlib.errors import ConsistencyCheckError
from singlib.linalg import Vec


# A constraint is (coeffs, rhs, strict) meaning  sum(coeffs * x) >= rhs,
# with > instead of >= when strict is True.
Constraint = tuple[Vec, Fraction, bool]


def _normalize(c: Constraint) -> Constraint | None:
    """Scale to coprime integers; None means trivially true."""
    coeffs, rhs, strict = c
    nums = [x for x in coeffs] + [rhs]
    den = 1
    for x in nums:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in nums]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    coeffs = tuple(Fraction(x) for x in ints[:-1])
    rhs = Fraction(ints[-1])
    if all(x == 0 for x in coeffs):
        if rhs < 0 or (rhs == 0 and not strict):
            return None  # always satisfied
        return (coeffs, rhs, strict)  # unsatisfiable marker, kept for the check
    return (coeffs, rhs, strict)


def _eliminate(constraints: list[Constraint], k: int) -> list[Constraint] | None:
    """Project out variable k.  Returns None on detected infeasibility."""
    zero, lower, upper = [], [], []
    for coeffs, rhs, strict in constraints:
        ck = coeffs[k]
        if ck == 0:
            zero.append((coeffs, rhs, strict))
        elif ck > 0:
            lower.append((coeffs, rhs, strict))
        else:
            upper.append((coeffs, rhs, strict))
    out = set()
    for c in zero:
        n = _normalize(c)
        if n is not None:
            if all(x == 0 for x in n[0]) and (n[1] > 0 or (n[1] == 0 and n[2])):
                return None
            out.add(n)
    for lc, lrhs, lstrict in lower:
        for uc, urhs, ustrict in upper:
            a, b = lc[k], -uc[k]
            comb = tuple(b * x + a * y for x, y in zip(lc, uc))
            rhs = b * lrhs + a * urhs
            n = _normalize((comb, rhs, lstrict or ustrict))
            if n is None:
                continue
            if all(x == 0 for x in n[0]) and (n[1] > 0 or (n[1] == 0 and n[2])):
                return None
            out.add(n)
    return list(out)


def feasible_point(constraints: list, nvars: int) -> list[Fraction] | None:
    """Exact witness for a system of (strict) linear inequalities, or None.

    Each constraint is (coeffs, rhs, strict) with the meaning described
    above.  Equalities should be passed as a >=/<= pair.
    """
    system: list[Constraint] = []
    for coeffs, rhs, strict in constraints:
        n = _normalize((tuple(map(Fraction, coeffs)), Fraction(rhs), bool(strict)))
        if n is not None:
            system.append(n)
    stages = [system]
    for k in range(nvars - 1, -1, -1):
        nxt = _eliminate(stages[-1], k)
        if nxt is None:
            return None
        stages.append(nxt)
    # stages[i] eliminated the last i variables; stages[nvars] is constants
    for coeffs, rhs, strict in stages[-1]:
        if rhs > 0 or (rhs == 0 and strict):
            return None
    point: list[Fraction] = [Fraction(0)] * nvars
    for k in range(nvars):
        sys_k = stages[nvars - 1 - k]  # variables 0..k still present
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, rhs, strict in sys_k:
            ck = coeffs[k]
            if ck == 0:
                continue
            rest = sum((coeffs[i] * point[i] for i in range(k)), Fraction(0))
            bound = (rhs - rest) / ck
            if ck > 0:
                if lo is None or bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict
            else:
                if hi is None or bound < hi or (bound == hi and strict):
                    hi, hi_strict = bound, strict
        if lo is None and hi is None:
            point[k] = Fraction(0)
        elif lo is None:
            point[k] = hi - 1
        elif hi is None:
            point[k] = lo + 1
        elif lo < hi:
            point[k] = (lo + hi) / 2
        elif lo == hi and not lo_strict and not hi_strict:
            point[k] = lo
        else:  # pragma: no cover - contradicts FM feasibility
            raise ConsistencyCheckError("Fourier-Motzkin back-substitution failed")
    for coeffs, rhs, strict in system:
        val = sum((c * x for c, x in zip(coeffs, point)), Fraction(0))
        if not (val > rhs or (val == rhs and not strict)):
            raise ConsistencyCheckError("feasibility witness violates a constraint")
    return point
