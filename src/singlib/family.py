"""Family generator, end-to-end certificate pipeline, and golden-value suite.

A family instance is a triple (a, b, c) of pairwise coprime positive
integers with a > 2b > c and 1/(2a) > 2/c - 1/b, deforming

    f_u = x^(2a) + y^(2a) - x^(2b)y^(2b) + z^c - u x^(a+b-1) y^(b-1) z.

The pipeline runs ten checks in order and assembles a certificate whose
verdict fields are populated only when every check passed; any failure
yields status INCONCLUSIVE naming the first failed step.  Two runs on equal
parameters produce byte-identical certificates.

The certificate distinguishes what is computed here (exact arithmetic on
polynomials, polyhedra, spectra, and subspaces) from the finite list of
facts it accepts from the literature; the latter is recorded verbatim in
the ``assumptions`` field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import brieskorn, certificates, milnor, newton, spectrum
from .certificates import FilteredNilpotentModule
from .errors import ConsistencyCheckError, ConstraintViolationError, SingError
from .poly import SparsePoly, parse_poly, serialize
from .ratio import rat_to_str

SCHEMA_VERSION = 1

ASSUMPTIONS = (
    "two-variable convenient nondegenerate germs: the spectrum in (0,1] is "
    "the multiset of Newton filtration values at positive lattice points, "
    "completed by the reflection alpha -> 2-alpha",
    "sums of germs in disjoint variables: Milnor numbers multiply and "
    "spectra convolve additively",
    "the graded piece of the Gauss-Manin system at the certificate level is "
    "modelled by the two congruent spectral values at consecutive integer "
    "shifts, with the operator N acting along the shift ladder",
    "the inverse-integration rewrite witnesses that the surviving Taylor "
    "component lies in the image of N on the graded piece",
)


@dataclass(frozen=True)
class FamilyParams:
    a: int
    b: int
    c: int

    @property
    def h(self) -> SparsePoly:
        a, b = self.a, self.b
        return SparsePoly(
            2, {(2 * a, 0): 1, (0, 2 * a): 1, (2 * b, 2 * b): -1}
        )

    @property
    def g(self) -> SparsePoly:
        a, b, c = self.a, self.b, self.c
        return SparsePoly(
            3,
            {(2 * a, 0, 0): 1, (0, 2 * a, 0): 1, (2 * b, 2 * b, 0): -1, (0, 0, c): 1},
        )

    @property
    def deformation_monomial(self) -> tuple[int, int, int]:
        return (self.a + self.b - 1, self.b - 1, 1)

    @property
    def beta0(self) -> Fraction:
        return Fraction(3, self.c) - Fraction(1, 2 * self.b)

    @property
    def ell1(self) -> tuple[Fraction, Fraction, Fraction]:
        a, b, c = self.a, self.b, self.c
        return (Fraction(1, 2 * a), Fraction(a - b, 2 * a * b), Fraction(1, c))

    @property
    def monoid_generators(self) -> tuple[Fraction, Fraction]:
        return (Fraction(1, 2 * self.a), Fraction(1, 2 * self.b))

    def deformed(self, u=1) -> SparsePoly:
        """The deformed germ at parameter value u (nonzero by default)."""
        m = self.deformation_monomial
        return self.g - SparsePoly.monomial(3, m, Fraction(u))


def family_violations(a: int, b: int, c: int) -> list[str]:
    """Every violated defining constraint, as human-readable strings."""
    out = []
    if min(a, b, c) < 1:
        out.append("a, b, c must be positive integers")
        return out
    if gcd(a, b) != 1:
        out.append(f"gcd(a, b) = {gcd(a, b)} != 1")
    if gcd(a, c) != 1:
        out.append(f"gcd(a, c) = {gcd(a, c)} != 1")
    if gcd(b, c) != 1:
        out.append(f"gcd(b, c) = {gcd(b, c)} != 1")
    if not a > 2 * b:
        out.append(f"a > 2b fails ({a} <= {2 * b})")
    if not 2 * b > c:
        out.append(f"2b > c fails ({2 * b} <= {c})")
    if not Fraction(1, 2 * a) > Fraction(2, c) - Fraction(1, b):
        out.append(f"1/(2a) > 2/c - 1/b fails (1/{2 * a} <= {Fraction(2, c) - Fraction(1, b)})")
    return out


def make_family(a: int, b: int, c: int) -> FamilyParams:
    """Validated family parameters; raises with the full violation list."""
    violations = family_violations(a, b, c)
    if violations:
        raise ConstraintViolationError(violations)
    p = FamilyParams(a, b, c)
    # closed forms of the facet functional at the three reference points
    ell = p.ell1
    def ev(pt):
        return sum((ci * x for ci, x in zip(ell, pt)), Fraction(0))
    if (ev((1, 1, 1)) != Fraction(1, 2 * b) + Fraction(1, c)
            or ev((a + b, b, 2)) != 1 + Fraction(2, c)
            or ev((2 * a + 2 * b - 1, 2 * b - 1, 3)) != 2 - Fraction(1, 2 * b) + Fraction(3, c)):
        raise ConsistencyCheckError(f"facet functional {ell} misses its closed forms")
    return p


def enumerate_family(b: int, c: int) -> list[FamilyParams]:
    """All valid parameter triples with the given b and c."""
    if b < 1 or c < 1 or 2 * b <= c:
        return []
    bound = Fraction(2, c) - Fraction(1, b)
    if bound <= 0:
        return []
    out = []
    a_max = int(Fraction(1, 2) / bound)  # 1/(2a) > bound  <=>  a < 1/(2 bound)
    for a in range(2 * b + 1, a_max + 1):
        if not family_violations(a, b, c):
            out.append(FamilyParams(a, b, c))
    return out


def sweep_families(bmax: int) -> dict:
    """Every valid instance with b <= bmax, plus single-violation near misses.

    Output ordering is canonical: sorted by (b, c, a).  Near misses (exactly
    one violated constraint) are reported for exploration only; nothing is
    asserted about them.
    """
    instances = []
    near = []
    for b in range(1, bmax + 1):
        for c in range(1, 2 * b + 2):
            bound = Fraction(2, c) - Fraction(1, b)
            a_cap = max(4 * b + 2, int(Fraction(1, 2) / bound) + 1 if bound > 0 else 0)
            for a in range(1, a_cap + 1):
                v = family_violations(a, b, c)
                if not v:
                    instances.append((b, c, a))
                elif len(v) == 1:
                    near.append(((b, c, a), v[0]))
    instances.sort()
    near.sort()
    return {
        "schema_version": SCHEMA_VERSION,
        "bmax": bmax,
        "instances": [{"a": a, "b": b, "c": c} for (b, c, a) in instances],
        "near_misses": [
            {"a": a, "b": b, "c": c, "violated": msg} for ((b, c, a), msg) in near
        ],
    }


# ---------------------------------------------------------------------------
# the ten-step certificate pipeline


class _StepFailed(SingError):
    def __init__(self, step: str, reason: str):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason


def _require(step: str, condition: bool, reason: str):
    if not condition:
        raise _StepFailed(step, reason)


def negative_answer_pipeline(params: FamilyParams, jet_cap: int | None = None) -> dict:
    """Run the full certificate for one family instance.

    Returns the certificate as a JSON-serializable dict.  Verdict fields are
    present only when all ten steps passed; otherwise the status is
    INCONCLUSIVE with the first failed step named, never a partial verdict.
    """
    steps: list[dict] = []
    values: dict = {}

    def record(step_id: str, name: str, data: dict):
        steps.append({"id": step_id, "name": name, "passed": True, "data": data})

    config = milnor.JetConfig(degree_cap=jet_cap) if jet_cap is not None else None
    h, g = params.h, params.g
    beta0 = params.beta0
    try:
        # (i) Newton boundary flags for both germs
        fh = newton.newton_flags(h)
        fg = newton.newton_flags(g)
        for name, fl in (("h", fh), ("g", fg)):
            face = fl.degenerate_face
            _require("i", fl.convenient and fl.nondegenerate,
                     f"{name} flags: convenient={fl.convenient} nondegenerate={fl.nondegenerate}"
                     + (f", degenerate face {[list(a) for a in face]}" if face else ""))
        record("i", "newton-flags", {
            "h": {"convenient": fh.convenient, "nondegenerate": fh.nondegenerate},
            "g": {"convenient": fg.convenient, "nondegenerate": fg.nondegenerate},
        })

        # (ii) Milnor number of h by jets equals the Newton number
        basis_h = milnor.milnor_basis(h, config)
        _require("ii", basis_h.finite, f"jet computation: {basis_h.status}")
        nu_h = newton.newton_number(h)
        _require("ii", basis_h.milnor_number == nu_h,
                 f"mu_h = {basis_h.milnor_number} but nu(h) = {nu_h}")
        mu_h = nu_h
        values["mu_h"] = mu_h
        record("ii", "milnor-vs-newton-number", {"mu_h": mu_h, "jet_level": basis_h.truncation_degree})

        # (iii) spectrum of h by the two-variable lattice realization
        sp_h = spectrum.spectrum_newton_2d(h, flags=fh, basis=basis_h)
        record("iii", "h-spectrum", {
            "count": len(sp_h),
            "min": rat_to_str(spectrum.kth(sp_h, 1)),
            "symmetric": sp_h.is_symmetric(),
        })

        # (iv) spectrum of g by convolution; mu_g cross-checked two ways
        zc = SparsePoly.monomial(1, (params.c,))
        sp_z = spectrum.spectrum_wh(zc, (Fraction(1, params.c),))
        sp_g = spectrum.thom_sebastiani(sp_h, sp_z)
        mu_g = mu_h * (params.c - 1)
        _require("iv", len(sp_g) == mu_g, f"|Sp(g)| = {len(sp_g)} != {mu_g}")
        nu_g = newton.newton_number(g)
        _require("iv", nu_g == mu_g, f"nu(g) = {nu_g} != mu_g = {mu_g}")
        values["mu_g"] = mu_g
        record("iv", "g-spectrum", {
            "mu_g": mu_g,
            "min": rat_to_str(spectrum.kth(sp_g, 1)),
            "count": len(sp_g),
        })

        # (v) the congruence class of beta0 in Sp(g): exactly the two values
        # at consecutive integer shifts, and beta0 itself is not spectral
        cong = spectrum.congruent_values(sp_g, beta0)
        _require("v", sorted(cong) == [beta0 + 1, beta0 + 2],
                 f"congruent values {sorted(map(str, cong))} != beta0+1, beta0+2")
        _require("v", spectrum.multiplicity(sp_g, beta0) == 0,
                 "beta0 itself must not be a spectral value")
        values["eigenspace_dim"] = len(cong)
        record("v", "congruence-class", {
            "beta0": rat_to_str(beta0),
            "eigenspace_dim": len(cong),
            "values": {rat_to_str(k): v for k, v in sorted(cong.items())},
            "beta0_in_spectrum": False,
        })

        # (vi) only the smallest spectral value sits at or below beta0
        n_le = spectrum.count_le(sp_g, beta0)
        alpha2 = spectrum.kth(sp_g, 2)
        _require("vi", n_le == 1, f"count_le(beta0) = {n_le} != 1")
        _require("vi", alpha2 > beta0, f"alpha_(g,2) = {alpha2} <= beta0")
        values["alpha_g2"] = alpha2
        record("vi", "second-spectral-number", {
            "count_le_beta0": n_le,
            "alpha_g2": rat_to_str(alpha2),
        })

        # (vii) Taylor-term filtration levels: strictly increasing, v_2 = beta0
        P = newton.newton_polyhedron(g)
        m = params.deformation_monomial
        v = [brieskorn.taylor_term_value(P, m, r) for r in range(4)]
        _require("vii", all(v[i] < v[i + 1] for i in range(3)),
                 f"levels not strictly increasing: {list(map(str, v))}")
        _require("vii", v[2] == beta0, f"v_2 = {v[2]} != beta0 = {beta0}")
        values["taylor_levels"] = v
        record("vii", "taylor-levels", {"v": [rat_to_str(x) for x in v]})

        # (viii) component exclusion: POSSIBLE only at r = 2
        excl = brieskorn.component_exclusion(P, m, beta0, params.monoid_generators, 3)
        _require("viii", excl.possible_at() == (2,),
                 f"POSSIBLE at {excl.possible_at()} != (2,)")
        record("viii", "component-exclusion", {
            "generators": [rat_to_str(x) for x in params.monoid_generators],
            "entries": [
                {
                    "r": e.r,
                    "verdict": e.verdict,
                    "level": rat_to_str(e.level),
                    "gap": None if e.gap is None else rat_to_str(e.gap),
                }
                for e in excl.entries
            ],
        })

        # (ix) the inverse-integration witness at the diagonal monomial
        a, b = params.a, params.b
        diag = (2 * b - 2, 2 * b - 2, 2)
        mirror = (params.ell1[1], params.ell1[0], params.ell1[2])
        er = brieskorn.euler_relation(g, diag, mirror)
        _require("ix", er.c == beta0 + 1, f"c = {er.c} != beta0 + 1")
        expected_exp = (2 * a + 2 * b - 2, 2 * b - 2, 2)
        coeff = Fraction(a - 2 * b, b)
        _require("ix", er.remainder == SparsePoly.monomial(3, expected_exp, coeff),
                 f"remainder {er.remainder!r} unexpected")
        _require("ix", coeff != 0, "remainder coefficient vanishes")
        values["euler_c"] = er.c
        values["euler_coeff"] = coeff
        record("ix", "euler-relation", {
            "monomial": list(diag),
            "c": rat_to_str(er.c),
            "remainder": serialize(er.remainder),
            "remainder_coefficient": rat_to_str(coeff),
        })

        # (x) assemble the two-level module and run every checker
        M = FilteredNilpotentModule(2, ((0, 0), (1, 0)),
                                    ((0, ((0, 1),)), (1, ((1, 0), (0, 1)))))
        report = certificates.fnm_report(M)
        verdict = report.question1(0)
        strict = certificates.strictness_check(M)
        level0 = report.levels[0]
        _require("x", level0.dim_gr == 1 and level0.dim_gr_coinvariants == 0,
                 "graded piece shape unexpected")
        _require("x", verdict.answer == certificates.NEGATIVE, "verdict not NEGATIVE")
        _require("x", report.m_tilde == 2 and level0.nilpotency_order == 1,
                 "nilpotency orders unexpected")
        _require("x", strict is False, "strictness unexpectedly holds")
        _require("x", report.jordan_mismatch, "Jordan types agree unexpectedly")
        record("x", "filtered-module", {
            "fnm": json.loads(certificates.fnm_to_json(M)),
            "dim_gr_0": level0.dim_gr,
            "dim_gr_0_coinvariants": level0.dim_gr_coinvariants,
            "m_tilde": report.m_tilde,
            "nilpotency_order_at_0": level0.nilpotency_order,
            "jordan_ambient": list(report.jordan_ambient),
            "jordan_graded": list(report.jordan_graded),
        })
    except _StepFailed as e:
        return _certificate_shell(params, steps, status="INCONCLUSIVE",
                                  failed_step=e.step, failure=e.reason)

    cert = _certificate_shell(params, steps, status="CERTIFIED")
    cert["verdicts"] = {
        "b_root": {"alpha": rat_to_str(beta0), "multiplicity": 1},
        "question1": certificates.NEGATIVE,
        "strictness": False,
        "jordan_mismatch": True,
    }
    cert["summary"] = {
        "mu_h": values["mu_h"],
        "mu_g": values["mu_g"],
        "beta0": rat_to_str(beta0),
        "eigenspace_dim": values["eigenspace_dim"],
        "alpha_g2": rat_to_str(values["alpha_g2"]),
        "taylor_levels": [rat_to_str(x) for x in values["taylor_levels"]],
        "euler_c": rat_to_str(values["euler_c"]),
        "euler_remainder_coefficient": rat_to_str(values["euler_coeff"]),
    }
    return cert


def _certificate_shell(params: FamilyParams, steps, status, failed_step=None, failure=None):
    cert = {
        "schema_version": SCHEMA_VERSION,
        "params": {
            "a": params.a,
            "b": params.b,
            "c": params.c,
            "h": serialize(params.h),
            "g": serialize(params.g),
            "f_u": serialize(params.deformed()) + "  (at u = 1)",
            "deformation_monomial": list(params.deformation_monomial),
            "beta0": rat_to_str(params.beta0),
            "ell1": [rat_to_str(x) for x in params.ell1],
        },
        "status": status,
        "steps": steps,
        "assumptions": list(ASSUMPTIONS),
    }
    if failed_step is not None:
        cert["failed_step"] = failed_step
        cert["failure"] = failure
    return cert


def certificate_json(cert: dict) -> str:
    return json.dumps(cert, indent=2)


# ---------------------------------------------------------------------------
# golden-value suite


def _golden_items():
    """The golden checks, lazily evaluated against a shared context."""

    class Ctx:
        @cached_property
        def h(self):
            return parse_poly("x^14+y^14-x^6*y^6", ["x", "y"])

        @cached_property
        def g(self):
            return parse_poly("x^14+y^14-x^6*y^6+z^5", ["x", "y", "z"])

        @cached_property
        def basis_h(self):
            return milnor.milnor_basis(self.h)

        @cached_property
        def sp_h(self):
            return spectrum.spectrum_newton_2d(self.h, basis=self.basis_h)

        @cached_property
        def sp_g(self):
            return spectrum.thom_sebastiani(
                self.sp_h, spectrum.spectrum_wh(SparsePoly.monomial(1, (5,)), (Fraction(1, 5),)))

        @cached_property
        def P_g(self):
            return newton.newton_polyhedron(self.g)

        @cached_property
        def cert(self):
            return negative_answer_pipeline(make_family(7, 3, 5))

    ctx = Ctx()

    def item(id_, description, fn):
        return {"id": id_, "description": description, "run": fn}

    def check_parse():
        s = serialize(ctx.h)
        return ("x^14+y^14-x^6*y^6, 3 terms", f"{s}, {len(ctx.h.terms)} terms")

    def check_mu():
        return ("141", str(ctx.basis_h.milnor_number))

    def check_basis():
        I0 = {(i, i) for i in range(11)}
        I1 = {(i, j) for j in range(5) for i in range(j + 1, j + 14)}
        tI1 = {(j, i) for (i, j) in I1}
        mons = I0 | I1 | tI1
        ok = len(mons) == 141 and milnor.is_monomial_basis(ctx.h, mons, basis=ctx.basis_h)
        return ("141 monomials, independent", "141 monomials, independent" if ok else "failed")

    def check_spectrum():
        from collections import Counter

        expected = Counter(Fraction(j, 6) for j in range(1, 12))
        for i in range(1, 14):
            for j in range(1, 6):
                expected[Fraction(i, 14) + Fraction(j, 6)] += 2
        ok = Counter(ctx.sp_h.values) == expected
        return ("exact multiset match, 141 values",
                "exact multiset match, 141 values" if ok else "mismatch")

    def check_nu():
        return ("141", str(newton.newton_number(ctx.h)))

    def check_flags():
        fh = newton.newton_flags(ctx.h)
        fg = newton.newton_flags(ctx.g)
        ok = fh.convenient and fh.nondegenerate and fg.convenient and fg.nondegenerate
        actual = ("both convenient and nondegenerate" if ok else
                  f"h: {fh.convenient}/{fh.nondegenerate}, g: {fg.convenient}/{fg.nondegenerate}")
        return ("both convenient and nondegenerate", actual)

    def check_ell1():
        target = (Fraction(1, 14), Fraction(2, 21), Fraction(1, 5))
        ok = any(F.functional == target for F in ctx.P_g.facets)
        return ("functional (1/14, 2/21, 1/5) present",
                "functional (1/14, 2/21, 1/5) present" if ok else "absent")

    def check_phi():
        vals = [
            newton.phi_value(ctx.P_g, (1, 1, 1)),
            newton.phi_value(ctx.P_g, (10, 3, 2)),
            newton.phi_value(ctx.P_g, (19, 5, 3)),
        ]
        return ("11/30, 7/5, 73/30", ", ".join(map(rat_to_str, vals)))

    def check_z5():
        sp = spectrum.spectrum_wh(SparsePoly.monomial(1, (5,)), (Fraction(1, 5),))
        return ("1/5, 2/5, 3/5, 4/5", ", ".join(map(rat_to_str, sp.values)))

    def check_taylor():
        v = [brieskorn.taylor_term_value(ctx.P_g, (9, 2, 1), r) for r in range(4)]
        return ("11/30, 2/5, 13/30, 7/15", ", ".join(map(rat_to_str, v)))

    def check_exclusion():
        rep = brieskorn.component_exclusion(
            ctx.P_g, (9, 2, 1), Fraction(13, 30), [Fraction(1, 14), Fraction(1, 6)], 3
        )
        return ("POSSIBLE exactly at r=2", f"POSSIBLE at {rep.possible_at()}"
                if rep.possible_at() != (2,) else "POSSIBLE exactly at r=2")

    def check_euler():
        er = brieskorn.euler_relation(
            ctx.g, (4, 4, 2), (Fraction(2, 21), Fraction(1, 14), Fraction(1, 5))
        )
        rem = serialize(er.remainder)
        cprime = Fraction(1, 3) / er.c
        return ("c=43/30, remainder 1/3*x^18*y^4*z^2, c'=10/43",
                f"c={rat_to_str(er.c)}, remainder {rem}, c'={rat_to_str(cprime)}")

    def check_alpha2():
        a2 = spectrum.kth(ctx.sp_g, 2)
        cmp = ">" if a2 > Fraction(13, 30) else "<="
        return ("46/105 > 13/30", f"{rat_to_str(a2)} {cmp} 13/30")

    def check_eigenspace():
        cong = spectrum.congruent_values(ctx.sp_g, Fraction(13, 30))
        return ("2 values: 43/30, 73/30",
                f"{len(cong)} values: " + ", ".join(rat_to_str(v) for v in sorted(cong)))

    def check_fnm():
        M = FilteredNilpotentModule(
            2, ((0, 0), (1, 0)),
            ((0, ((0, 1),)), (1, ((1, 0), (0, 1)))),
        )
        rep = certificates.fnm_report(M)
        l0 = rep.levels[0]
        return ("Gr_0 = 1, coinvariants 0, m~ = 2, order 1",
                f"Gr_0 = {l0.dim_gr}, coinvariants {l0.dim_gr_coinvariants}, "
                f"m~ = {rep.m_tilde}, order {l0.nilpotency_order}")

    def check_verdict():
        c = ctx.cert
        v = c.get("verdicts", {})
        return ("NEGATIVE at 13/30, multiplicity 1, strictness false",
                f"{v.get('question1')} at {v.get('b_root', {}).get('alpha')}, "
                f"multiplicity {v.get('b_root', {}).get('multiplicity')}, "
                f"strictness {str(v.get('strictness')).lower()}")

    def check_jordan():
        c = ctx.cert
        ok = c.get("verdicts", {}).get("jordan_mismatch") is True
        return ("types differ", "types differ" if ok else "types agree")

    def check_family():
        p = make_family(7, 3, 5)
        return ("beta0 = 13/30, monomial (9, 2, 1)",
                f"beta0 = {rat_to_str(p.beta0)}, monomial {p.deformation_monomial}")

    def check_enumeration():
        found = [p.a for p in enumerate_family(3, 5)]
        return ("a = 7 only", "a = " + ", ".join(map(str, found)) + " only")

    def check_jacobian():
        p = SparsePoly.monomial(2, (18, 4)) - Fraction(3, 7) * SparsePoly.monomial(2, (10, 10))
        nf = milnor.normal_form(p, ctx.h, basis=ctx.basis_h)
        return ("reduces to 0", "reduces to 0" if nf.is_zero() else serialize(nf))

    def check_wh_matching():
        f = parse_poly("x^2+y^3", ["x", "y"])
        sp = spectrum.spectrum_wh(f, (Fraction(1, 2), Fraction(1, 3)))
        sigma = certificates.delta_matching(certificates.AnnotatedSpectrum(sp), sp.values)
        ok = sigma == tuple(range(len(sp)))
        return ("identity permutation", "identity permutation" if ok else str(sigma))

    def check_broots():
        sp = spectrum.spectrum_wh(SparsePoly.monomial(1, (5,)), (Fraction(1, 5),))
        bp = certificates.btilde_wh(sp)
        ok = all(m == 1 and 0 < a < 1 for a, m in bp.roots)
        return ("four simple roots in (0, 1)",
                "four simple roots in (0, 1)" if ok and len(bp.roots) == 4 else str(bp.roots))

    return [
        item("lemma-4.1-h-parse", "canonical form of the base germ", check_parse),
        item("lemma-4.1-mu", "Milnor number by jets", check_mu),
        item("lemma-4.1-basis", "staircase-independent monomial basis", check_basis),
        item("lemma-4.1-spectrum", "two-variable spectrum multiset", check_spectrum),
        item("lemma-4.1-newton-number", "alternating lattice-volume sum", check_nu),
        item("4.2-nondegenerate", "Newton boundary flags of both germs", check_flags),
        item("4.2-ell1", "facet functional of the three-variable germ", check_ell1),
        item("4.2.1-v-values", "filtration values of the reference monomials", check_phi),
        item("4.2-z5-spectrum", "one-variable power spectrum", check_z5),
        item("4.2.3-taylor", "Taylor-term filtration levels", check_taylor),
        item("4.2.5-exclusion", "component exclusion table", check_exclusion),
        item("4.2.6-euler", "inverse-integration witness", check_euler),
        item("4.2.8-alpha-g2", "second spectral value", check_alpha2),
        item("4.2.9-eigenspace", "congruence class at the certificate level", check_eigenspace),
        item("4.2.9-fnm", "graded piece shape of the certificate module", check_fnm),
        item("4.2.10-verdict", "pipeline verdict", check_verdict),
        item("remark-4.3-family", "parameter derivation", check_family),
        item("remark-4.3-enumeration", "enumeration at b=3, c=5", check_enumeration),
        item("remark-4.3-jacobian", "diagonal identification in the Milnor algebra", check_jacobian),
        item("remark-4.4-jordan", "Jordan type comparison", check_jordan),
        item("1.8-wh-identity", "matching estimate for a weighted homogeneous germ", check_wh_matching),
        item("1.5.2-wh-roots", "reduced b-function roots of a one-variable power", check_broots),
    ]


def verify_paper(item_id: str | None = None) -> dict:
    """Run the golden-value suite; optionally a single item by id."""
    items = _golden_items()
    if item_id is not None:
        items = [it for it in items if it["id"] == item_id]
        if not items:
            raise SingError(f"unknown golden item {item_id!r}")
    results = []
    for it in items:
        try:
            expected, actual = it["run"]()
            passed = expected == actual
        except Exception as e:  # a failure is a report entry, not a crash
            expected, actual, passed = "no error", f"{type(e).__name__}: {e}", False
        results.append({
            "id": it["id"],
            "description": it["description"],
            "expected": expected,
            "actual": actual,
            "passed": passed,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "items": results,
        "passed": sum(1 for r in results if r["passed"]),
        "total": len(results),
        "all_passed": all(r["passed"] for r in results),
    }
