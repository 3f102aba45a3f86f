"""Tests of the benchmark's own checks: each one must reject a wrong value.

    python3 perfbench/selftest.py

Correct outputs come from running the library on small inputs; each test
then changes one value and expects the check to report an error.
"""

from __future__ import annotations

import copy
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import singlib  # noqa: E402
import singlib.cli  # noqa: E402,F401

import checks  # noqa: E402
import workloads  # noqa: E402
from run import run_rounds  # noqa: E402


class FamilyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        ops = workloads.build("family-certify", 0, singlib)
        cls.cert_op = ops[0]  # (7, 3, 5)
        cls.cert = cls.cert_op.run()
        cls.verify = ops[-1].run()

    def test_correct_outputs_pass(self):
        self.assertEqual(checks.check_certificate(self.cert_op.spec, *self.cert), [])
        self.assertEqual(checks.check_verify(*self.verify), [])

    def test_sweep_order_and_size(self):
        inst = workloads.family_instances(6)
        self.assertEqual(len(inst), 18)
        self.assertEqual(inst[0], (7, 3, 5))
        self.assertEqual(inst[-1], (31, 6, 11))

    def test_each_summary_value_is_checked(self):
        rc, text = self.cert
        for field, wrong in (('"mu_h": 141', '"mu_h": 142'),
                             ('"mu_g": 564', '"mu_g": 563'),
                             ('"beta0": "13/30"', '"beta0": "14/30"'),
                             ('"alpha_g2": "46/105"', '"alpha_g2": "47/105"'),
                             ('"euler_c": "43/30"', '"euler_c": "44/30"'),
                             ('"euler_remainder_coefficient": "1/3"',
                              '"euler_remainder_coefficient": "2/3"'),
                             ('"question1": "NEGATIVE"', '"question1": "POSITIVE"'),
                             ('"status": "CERTIFIED"', '"status": "INCONCLUSIVE"')):
            self.assertIn(field, text)
            bad = text.replace(field, wrong)
            self.assertNotEqual(checks.check_certificate(self.cert_op.spec, rc, bad), [], field)
        self.assertNotEqual(checks.check_certificate(self.cert_op.spec, 1, text), [])
        self.assertNotEqual(checks.check_certificate(self.cert_op.spec, 0, text[:-5]), [])

    def test_verify_count(self):
        rc, text = self.verify
        wrong = text.replace('"passed": 22', '"passed": 21')
        self.assertNotEqual(checks.check_verify(rc, wrong), [])
        self.assertNotEqual(checks.check_verify(1, text), [])

    def test_output_that_changes_between_rounds_is_reported(self):
        calls = []

        def run():
            calls.append(1)
            return 0, f"certificate {len(calls)}"
        op = workloads.Op("certify", "flaky", run, lambda out: out)
        res = run_rounds([op], 0, 3)
        self.assertEqual(res["changed"], ["flaky", "flaky"])


class GermChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        rng = random.Random(0)
        cls.cases = {}
        for family, params in (("bp", (4, 5, 6)), ("xyij", (9, 12, 3, 4)),
                               ("tpqr", (4, 5, 6)), ("dkz", (6, 8))):
            spec = workloads.germ_spec(rng, family, params)
            out = workloads._germ_summary(workloads._germ_op(singlib, spec)())
            cls.cases[family] = (spec, out)

    def _rejects(self, family, **changes):
        spec, out = self.cases[family]
        bad = dict(out, **changes)
        self.assertNotEqual(checks.check_germ(spec, bad), [], (family, list(changes)))

    def test_correct_outputs_pass(self):
        for spec, out in self.cases.values():
            self.assertEqual(checks.check_germ(spec, out), [], spec["family"])
            self.assertEqual(checks.check_idempotent(singlib, out), [])

    def test_milnor_number_and_staircase(self):
        for fam, (spec, out) in self.cases.items():
            self._rejects(fam, mu=out["mu"] + 1)
        stair = list(self.cases["bp"][1]["staircase"])
        self._rejects("bp", staircase=tuple(stair[:-1] + [(9, 9, 9)]))

    def test_newton_data(self):
        self._rejects("tpqr", nu=self.cases["tpqr"][1]["nu"] - 1)
        self._rejects("xyij", flags=(True, "UNDECIDED"))

    def test_spectra(self):
        nv, values = self.cases["xyij"][1]["spectrum"]
        self._rejects("xyij", spectrum=(nv, values[:-1] + (values[-1] + Fraction(1, 7),)))
        self._rejects("xyij", spectrum=(nv, values[:-1]))
        nv, values = self.cases["dkz"][1]["spectrum"]
        # symmetric with the right sum, yet not the closed-form spectrum
        shifted = tuple(sorted(values[1:-1] + (values[0] + Fraction(1, 1000),
                                               values[-1] - Fraction(1, 1000))))
        self.assertEqual(checks.check_spectrum_axioms(list(shifted), nv, len(shifted)), [])
        self._rejects("dkz", spectrum=(nv, shifted))
        self._rejects("bp", spectrum=None)
        self._rejects("bp", broots=self.cases["bp"][1]["broots"][1:])
        self._rejects("dkz", weights=(Fraction(1, 3),) * 3)

    def test_closed_form_spectrum_matches_library(self):
        for fam in ("bp", "dkz"):
            spec, out = self.cases[fam]
            self.assertEqual(list(out["spectrum"][1]), checks.wh_spectrum(spec["weights"]))

    def test_normal_forms_and_candidates(self):
        nfs = self.cases["bp"][1]["nfs"]
        self._rejects("bp", nfs=(nfs[0] + (((20, 0, 0), Fraction(1)),),) + nfs[1:])
        self._rejects("bp", nfs=(((((0, 0, 0), Fraction(7)),),) + nfs[1:]))
        self._rejects("tpqr", candidate_ok=False)
        self._rejects("dkz", candidate_bad=True)
        self._rejects("xyij", queries=self.cases["xyij"][1]["queries"][1:])
        self._rejects("xyij", f=())

    def test_idempotence(self):
        class Broken:
            class milnor:
                @staticmethod
                def normal_form(p, f, basis=None):
                    return p + p
        out = self.cases["bp"][1]
        self.assertNotEqual(checks.check_idempotent(Broken, out), [])


class ModuleChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        rng = random.Random(0)
        cls.spec = workloads.module_spec(rng, 6, 3, 3)
        cls.out = workloads._module_summary(workloads._module_op(singlib, cls.spec)())
        cls.match = workloads.matching_spec(rng, (3, 4, 5))
        cls.sigma = workloads._matching_op(singlib, cls.match)()

    def _rejects(self, **changes):
        bad = dict(self.out, **changes)
        self.assertNotEqual(checks.check_module(self.spec, bad), [], list(changes))

    def test_correct_outputs_pass(self):
        self.assertEqual(checks.check_module(self.spec, self.out), [])
        self.assertEqual(checks.check_matching(self.match, self.sigma), [])

    def test_each_module_value_is_checked(self):
        levels = list(self.out["levels"])
        for i in range(1, 5):
            row = list(levels[0])
            row[i] += 1
            self._rejects(levels=tuple([tuple(row)] + levels[1:]))
        self._rejects(strict=not self.out["strict"])
        self._rejects(m_tilde=self.out["m_tilde"] + 1)
        self._rejects(jordan_ambient=(1,) * self.spec["dim"])
        self._rejects(jordan_graded=(self.spec["dim"],))
        verdicts = copy.deepcopy(self.out["verdicts"])
        j = min(verdicts)
        answer, via = verdicts[j]
        verdicts[j] = ("POSITIVE" if answer == "NEGATIVE" else "NEGATIVE", via)
        self._rejects(verdicts=verdicts)

    def test_seeded_jordan_type_is_checked(self):
        spec = dict(self.spec, jordan=(2, 2, 2))
        self.assertNotEqual(checks.check_module(spec, self.out), [])

    def test_jordan_from_ranks(self):
        self.assertEqual(checks.jordan_from_ranks([6, 3, 1, 0]), (3, 2, 1))
        self.assertEqual(checks.jordan_from_ranks([2, 0]), (1, 1))

    def test_matching(self):
        sigma = list(self.sigma)
        self.assertNotEqual(checks.check_matching(self.match, None), [])
        self.assertNotEqual(checks.check_matching(self.match, sigma[:-1] + sigma[:1]), [])
        # every admissible matching has the same total defect, so the wrong
        # value is a swap onto a pair whose difference is not an integer
        alphas = self.match["alphas"]
        k = next(k for k in range(len(alphas)) if (alphas[k] - alphas[0]).denominator != 1)
        swapped = sigma[:]
        swapped[0], swapped[k] = swapped[k], swapped[0]
        self.assertNotEqual(checks.check_matching(self.match, swapped), [])


if __name__ == "__main__":
    unittest.main()
