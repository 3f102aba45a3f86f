import hashlib
import json
from fractions import Fraction as F

import pytest

from singlib import (
    ConstraintViolationError,
    enumerate_family,
    family_violations,
    fnm_from_json,
    make_family,
    negative_answer_pipeline,
    sweep_families,
    verify_paper,
)
from singlib.family import FamilyParams, certificate_json
from singlib.poly import parse_poly, serialize


def test_make_family_reference_instance():
    p = make_family(7, 3, 5)
    assert serialize(p.h) == "x^14+y^14-x^6*y^6"
    assert serialize(p.g) == "x^14+y^14-x^6*y^6+z^5"
    assert p.deformation_monomial == (9, 2, 1)
    assert p.beta0 == F(13, 30)
    assert p.ell1 == (F(1, 14), F(2, 21), F(1, 5))
    assert serialize(p.deformed()) == "x^14+y^14-x^9*y^2*z-x^6*y^6+z^5"


def test_make_family_rejects_violations():
    with pytest.raises(ConstraintViolationError) as e:
        make_family(7, 3, 6)
    msgs = e.value.violations
    assert any("2b > c" in m for m in msgs)
    assert any("gcd(b, c)" in m for m in msgs)
    assert family_violations(5, 3, 5) == ["gcd(a, c) = 5 != 1", "a > 2b fails (5 <= 6)"]


def test_enumeration_b3_c5_gives_exactly_a7():
    assert [(p.a, p.b, p.c) for p in enumerate_family(3, 5)] == [(7, 3, 5)]


def test_sweep_is_canonical_and_revalidates():
    sw = sweep_families(5)
    insts = [(d["b"], d["c"], d["a"]) for d in sw["instances"]]
    assert insts == sorted(insts)
    assert {(d["a"], d["b"], d["c"]) for d in sw["instances"]} >= {(7, 3, 5)}
    for d in sw["instances"]:
        assert family_violations(d["a"], d["b"], d["c"]) == []
    for d in sw["near_misses"]:
        assert len(family_violations(d["a"], d["b"], d["c"])) == 1


def test_pipeline_certificate_values():
    cert = negative_answer_pipeline(make_family(7, 3, 5))
    assert cert["status"] == "CERTIFIED"
    s = cert["summary"]
    assert s["mu_h"] == 141 and s["mu_g"] == 564
    assert s["beta0"] == "13/30"
    assert s["eigenspace_dim"] == 2
    assert s["alpha_g2"] == "46/105"
    assert s["taylor_levels"] == ["11/30", "2/5", "13/30", "7/15"]
    assert s["euler_c"] == "43/30"
    assert s["euler_remainder_coefficient"] == "1/3"
    v = cert["verdicts"]
    assert v["question1"] == "NEGATIVE"
    assert v["b_root"] == {"alpha": "13/30", "multiplicity": 1}
    assert v["strictness"] is False
    assert v["jordan_mismatch"] is True


def test_pipeline_determinism():
    c1 = certificate_json(negative_answer_pipeline(make_family(7, 3, 5)))
    c2 = certificate_json(negative_answer_pipeline(make_family(7, 3, 5)))
    assert c1 == c2


# sha256 of the 18 certificates with b <= 6, in sweep order, then verify-paper
CERTIFICATES_SHA256 = "c2df1c62b14b57eb9d30a3445d04a1b578302c67742d5a86faf87f58da1e4853"


def test_certificates_pinned():
    """Equal parameters give byte-identical certificates, release to release.

    The digest covers the ``certificate_json`` output of every instance with
    b <= 6 and the JSON of ``verify_paper()``.  It was taken from the
    Fraction-based spectrum layer, before the integer one replaced it.  A
    change that is meant to alter certificate bytes (a declared
    ``SCHEMA_VERSION`` bump) updates the digest in the same commit; any other
    change must leave it alone.
    """
    instances = sweep_families(6)["instances"]
    assert len(instances) == 18
    digest = hashlib.sha256()
    for d in instances:
        cert = negative_answer_pipeline(make_family(d["a"], d["b"], d["c"]))
        digest.update(certificate_json(cert).encode())
    digest.update(certificate_json(verify_paper()).encode())
    assert digest.hexdigest() == CERTIFICATES_SHA256


def test_pipeline_builds_one_polyhedron_per_germ(monkeypatch):
    # steps (i)-(iv), (vii) and (viii) read the polyhedra of h and g built in step (i)
    from singlib import newton

    calls = []
    facets = newton._facets

    def counting(support, n):
        calls.append(n)
        return facets(support, n)

    monkeypatch.setattr(newton, "_facets", counting)
    cert = negative_answer_pipeline(make_family(7, 3, 5))
    assert cert["status"] == "CERTIFIED"
    assert calls == [2, 3]


def test_certificate_soundness_is_machine_checkable():
    cert = negative_answer_pipeline(make_family(7, 3, 5))
    # verdicts present => every step recorded as passed, checkable from the
    # certificate alone
    assert "verdicts" in cert
    assert [s["id"] for s in cert["steps"]] == ["i", "ii", "iii", "iv", "v", "vi",
                                                "vii", "viii", "ix", "x"]
    assert all(s["passed"] for s in cert["steps"])
    # the congruence-class step records that beta0 itself is not spectral
    step_v = next(s for s in cert["steps"] if s["id"] == "v")
    assert step_v["data"]["beta0_in_spectrum"] is False
    assert step_v["data"]["eigenspace_dim"] == 2


def test_pipeline_embedded_fnm_matches_hand_built():
    cert = negative_answer_pipeline(make_family(7, 3, 5))
    step_x = next(s for s in cert["steps"] if s["id"] == "x")
    M = fnm_from_json(json.dumps(step_x["data"]["fnm"]))
    from singlib import FilteredNilpotentModule

    hand = FilteredNilpotentModule(
        2, ((0, 0), (1, 0)), ((0, ((0, 1),)), (1, ((1, 0), (0, 1))))
    )
    assert M == hand


def test_pipeline_inconclusive_names_first_failed_step():
    # tamper with beta0: the congruence class at 1/2 is not the required shape
    p = make_family(7, 3, 5)

    class Tampered(FamilyParams):
        @property
        def beta0(self):
            return F(1, 2)

    cert = negative_answer_pipeline(Tampered(p.a, p.b, p.c))
    assert cert["status"] == "INCONCLUSIVE"
    assert cert["failed_step"] == "v"
    assert "verdicts" not in cert
    # all steps recorded before the failure passed
    assert [s["id"] for s in cert["steps"]] == ["i", "ii", "iii", "iv"]


def test_pipeline_names_the_degenerate_face():
    p = make_family(7, 3, 5)

    class Degenerate(FamilyParams):
        @property
        def g(self):
            return parse_poly("x^2+2*x*y+y^2+z^3", ["x", "y", "z"])

    cert = negative_answer_pipeline(Degenerate(p.a, p.b, p.c))
    assert cert["status"] == "INCONCLUSIVE"
    assert cert["failed_step"] == "i"
    assert cert["failure"] == ("g flags: convenient=True nondegenerate=False, "
                               "degenerate face [[0, 2, 0], [1, 1, 0], [2, 0, 0]]")


def test_verify_paper_all_pass():
    rep = verify_paper()
    failing = [r["id"] for r in rep["items"] if not r["passed"]]
    assert rep["all_passed"], f"failing golden items: {failing}"


def test_verify_paper_single_item():
    rep = verify_paper("4.2.1-v-values")
    assert rep["total"] == 1 and rep["all_passed"]
    with pytest.raises(Exception):
        verify_paper("no-such-item")
