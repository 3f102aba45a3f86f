import io
import json
import sys

import pytest

from singlib import ConsistencyCheckError, family
from singlib.certificates import fnm_to_json
from singlib.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_milnor_json(capsys):
    code, out, _ = run(capsys, "milnor", "z^5", "--vars", "z")
    assert code == 0
    obj = json.loads(out)
    assert obj["milnor_number"] == 4
    assert obj["staircase"] == [[0], [1], [2], [3]]


def test_milnor_pretty_staircase(capsys):
    code, out, _ = run(capsys, "milnor", "x^2+y^3", "--vars", "x,y", "--pretty")
    assert code == 0
    assert "milnor number: 2" in out
    assert "#" in out  # the staircase picture


def test_milnor_non_isolated_exit_code(capsys):
    code, out, _ = run(capsys, "milnor", "x^2*y^2", "--vars", "x,y", "--jet-cap", "12")
    assert code == 1
    assert json.loads(out)["status"] == "NON_ISOLATED"


def test_failed_consistency_check_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ConsistencyCheckError("spectrum sum rule violated")
    monkeypatch.setattr(family, "negative_answer_pipeline", broken)
    code, _, err = run(capsys, "family", "certify", "7", "3", "5")
    assert code == 1
    assert "sum rule" in err


def test_broken_pipe_exits_quietly(capsys, monkeypatch):
    # a reader that closes stdout early (``sing ... | head``) is not bad input
    class ClosedPipe(io.StringIO):
        def write(self, s):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["family", "sweep", "--bmax", "3", "--pretty"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "milnor", "x^", "--vars", "x")
    assert code == 2
    assert "error" in err


def test_newton_subcommands(capsys):
    code, out, _ = run(capsys, "newton", "x^14+y^14-x^6*y^6+z^5", "--vars", "x,y,z")
    assert code == 0
    obj = json.loads(out)
    assert obj["facets"][0]["functional"] == ["1/14", "2/21", "1/5"]

    code, out, _ = run(capsys, "newton", "x^14+y^14-x^6*y^6", "--vars", "x,y", "--number")
    assert json.loads(out)["newton_number"] == 141

    code, out, _ = run(capsys, "newton", "x^14+y^14-x^6*y^6", "--vars", "x,y", "--flags")
    obj = json.loads(out)
    assert obj == {"convenient": True, "nondegenerate": True}

    # a non-simplicial 2-face with a critical point at (1, 1, 1), decided exactly
    code, out, _ = run(capsys, "newton", "x^3+y^3+z^3-3*x*y*z", "--vars", "x,y,z", "--flags")
    assert code == 0
    obj = json.loads(out)
    assert obj["nondegenerate"] is False
    assert obj["degenerate_face"] == [[0, 0, 3], [0, 3, 0], [1, 1, 1], [3, 0, 0]]

    code, out, _ = run(capsys, "newton", "x^2+2*x*y+y^2+z^3", "--vars", "x,y,z", "--flags",
                       "--pretty")
    assert code == 0
    assert "degenerate_face: [[0, 2, 0], [1, 1, 0], [2, 0, 0]]" in out

    code, out, _ = run(capsys, "newton", "x^14+y^14-x^6*y^6+z^5", "--vars", "x,y,z",
                        "--phi", "10,3,2")
    assert json.loads(out)["phi"] == "7/5"

    code, _, err = run(capsys, "newton", "x^14+y^14-x^6*y^6+z^5", "--vars", "x,y,z",
                       "--phi", "1,1")
    assert code == 2 and "3 coordinates" in err

    # a malformed point is named as such, not as a raw int() error
    for point in ("1,,1", "1/2,1", "x"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "newton", "x^2+y^3", "--vars", "x,y", "--phi", point)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--phi" in err and "comma-separated integers" in err, err


def test_spectrum_methods(capsys):
    code, out, _ = run(capsys, "spectrum", "x^2+y^3", "--vars", "x,y", "--method", "wh")
    assert code == 0
    assert json.loads(out)["values"] == [["5/6", 1], ["7/6", 1]]

    code, out, _ = run(capsys, "spectrum", "x^2+y^3", "--vars", "x,y", "--method", "newton2d")
    assert json.loads(out)["count"] == 2

    code, out, _ = run(
        capsys, "spectrum", "x^2+y^3", "--vars", "x,y",
        "--method", "ts", "--with", "z^5", "--with-vars", "z",
    )
    obj = json.loads(out)
    assert obj["count"] == 8 and obj["nvars"] == 3

    code, _, err = run(capsys, "spectrum", "x^2+y^3", "--vars", "x,y", "--method", "ts")
    assert code == 2

    # --jet-cap belongs to the commands that compute jets under a cap
    with pytest.raises(SystemExit) as exc:
        run(capsys, "spectrum", "x^2+y^3", "--vars", "x,y", "--method", "wh", "--jet-cap", "3")
    assert exc.value.code == 2

    # a jet cap is a positive degree; 0 is not "the default" and -3 is not a cap
    for cmd in (("milnor", "x^5+y^7", "--vars", "x,y"), ("family", "certify", "7", "3", "5")):
        for cap in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                run(capsys, *cmd, "--jet-cap", cap)
            assert exc.value.code == 2
            assert "positive integer" in capsys.readouterr().err


def test_bfun(capsys):
    code, out, _ = run(capsys, "bfun", "z^5", "--vars", "z")
    assert code == 0
    assert json.loads(out)["roots"][0] == {"alpha": "1/5", "multiplicity": 1}
    code, _, err = run(capsys, "bfun", "x^14+y^14-x^6*y^6", "--vars", "x,y")
    assert code == 2


def test_fnm_check(capsys, tmp_path):
    from singlib import FilteredNilpotentModule

    M = FilteredNilpotentModule(
        2, ((0, 0), (1, 0)), ((0, ((0, 1),)), (1, ((1, 0), (0, 1))))
    )
    path = tmp_path / "module.json"
    path.write_text(fnm_to_json(M))
    code, out, _ = run(capsys, "fnm", "check", str(path), "--j", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["m_tilde"] == 2
    assert obj["strict"] is False
    assert obj["question1"]["answer"] == "NEGATIVE"
    assert obj["jordan_mismatch"] is True

    path.write_text("{broken")
    code, _, err = run(capsys, "fnm", "check", str(path))
    assert code == 2

    obj = json.loads(fnm_to_json(M))
    obj["N"][2] = "1/0"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "fnm", "check", str(path))
    assert code == 2 and "malformed" in err
    obj = json.loads(fnm_to_json(M))
    obj["G"][0]["spanning_vectors"][0][1] = "1/0"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "fnm", "check", str(path))
    assert code == 2 and "malformed" in err


def test_fnm_check_wrong_json_types_exit_2(capsys, tmp_path, malformed_fnm):
    path = tmp_path / "module.json"
    path.write_text(malformed_fnm)
    code, out, err = run(capsys, "fnm", "check", str(path))
    assert code == 2 and out == "" and "malformed" in err


def test_family_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "family", "make", "7", "3", "5")
    assert code == 0
    assert json.loads(out)["beta0"] == "13/30"

    code, out, _ = run(capsys, "family", "make", "7", "3", "6")
    assert code == 2
    assert json.loads(out)["valid"] is False

    code, out, _ = run(capsys, "family", "sweep", "--bmax", "3")
    obj = json.loads(out)
    assert {(d["a"], d["b"], d["c"]) for d in obj["instances"]} == {(7, 3, 5)}

    out_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "family", "certify", "7", "3", "5", "--out", str(out_file))
    assert code == 0
    assert json.loads(out)["status"] == "CERTIFIED"
    assert json.loads(out_file.read_text())["verdicts"]["question1"] == "NEGATIVE"


def test_family_sweep_certify(capsys, monkeypatch):
    code, out, _ = run(capsys, "family", "sweep", "--bmax", "3", "--certify")
    assert code == 0
    obj = json.loads(out)
    assert [d["status"] for d in obj["instances"]] == ["CERTIFIED"]
    assert obj["status_counts"] == {"CERTIFIED": 1}
    assert obj["failed_step_counts"] == {}

    def inconclusive(params, jet_cap=None):
        return {"status": "INCONCLUSIVE", "failed_step": "i"}
    monkeypatch.setattr(family, "negative_answer_pipeline", inconclusive)
    code, out, _ = run(capsys, "family", "sweep", "--bmax", "3", "--certify")
    assert code == 1
    obj = json.loads(out)
    assert obj["instances"][0]["failed_step"] == "i"
    assert obj["status_counts"] == {"INCONCLUSIVE": 1}
    assert obj["failed_step_counts"] == {"i": 1}


def test_family_sweep_bmax_is_positive(capsys):
    # an empty sweep is not a result: --bmax takes the same type as --jet-cap
    for argv in (("--bmax", "0"), ("--bmax", "-2", "--certify"), ("--bmax", "x")):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "family", "sweep", *argv)
        assert exc.value.code == 2
        assert "--bmax" in capsys.readouterr().err


def test_family_certify_simplex_face_instance(capsys):
    # the face {(64,0,0), (14,14,0), (0,0,13)} of g is a triangle, nondegenerate
    # in closed form; its membership certificate would exceed the degree budget
    code, out, _ = run(capsys, "family", "certify", "32", "7", "13")
    assert code == 0
    assert json.loads(out)["status"] == "CERTIFIED"


def test_verify_paper_single_item(capsys):
    code, out, _ = run(capsys, "verify-paper", "--item", "4.2.1-v-values")
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_verify_paper_pretty(capsys):
    code, out, _ = run(capsys, "verify-paper", "--item", "remark-4.3-enumeration", "--pretty")
    assert code == 0
    assert "[PASS]" in out
