"""Command-line interface.

    sing milnor <poly> --vars x,y,z
    sing newton <poly> --vars ... [--flags | --number | --phi i,j,k]
    sing spectrum <poly> --vars ... --method wh|newton2d|ts [--with <poly2> --with-vars ...]
    sing bfun <poly> --vars ...            (weighted homogeneous only)
    sing fnm check <file.json> [--j N]
    sing family make a b c | sweep --bmax B [--certify] | certify a b c [--out FILE]
    sing verify-paper [--item ID]

JSON on stdout is the single source of truth; --pretty renders a
human-readable view of the same JSON.  Every rational is serialized as an
exact string.  Exit codes: 0 success, 1 check or verdict failure, 2
precondition or parse error.  A reader that closes stdout early (``| head``)
ends the command quietly with 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import asdict

from . import certificates, family, milnor, newton, spectrum
from .errors import (
    ConsistencyCheckError,
    ConstraintViolationError,
    PolyParseError,
    PreconditionError,
    SingError,
    SpectrumCountMismatchError,
)
from .poly import parse_poly, serialize, weighted_homogeneity
from .ratio import rat_to_str

OK, CHECK_FAILED, BAD_INPUT = 0, 1, 2


def _split_vars(s: str) -> list[str]:
    names = [v.strip() for v in s.split(",") if v.strip()]
    if not names:
        raise PreconditionError("--vars must list at least one variable")
    return names


def _emit(obj: dict, pretty: bool, render) -> None:
    if pretty:
        print(render(obj))
    else:
        print(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# pretty renderers (always derived from the JSON object)


def _render_milnor(obj: dict) -> str:
    lines = [f"status: {obj['status']}"]
    if obj["status"] == "FINITE":
        lines.append(f"milnor number: {obj['milnor_number']}")
        lines.append(f"truncation level: {obj['truncation_degree']}")
        stair = [tuple(e) for e in obj["staircase"]]
        if stair and len(stair[0]) == 2:
            lines.append("staircase:")
            max_x = max(e[0] for e in stair)
            max_y = max(e[1] for e in stair)
            cells = set(stair)
            for y in range(max_y, -1, -1):
                row = "".join("#" if (x, y) in cells else "." for x in range(max_x + 1))
                lines.append(f"  {y:3d} {row}")
            lines.append("      " + "".join(str(x % 10) for x in range(max_x + 1)))
    return "\n".join(lines)


def _render_newton(obj: dict) -> str:
    lines = []
    if "facets" in obj:
        lines.append("compact facets:")
        for f in obj["facets"]:
            lines.append(f"  ell = ({', '.join(f['functional'])})  vertices {f['vertices']}")
    for key in ("convenient", "nondegenerate", "degenerate_face", "newton_number", "phi"):
        if key in obj:
            lines.append(f"{key}: {obj[key]}")
    return "\n".join(lines)


def _render_spectrum(obj: dict) -> str:
    lines = [f"mu = {obj['count']} (n = {obj['nvars']})"]
    for v, m in obj["values"]:
        lines.append(f"  {v}" + (f"  x{m}" if m > 1 else ""))
    return "\n".join(lines)


def _render_bfun(obj: dict) -> str:
    lines = [f"weights: ({', '.join(obj['weights'])})", "roots of the reduced b-function:"]
    for r in obj["roots"]:
        lines.append(f"  alpha = {r['alpha']}  multiplicity {r['multiplicity']}")
    return "\n".join(lines)


def _render_fnm(obj: dict) -> str:
    lines = [f"dim = {obj['dim']}, nilpotency order = {obj['m_tilde']}"]
    for lv in obj["levels"]:
        lines.append(
            f"  level {lv['level']}: dim G = {lv['dim_g']}, gr = {lv['dim_gr']}, "
            f"gr of coinvariants = {lv['dim_gr_coinvariants']}, order = {lv['nilpotency_order']}"
        )
    lines.append(f"strict: {obj['strict']}")
    lines.append(f"jordan: ambient {obj['jordan_ambient']} vs graded {obj['jordan_graded']}")
    if "question1" in obj:
        lines.append(f"question1 at j={obj['question1']['j']}: {obj['question1']['answer']}")
    return "\n".join(lines)


def _render_cert(obj: dict) -> str:
    lines = [
        f"family (a, b, c) = ({obj['params']['a']}, {obj['params']['b']}, {obj['params']['c']})",
        f"beta0 = {obj['params']['beta0']}   status: {obj['status']}",
    ]
    for s in obj["steps"]:
        lines.append(f"  [ok] step {s['id']:>4}  {s['name']}")
    if obj["status"] != "CERTIFIED":
        lines.append(f"  [!!] step {obj['failed_step']} failed: {obj['failure']}")
    else:
        v = obj["verdicts"]
        lines.append(
            f"verdict: {v['question1']} at alpha = {v['b_root']['alpha']} "
            f"(root multiplicity {v['b_root']['multiplicity']}), "
            f"strictness {str(v['strictness']).lower()}, "
            f"jordan mismatch {str(v['jordan_mismatch']).lower()}"
        )
    return "\n".join(lines)


def _render_sweep(obj: dict) -> str:
    lines = [f"instances with b <= {obj['bmax']}:"]
    for inst in obj["instances"]:
        status = f"  {inst['status']} {inst.get('failed_step', '')}" if "status" in inst else ""
        lines.append(f"  a={inst['a']} b={inst['b']} c={inst['c']}{status}".rstrip())
    lines.append(f"near misses: {len(obj['near_misses'])}")
    for key in ("status_counts", "failed_step_counts"):
        if key in obj:
            lines.append(f"{key}: " + json.dumps(obj[key]))
    return "\n".join(lines)


def _render_verify(obj: dict) -> str:
    lines = []
    for it in obj["items"]:
        mark = "PASS" if it["passed"] else "FAIL"
        lines.append(f"[{mark}] {it['id']}: {it['description']}")
        if not it["passed"]:
            lines.append(f"       expected: {it['expected']}")
            lines.append(f"       actual:   {it['actual']}")
    lines.append(f"{obj['passed']}/{obj['total']} passed")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_milnor(args) -> int:
    f = parse_poly(args.poly, _split_vars(args.vars))
    res = milnor.milnor_basis(f, args.jet_cap)
    obj = {
        "status": res.status,
        "milnor_number": res.milnor_number,
        "staircase": [list(e) for e in sorted(res.staircase)],
        "truncation_degree": res.truncation_degree,
    }
    _emit(obj, args.pretty, _render_milnor)
    return OK if res.status == "FINITE" else CHECK_FAILED


def _cmd_newton(args) -> int:
    f = parse_poly(args.poly, _split_vars(args.vars))
    obj: dict = {}
    if args.number:
        obj["newton_number"] = newton.newton_number(f)
    elif args.flags:
        fl = newton.newton_flags(f)
        obj["convenient"] = fl.convenient
        obj["nondegenerate"] = fl.nondegenerate
        if fl.degenerate_face is not None:
            obj["degenerate_face"] = [list(a) for a in fl.degenerate_face]
    elif args.phi:
        obj["point"] = args.phi
        obj["phi"] = rat_to_str(newton.phi_value(newton.newton_polyhedron(f), args.phi))
    else:
        P = newton.newton_polyhedron(f)
        obj["facets"] = [
            {
                "functional": [rat_to_str(c) for c in F.functional],
                "vertices": [list(v) for v in sorted(F.vertices)],
            }
            for F in P.facets
        ]
    _emit(obj, args.pretty, _render_newton)
    return OK


def _spectrum_auto(f):
    w = weighted_homogeneity(f)
    if w is not None:
        return spectrum.spectrum_wh(f, w)
    if f.nvars == 2:
        return spectrum.spectrum_newton_2d(f)
    raise PreconditionError(
        "no automatic spectrum method for this germ (not weighted homogeneous, n != 2)"
    )


def _cmd_spectrum(args) -> int:
    f = parse_poly(args.poly, _split_vars(args.vars))
    if args.method == "wh":
        w = weighted_homogeneity(f)
        if w is None:
            raise PreconditionError("germ is not weighted homogeneous")
        s = spectrum.spectrum_wh(f, w)
    elif args.method == "newton2d":
        s = spectrum.spectrum_newton_2d(f)
    else:  # ts
        if not args.with_poly or not args.with_vars:
            raise PreconditionError("--method ts requires --with and --with-vars")
        f2 = parse_poly(args.with_poly, _split_vars(args.with_vars))
        s = spectrum.thom_sebastiani(_spectrum_auto(f), _spectrum_auto(f2))
    mults = sorted(s.multiplicities().items())
    obj = {
        "nvars": s.nvars,
        "count": len(s),
        "values": [[rat_to_str(v), m] for v, m in mults],
    }
    _emit(obj, args.pretty, _render_spectrum)
    return OK


def _cmd_bfun(args) -> int:
    f = parse_poly(args.poly, _split_vars(args.vars))
    w = weighted_homogeneity(f)
    if w is None:
        raise PreconditionError("bfun requires a weighted homogeneous germ")
    s = spectrum.spectrum_wh(f, w)
    bp = certificates.btilde_wh(s)
    obj = {
        "weights": [rat_to_str(x) for x in w],
        "roots": [{"alpha": rat_to_str(a), "multiplicity": m} for a, m in bp.roots],
    }
    _emit(obj, args.pretty, _render_bfun)
    return OK


def _cmd_fnm_check(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        M = certificates.fnm_from_json(fh.read())
    rep = certificates.fnm_report(M)
    obj = {
        "dim": rep.dim,
        "m_tilde": rep.m_tilde,
        "levels": [asdict(lv) for lv in rep.levels],  # LevelReport's fields, in order
        "strict": certificates.strictness_check(M),
        "jordan_ambient": list(rep.jordan_ambient),
        "jordan_graded": list(rep.jordan_graded),
        "jordan_mismatch": rep.jordan_mismatch,
    }
    if args.j is not None:
        q = rep.question1(args.j)
        obj["question1"] = {
            "j": args.j,
            "answer": q.answer,
            "via_max_multiplicity": q.via_max_multiplicity,
        }
    _emit(obj, args.pretty, _render_fnm)
    return OK


def _cmd_family_make(args) -> int:
    p = family.make_family(args.a, args.b, args.c)
    obj = {
        "valid": True,
        "a": p.a,
        "b": p.b,
        "c": p.c,
        "h": serialize(p.h),
        "g": serialize(p.g),
        "deformation_monomial": list(p.deformation_monomial),
        "beta0": rat_to_str(p.beta0),
        "ell1": [rat_to_str(x) for x in p.ell1],
    }
    _emit(obj, args.pretty, lambda o: json.dumps(o, indent=2))
    return OK


def _cmd_family_sweep(args) -> int:
    obj = family.sweep_families(args.bmax)
    if not args.certify:
        _emit(obj, args.pretty, _render_sweep)
        return OK
    for inst in obj["instances"]:
        cert = family.negative_answer_pipeline(family.make_family(inst["a"], inst["b"], inst["c"]))
        inst["status"] = cert["status"]
        if "failed_step" in cert:
            inst["failed_step"] = cert["failed_step"]
    statuses = Counter(inst["status"] for inst in obj["instances"])
    obj["status_counts"] = dict(sorted(statuses.items()))
    obj["failed_step_counts"] = dict(sorted(Counter(
        inst["failed_step"] for inst in obj["instances"] if "failed_step" in inst).items()))
    _emit(obj, args.pretty, _render_sweep)
    return CHECK_FAILED if statuses["INCONCLUSIVE"] else OK


def _cmd_family_certify(args) -> int:
    p = family.make_family(args.a, args.b, args.c)
    cert = family.negative_answer_pipeline(p)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(family.certificate_json(cert))
    _emit(cert, args.pretty, _render_cert)
    return OK if cert["status"] == "CERTIFIED" else CHECK_FAILED


def _cmd_verify(args) -> int:
    rep = family.verify_paper(args.item)
    _emit(rep, args.pretty, _render_verify)
    return OK if rep["all_passed"] else CHECK_FAILED


# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _int_point(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--pretty", action="store_true",
                        help="render a human-readable view instead of JSON")

    ap = argparse.ArgumentParser(prog="sing", description=__doc__, allow_abbrev=False,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("milnor", parents=[common], help="Milnor number and staircase")
    p.add_argument("poly")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.add_argument("--jet-cap", type=_positive_int, default=None,
                   help="work budget: the highest jet level to build")
    p.set_defaults(fn=_cmd_milnor)

    p = sub.add_parser("newton", parents=[common], help="Newton polyhedron data")
    p.add_argument("poly")
    p.add_argument("--vars", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--flags", action="store_true")
    mode.add_argument("--number", action="store_true")
    mode.add_argument("--phi", metavar="i,j,k", type=_int_point,
                      help="filtration value at a point")
    p.set_defaults(fn=_cmd_newton)

    p = sub.add_parser("spectrum", parents=[common], help="singularity spectrum")
    p.add_argument("poly")
    p.add_argument("--vars", required=True)
    p.add_argument("--method", choices=["wh", "newton2d", "ts"], required=True)
    p.add_argument("--with", dest="with_poly", default=None, metavar="POLY2")
    p.add_argument("--with-vars", dest="with_vars", default=None)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("bfun", parents=[common],
                       help="reduced b-function roots (weighted homogeneous)")
    p.add_argument("poly")
    p.add_argument("--vars", required=True)
    p.set_defaults(fn=_cmd_bfun)

    p = sub.add_parser("fnm", allow_abbrev=False, help="filtered nilpotent module checks")
    fnm_sub = p.add_subparsers(dest="fnm_command", required=True)
    pc = fnm_sub.add_parser("check", parents=[common], allow_abbrev=False)
    pc.add_argument("file")
    pc.add_argument("--j", type=int, default=None)
    pc.set_defaults(fn=_cmd_fnm_check)

    p = sub.add_parser("family", allow_abbrev=False, help="deformation family tools")
    fam_sub = p.add_subparsers(dest="family_command", required=True)
    pm = fam_sub.add_parser("make", parents=[common], allow_abbrev=False)
    pm.add_argument("a", type=int)
    pm.add_argument("b", type=int)
    pm.add_argument("c", type=int)
    pm.set_defaults(fn=_cmd_family_make)
    ps = fam_sub.add_parser("sweep", parents=[common], allow_abbrev=False)
    ps.add_argument("--bmax", type=_positive_int, required=True)
    ps.add_argument("--certify", action="store_true",
                    help="certify every instance; exit 1 if any is inconclusive")
    ps.set_defaults(fn=_cmd_family_sweep)
    pc = fam_sub.add_parser("certify", parents=[common], allow_abbrev=False)
    pc.add_argument("a", type=int)
    pc.add_argument("b", type=int)
    pc.add_argument("c", type=int)
    pc.add_argument("--out", default=None, help="also write the certificate to a file")
    pc.set_defaults(fn=_cmd_family_certify)

    p = sub.add_parser("verify-paper", parents=[common], help="golden-value suite")
    p.add_argument("--item", default=None)
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConstraintViolationError as e:
        print(json.dumps({"valid": False, "violations": e.violations}, indent=2))
        return BAD_INPUT
    except (ConsistencyCheckError, SpectrumCountMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return CHECK_FAILED
    except BrokenPipeError:
        # the reader closed stdout early (``sing ... | head``); the input was
        # fine.  Point stdout at devnull so the flush at exit cannot raise again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return OK  # no file descriptor, so nothing is flushed into the pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return OK
    except (PolyParseError, PreconditionError, SingError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
