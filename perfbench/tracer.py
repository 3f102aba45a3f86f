"""Spans around the library's public functions, and the per-layer metrics.

``Tracer.install`` wraps every public function of the library's modules,
in the defining module and wherever another module (or the package)
imported it by name, so that ``spectrum.newton_flags`` or ``milnor.rank``
record spans too.  Each span is (name, start, end, parent) and stays in
memory until ``write`` saves them at the end of the run.  Counts are taken
at the same boundaries and snapshotted per round, so that runs with the
same seed can be compared exactly.

Functions called once per monomial or per value (the local-order sort keys,
``weighted_degree``, and the ``ratio`` conversions) are not wrapped: a span
there would cost more than the work it measures.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter

MODULES = ("poly", "milnor", "newton", "spectrum", "brieskorn", "certificates",
           "linalg", "matching", "family", "cli")
SKIP = {"milnor.negdegrevlex_key", "milnor.negdeglex_key", "poly.weighted_degree"}
FNM_CLASS = "certificates.FilteredNilpotentModule"

# per-layer self-time metric -> the spans whose self time it sums
SELF_TIME = {
    "poly.parse_s": ["poly.parse_poly"],
    "poly.weights_s": ["poly.weighted_homogeneity"],
    "milnor.basis_s": ["milnor.milnor_basis"],
    "milnor.normal_form_s": ["milnor.normal_form"],
    "milnor.basis_check_s": ["milnor.is_monomial_basis"],
    "newton.polyhedron_s": ["newton.newton_polyhedron"],
    "newton.faces_s": ["newton.compact_faces"],
    "newton.flags_s": ["newton.newton_flags"],
    "newton.number_s": ["newton.newton_number"],
    "newton.phi_s": ["newton.phi_value"],
    "spectrum.newton2d_s": ["spectrum.spectrum_newton_2d"],
    "spectrum.wh_s": ["spectrum.spectrum_wh"],
    "spectrum.ts_s": ["spectrum.thom_sebastiani"],
    "spectrum.query_s": ["spectrum.kth", "spectrum.multiplicity", "spectrum.count_le",
                         "spectrum.eigenspace_dim", "spectrum.congruent_values"],
    "brieskorn.euler_s": ["brieskorn.euler_relation"],
    "brieskorn.taylor_s": ["brieskorn.taylor_term_value"],
    "brieskorn.exclusion_s": ["brieskorn.component_exclusion", "brieskorn.monoid_membership"],
    "certificates.fnm_build_s": ["certificates.fnm_from_json", "certificates.fnm_to_json",
                                 FNM_CLASS],
    "certificates.report_s": ["certificates.fnm_report", "certificates.nilpotency_order"],
    "certificates.strictness_s": ["certificates.strictness_check",
                                  "certificates.power_strictness"],
    "certificates.verdict_s": ["certificates.question1_verdict"],
    "certificates.jordan_s": ["certificates.jordan_types"],
    "certificates.matching_s": ["certificates.delta_matching"],
    "linalg.rref_s": ["linalg.rref", "linalg.echelon_basis", "linalg.rank", "linalg.in_span",
                      "linalg.subspace_sum", "linalg.subspace_contains", "linalg.nullspace",
                      "linalg.subspace_intersection"],
    "linalg.matpow_s": ["linalg.mat_pow", "linalg.mat_mul", "linalg.mat_vec"],
    "linalg.feasible_s": ["linalg.feasible_point"],
    "linalg.solve_s": ["linalg.solve_linear", "linalg.hermite_basis", "linalg.lattice_coords"],
    "matching.assign_s": ["matching.min_cost_perfect_matching"],
    "family.certify_s": ["family.negative_answer_pipeline", "family.make_family",
                         "family.family_violations"],
    "family.verify_s": ["family.verify_paper"],
    "cli.main_s": ["cli.main"],
}


def _one(args, res):
    return 1


def _size(args, res):
    return len(res)


def _first_arg_size(args, res):
    return len(args[0])


# (counted metric, span name, how much one call adds)
COUNTS = (
    ("milnor.basis_calls", "milnor.milnor_basis", _one),
    ("milnor.jet_level", "milnor.milnor_basis", lambda args, res: res.truncation_degree),
    ("milnor.mu", "milnor.milnor_basis", lambda args, res: res.milnor_number or 0),
    ("newton.faces", "newton.compact_faces", _size),
    ("newton.phi_calls", "newton.phi_value", _one),
    ("newton.undecided", "newton.newton_flags",
     lambda args, res: int(res.nondegenerate == "UNDECIDED")),
    ("spectrum.values", "spectrum.spectrum_wh", _size),
    ("spectrum.values", "spectrum.spectrum_newton_2d", _size),
    ("spectrum.values", "spectrum.thom_sebastiani", _size),
    ("certificates.report_calls", "certificates.fnm_report", _one),
    ("linalg.rref_calls", "linalg.rref", _one),
    ("linalg.rref_rows", "linalg.rref", _first_arg_size),
    ("linalg.matpow_calls", "linalg.mat_pow", _one),
    ("linalg.feasible_calls", "linalg.feasible_point", _one),
    ("matching.assign_n", "matching.min_cost_perfect_matching", _first_arg_size),
)
# counted by the benchmark itself: bytes of certificate JSON that `sing` printed
CERT_BYTES = "family.cert_bytes"
# counts that must repeat exactly between rounds and between runs
EXACT = ("milnor.jet_level", "milnor.mu", "spectrum.values", "newton.faces",
         "linalg.rref_calls", "matching.assign_n", "certificates.report_calls", CERT_BYTES)


def count_names() -> list[str]:
    return sorted({metric for metric, _, _ in COUNTS} | {CERT_BYTES})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index)
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.rounds: list[dict] = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        counters = [(metric, f) for metric, span, f in COUNTS if span == name]
        clock = time.perf_counter_ns

        # the span bookkeeping of ``span`` inlined: a wrapped call then costs
        # about 1.2 us, where a context manager would cost several times that
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            for metric, f in counters:
                counts[metric] += f(args, res)
            return res
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one op."""
        nid, spans, stack = self._name_id(name), self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (nid, start, end, parent)

    def install(self, lib) -> None:
        namespaces = [vars(lib)] + [vars(getattr(lib, m)) for m in MODULES]
        for short in MODULES:
            mod = getattr(lib, short)
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(name, obj)
                for ns in namespaces:
                    for key, val in list(ns.items()):
                        if val is obj:
                            self._undo.append((ns, key, obj))
                            ns[key] = wrapper
        cls = lib.certificates.FilteredNilpotentModule
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap(FNM_CLASS, cls.__init__)

    def uninstall(self) -> None:
        for target, key, obj in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = obj
            else:
                setattr(target, key, obj)
        self._undo.clear()

    def end_round(self) -> None:
        self.rounds.append(dict(self.counts))
        self.counts.clear()

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self seconds per span name, and the summed duration of op spans."""
        dur = [0] * len(self.spans)
        child = [0] * len(self.spans)
        for i, (nid, start, end, parent) in enumerate(self.spans):
            dur[i] = end - start
            if parent >= 0:
                child[parent] += dur[i]
        out: Counter = Counter()
        op_ns = 0
        for i, (nid, _, _, parent) in enumerate(self.spans):
            out[self.names[nid]] += dur[i] - child[i]
            if parent < 0:
                op_ns += dur[i]
        return {k: v / 1e9 for k, v in out.items()}, op_ns / 1e9

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans, "round_counts": self.rounds}, fh)
            fh.write("\n")


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """(value, unit): self seconds per round for every SELF_TIME metric, and
    the share of the op spans' time that those self times cover."""
    selfs, op_s = tracer.self_times()
    per_round = {m: sum(selfs.get(n, 0.0) for n in names) / rounds
                 for m, names in SELF_TIME.items()}
    out = {m: (v, "s") for m, v in per_round.items()}
    out["trace.self_share"] = (sum(per_round.values()) * rounds / op_s if op_s else 0.0, "share")
    return out
