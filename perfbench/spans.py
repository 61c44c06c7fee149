"""Spans and counters around orecalc's public functions, for the traced run.

The tracer replaces functions and methods of the imported orecalc package by
wrappers (every module namespace that bound the original is patched, so calls
between orecalc's own modules are seen too).  Nothing is changed inside
src/.  A span records its name, start, end, its parent span and the
operation it belongs to; a span's self time is its duration minus the time
its child spans cover.  Hot functions (field arithmetic, evaluation) only
count calls, and compose_affine keeps aggregate times without a record per
call, so the trace stays small enough to keep in memory.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (metric layer name, module, attribute): functions that get a recorded span.
SPANS = [
    ("gf.build", "gf", "GF"),
    ("gf.build", "gf", "tower_over"),
    ("gf.build", "poly", "splitting_tower"),
    ("poly.roots", "poly", "roots_with_multiplicity"),
    ("poly.roots", "poly", "roots_in_ext"),
    ("eigengroup.closed", "eigengroup", "eigengroup_closed"),
    ("eigengroup.shift_space", "eigengroup", "shift_space"),
    ("eigengroup.descend", "eigengroup", "eigengroup_descend"),
    ("lambda_aut.iso", "lambda_aut", "are_isomorphic"),
    ("lambda_aut.aut_group", "lambda_aut", "aut_group"),
    ("modules_spectra.module", "modules_spectra", "simple_module_off_f"),
    ("modules_spectra.module", "modules_spectra", "simple_module_on_f"),
    ("modules_spectra.word_span", "modules_spectra", "word_span_dim"),
    ("modules_spectra.cyclic_check", "modules_spectra", "all_basis_vectors_cyclic"),
    ("modules_spectra.spectrum", "modules_spectra", "spectrum"),
    ("modules_spectra.factor", "modules_spectra", "factor_into_irreducibles"),
    ("parsing.parse", "parsing", "parse_field"),
    ("parsing.parse", "parsing", "parse_poly"),
]
# (span name, module, class, method)
METHOD_SPANS = [
    ("ore.verify", "lambda_aut", "OreHom", "verify"),
    ("ore.centre", "ore", "OreAlgebra", "centre_generators"),
    ("poly.compose_affine", "poly", "Poly", "compose_affine"),
]
# (counter name, module, class, method)
COUNTED = [
    ("gf.add_calls", "gf", "FieldDesc", "add"),
    ("gf.add_calls", "gf", "FieldDesc", "sub"),
    ("gf.add_calls", "gf", "FieldDesc", "neg"),
    ("gf.mul_calls", "gf", "FieldDesc", "mul"),
    ("gf.mul_calls", "gf", "FieldDesc", "inv"),
    ("gf.mul_calls", "gf", "FieldDesc", "pow"),
    ("poly.eval_calls", "poly", "Poly", "eval_value"),
]
UNRECORDED = {"poly.compose_affine"}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []  # frames: [name, start, child time, span id]
        self.records: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.agg: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.counts: Counter = Counter()
        self.op_id = 0

    def span(self, name: str, fn):
        clock, stack, agg = self.clock, self.stack, self.agg
        record = name not in UNRECORDED
        tracer = self
        agg.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if name == "poly.compose_affine" and stack and stack[-1][0] == "lambda_aut.iso":
                tracer.counts["lambda_aut.iso_pairs_tried"] += 1
            if record:
                sid = len(tracer.records)
                tracer.records.append(None)
            else:
                sid = stack[-1][3] if stack else None
            frame = [name, clock(), 0.0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                a = agg[name]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if record:
                    parent = stack[-1][3] if stack else None
                    tracer.records[sid] = (sid, name, frame[1], end, parent, tracer.op_id)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, orecalc) -> None:
        """Wrap orecalc's functions in every module that imported them."""
        mods = [m for n, m in sys.modules.items() if n == "orecalc" or n.startswith("orecalc.")]
        sub = lambda modname: sys.modules[f"orecalc.{modname}"]  # noqa: E731
        for name, modname, attr in SPANS:
            orig = getattr(sub(modname), attr)
            wrapped = self.span(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
        for name, modname, cls, meth in METHOD_SPANS:
            klass = getattr(sub(modname), cls)
            setattr(klass, meth, self.span(name, getattr(klass, meth)))
        for name, modname, cls, meth in COUNTED:
            klass = getattr(sub(modname), cls)
            setattr(klass, meth, self.counter(name, getattr(klass, meth)))

    def snapshot(self) -> dict:
        return {"agg": self.agg, "counts": dict(self.counts)}

    def merge(self, snap: dict) -> None:
        """Fold in the aggregates of a traced child process."""
        for name, (calls, total, self_t) in snap["agg"].items():
            a = self.agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_t
        self.counts.update(snap["counts"])

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                if rec is not None:
                    sid, name, start, end, parent, op = rec
                    fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")



if __name__ == "__main__":
    # A traced `orecalc` query: python3 spans.py <orecalc arguments>.  Prints
    # the CLI's answer, then one line with this process's span aggregates.
    import orecalc
    import orecalc.cli

    tracer = Tracer()
    tracer.install(orecalc)
    code, text = orecalc.cli.run(sys.argv[1:])
    print(text, file=sys.stdout if code == 0 else sys.stderr)
    print(json.dumps(tracer.snapshot()))
    sys.exit(code)
