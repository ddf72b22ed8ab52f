"""Run one faceq CLI job with timing spans around each layer's public calls.

Usage: python trace_child.py SPANS_PATH JOB_ID <faceq cli arguments>

Wrappers are installed from outside the program: methods on the linalg
classes, functions as module attributes (so calls from inside the same
module and from other modules both go through them).  Spans stay in memory
and are written to SPANS_PATH as JSON once the job ends.  The exit code is
the CLI's.
"""

import importlib
import json
import sys
import time

# Dotted paths under the faceq package: the wrapped callable and its span name.
SPAN_NAMES = (
    "linalg.Subspace.reduce",
    "linalg.Echelon.add",
    "linalg.Echelon.finalize",
    "wba.from_face_algebra",
    "wba.check_axioms",
    "wba.counital_subalgebra",
    "wba.biideal_graded_pieces",
    "wba.check_biideal",
    "wba.quotient_wba",
    "coaction.check_comodule_algebra",
    "coaction.check_structure_lemmas",
    "coaction.search_base_iso",
    "uqsgd.build_uqsgd",
    "uqsgd.coaction_relations",
    "uqsgd.check_quadratic_dualities",
    "pathalg.ideal_graded_piece",
    "pathalg.quadratic_dual",
    "pathalg.parse_relations",
    "quiver.enumerate_paths",
    "quiver.parse_quiver",
    "face.face_basis",
    "cli._emit",
)


class Tracer:
    """Span store for one job: spans as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"linalg.Echelon.add.rank_grew": 0, "wba.product_entries": 0}

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self.observe(name, result)
            return result

        return traced

    def observe(self, name, result):
        if name == "linalg.Echelon.add" and result:
            self.counts["linalg.Echelon.add.rank_grew"] += 1
        elif name == "wba.from_face_algebra":
            self.counts["wba.product_entries"] += len(result.product)

    def install(self):
        """Replace each named module function or class method by its wrapper."""
        for name in SPAN_NAMES:
            module, *inner, attr = name.split(".")
            owner = importlib.import_module(f"faceq.{module}")
            for part in inner:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))


def main(argv):
    spans_path, job_id, *cli_argv = argv
    tracer = Tracer()
    tracer.install()
    code = importlib.import_module("faceq.cli").main(cli_argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"job": job_id, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
