"""Command line front end.

Five subcommands: face (face algebra presentation and axioms), verify
(canonical coactions and base isomorphisms), coact (verify one coaction,
canonical or from a document), uqsgd (build and verify a universal quantum
semigroupoid of a quadratic quotient), dual (quadratic dual presentation
and duality transports).  Inputs are JSON documents; reports are JSON with
a formatVersion field, rendered deterministically.  Exit codes: 0 all
checks pass, 1 a verification failed, 2 malformed input or options,
3 unsupported input shape, a window too large for the quiver among them.
"""

import argparse
import json
import sys

from . import coaction as co
from . import face as fc
from . import pathalg as pa
from . import quiver as qv
from . import uqsgd as uq
from . import wba
from .errors import ParseError, UnsupportedShapeError, VerificationError

FORMAT_VERSION = "faceq/1"
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_SHAPE = 3
MAX_TABLE_CELLS = 2_000_000


def validate(args):
    """Refuse option values the parser accepts but the command cannot use."""
    if args.max_degree < 0:
        raise ParseError("--max-degree must be nonnegative")
    if args.command in ("uqsgd", "dual"):
        if args.relations is None:
            raise ParseError(f"{args.command} requires --relations")
        if args.max_degree < 2:
            raise ParseError(f"{args.command} requires --max-degree at least 2")


def check_window(q, m):
    """Refuse, before any table is built, a window up to degree m whose
    tables would hold more than MAX_TABLE_CELLS cells.

    Counts h(Q)'s product entries, (d+1) n_d^2 in degree d, and coproduct
    terms, n_d^3, with n_d the number of paths of length d, plus one cell
    per degree triple d + e + f <= m for the counit splits, which visit
    every triple of degrees with paths: on the one-loop quiver at degree
    1,996, h(Q) is under 2,000,000 cells but the triples are C(1999, 3).
    The count stops once it passes the bound.
    """
    cells = (m + 1) * (m + 2) * (m + 3) // 6
    if cells <= MAX_TABLE_CELLS:
        for d, ways in enumerate(qv._paths_from(q, m)):
            n = sum(ways)
            cells += (d + 1) * n * n + n ** 3
            if cells > MAX_TABLE_CELLS:
                break
    if cells > MAX_TABLE_CELLS:
        raise UnsupportedShapeError(
            f"a window up to degree {m} is too large for this quiver: its tables "
            f"would hold more than {MAX_TABLE_CELLS} cells")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="faceq",
        description="Weak bialgebras of quivers and their quadratic quotients.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiver", required=True,
                        help="path to the quiver JSON document")
    common.add_argument("--relations",
                        help="path to a relations document (or a coaction document for coact)")
    common.add_argument("--side", choices=("left", "right", "trans"), default="trans",
                        help="which coaction side to build or verify")
    common.add_argument("--max-degree", type=int, default=4,
                        help="truncation degree for all graded computations")
    common.add_argument("--out", help="write the report to this file instead of stdout")
    common.add_argument("--human", action="store_true",
                        help="plain-text summary instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("face", "present the face algebra of a quiver and check its axioms"),
        ("verify", "verify the canonical coactions, base isomorphisms and lemmas"),
        ("coact", "verify one coaction, canonical or given as a document"),
        ("uqsgd", "build and verify the quantum semigroupoid of a quadratic quotient"),
        ("dual", "present the quadratic dual and check the duality transports"),
    ):
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an overlong int, deep nesting
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def _load_quiver(args):
    """The quiver, its window checked unless a coaction document sets the window."""
    q = qv.parse_quiver(_load_json(args.quiver))
    if args.command != "coact" or args.relations is None:
        check_window(q, args.max_degree)
    return q


def _quiver_doc(q):
    return {
        "vertices": list(q.vertices),
        "arrows": [{"name": a.name, "source": q.vertices[a.source],
                    "target": q.vertices[a.target]} for a in q.arrows],
    }


def _subspace_text(labels_d, subspace):
    return [fc.format_coords(labels_d, row) for row in subspace.basis]


def _coefficients_text(coefficients, host):
    return [[[fc.format_coords(host.labels[d], entry) for entry in row] for row in mat]
            for d, mat in enumerate(coefficients)]


def _coaction_section(cspec, host):
    comodule = co.check_comodule_algebra(cspec, host)
    lemmas = co.check_structure_lemmas(cspec, host)
    # the first base isomorphism the search finds comes with its (passing) verification
    found = co.search_base_iso(cspec, host)
    iso = {"found": found is not None}
    if found is not None:
        iso["images"] = [fc.format_coords(host.labels[0], v) for v in found[0]]
        iso["verification"] = found[1]
    passed = comodule["passed"] and lemmas["passed"] and iso["found"]
    return {
        "comodule": comodule,
        "structureLemmas": lemmas,
        "baseIso": iso,
        "passed": passed,
    }


def run_face(args):
    q = _load_quiver(args)
    w = wba.from_face_algebra(q, args.max_degree)
    axioms = wba.check_axioms(w)
    counital = {}
    for side in ("source", "target"):
        sub = wba.counital_subalgebra(w, side)
        counital[side] = {"dim": sub.dim, "basis": _subspace_text(w.labels[0], sub)}
    idempotents = {
        side: [fc.format_coords(w.labels[0], e) for e in fc.face_idempotents(q, side)]
        for side in ("source", "target")
    }
    return {
        "formatVersion": FORMAT_VERSION,
        "command": "face",
        "quiver": _quiver_doc(q),
        "maxDegree": args.max_degree,
        "dims": w.dims(),
        "counital": counital,
        "faceIdempotents": idempotents,
        "axioms": axioms,
        "passed": axioms["passed"],
    }


def run_verify(args):
    q = _load_quiver(args)
    m = args.max_degree
    w = wba.from_face_algebra(q, m)
    axioms = wba.check_axioms(w)
    source_dim = wba.counital_subalgebra(w, "source").dim
    target_dim = wba.counital_subalgebra(w, "target").dim
    specs = co.canonical_coactions(q, co.SIDES, m)
    sections = {s: _coaction_section(specs[s], w) for s in co.SIDES}
    transposed = co.check_transposed(specs["left"], specs["right"])
    passed = (axioms["passed"] and transposed
              and source_dim == target_dim == len(q.vertices)
              and all(s["passed"] for s in sections.values()))
    return {
        "formatVersion": FORMAT_VERSION,
        "command": "verify",
        "quiver": _quiver_doc(q),
        "maxDegree": m,
        "dims": w.dims(),
        "axioms": axioms,
        "counitalDims": {"source": source_dim, "target": target_dim},
        "coactions": sections,
        "transposed": transposed,
        "passed": passed,
    }


def _parse_coaction_doc(doc, q, cap):
    if not isinstance(doc, dict):
        raise ParseError("coaction document must be an object")
    side = doc.get("side")
    if side not in ("left", "right"):
        raise ParseError("coaction document needs a side of 'left' or 'right'")
    mats = doc.get("coefficients")
    if not isinstance(mats, list) or not mats:
        raise ParseError("coaction document needs a nonempty 'coefficients' list")
    window = min(len(mats) - 1, cap)
    check_window(q, window)
    algebra = wba.path_algebra_presentation(q, window)
    coefficients = []
    for d in range(window + 1):
        mat = mats[d]
        n = algebra.dim(d)
        if (not isinstance(mat, list) or len(mat) != n
                or any(not isinstance(row, list) or len(row) != n for row in mat)):
            raise ParseError(f"degree-{d} coefficient matrix must be {n}x{n}")
        coefficients.append([[fc.parse_element(q, cell, d) for cell in row] for row in mat])
    endpoints = [(a.source, a.target) for a in q.arrows]
    return co.CoactionSpec(side, algebra, coefficients, endpoints), window


def run_coact(args):
    q = _load_quiver(args)
    if args.relations is not None:
        cspec, window = _parse_coaction_doc(_load_json(args.relations), q,
                                            args.max_degree)
        host = wba.from_face_algebra(q, window)
        sections = {cspec.side: _coaction_section(cspec, host)}
        transposed = None
        m = window
    else:
        m = args.max_degree
        host = wba.from_face_algebra(q, m)
        sides = ("left", "right") if args.side == "trans" else (args.side,)
        specs = co.canonical_coactions(q, sides, m)
        sections = {s: _coaction_section(specs[s], host) for s in sides}
        transposed = (co.check_transposed(specs["left"], specs["right"])
                      if args.side == "trans" else None)
    passed = transposed is not False and all(s["passed"] for s in sections.values())
    doc = {
        "formatVersion": FORMAT_VERSION,
        "command": "coact",
        "quiver": _quiver_doc(q),
        "maxDegree": m,
        "coactions": sections,
        "passed": passed,
    }
    if transposed is not None:
        doc["transposed"] = transposed
    return doc


def run_uqsgd(args):
    q = _load_quiver(args)
    relations = pa.parse_relations(_load_json(args.relations), q)
    result = uq.build_uqsgd(q, relations, args.side, args.max_degree)
    host = result.biideal.host
    gens = [fc.format_coords(host.labels[d], coords)
            for d, coords in result.biideal.generators]
    kq_ideal = result.relation_space.ideal
    relation_text = [fc.format_coords(kq_ideal.host.labels[d], coords)
                     for d, coords in kq_ideal.generators]
    # the sides of a transposed pair share one coefficient family: its text is written once
    induced = {}
    written = None
    for s, spec in result.induced_coactions.items():
        if written is None or written[0] != spec.coefficients:
            written = (spec.coefficients, _coefficients_text(spec.coefficients, result.quotient))
        induced[s] = {"side": spec.side, "coefficients": written[1]}
    return {
        "formatVersion": FORMAT_VERSION,
        "command": "uqsgd",
        "quiver": _quiver_doc(q),
        "side": args.side,
        "maxDegree": args.max_degree,
        "relations": relation_text,
        "biidealGenerators": gens,
        "quotientDims": result.quotient_dims,
        "algebraDims": result.algebra_dims,
        "inducedCoactions": induced,
        "verification": result.verification,
        "passed": True,
    }


def run_dual(args):
    q = _load_quiver(args)
    m = args.max_degree
    relations = pa.parse_relations(_load_json(args.relations), q)
    qd = pa.quadratic_data(q, relations, m)
    qdual = pa.quadratic_dual(qd, m)
    report = uq.check_quadratic_dualities(qd, qdual, m)
    return {
        "formatVersion": FORMAT_VERSION,
        "command": "dual",
        "quiver": _quiver_doc(q),
        "maxDegree": m,
        "dualQuiver": _quiver_doc(qdual.quiver),
        "dualRelations": _subspace_text(qdual.ideal.host.labels[2], qdual.relation_space),
        "primalDims": wba.quotient_dims(qd.ideal, m),
        "dualDims": wba.quotient_dims(qdual.ideal, m),
        "dualities": report,
        "passed": report["passed"],
    }


RUNNERS = {
    "face": run_face,
    "verify": run_verify,
    "coact": run_coact,
    "uqsgd": run_uqsgd,
    "dual": run_dual,
}


def _human_text(doc):
    lines = [f"faceq {doc.get('command', '?')} report"]
    if "error" in doc:
        lines.append(f"error: {doc['error']}")
    for key in ("dims", "quotientDims", "algebraDims", "primalDims", "dualDims"):
        if key in doc:
            lines.append(f"{key}: {' '.join(str(n) for n in doc[key])}")
    if "transposed" in doc:
        lines.append(f"transposed: {'yes' if doc['transposed'] else 'no'}")

    def walk(node, path):
        if isinstance(node, dict):
            name = node.get("check", node.get("axiom"))
            if "status" in node and name is not None:
                lines.append(f"{path}{name}: {node['status']}")
                for w in node.get("witnesses", []):
                    lines.append(f"  witness: {json.dumps(w)}")
                return
            for k in sorted(node):
                walk(node[k], f"{path}{k}.")
        elif isinstance(node, (list, tuple)):
            for item in node:
                walk(item, path)

    walk({k: v for k, v in doc.items() if k not in ("quiver", "dualQuiver")}, "")
    lines.append(f"passed: {'yes' if doc.get('passed') else 'no'}")
    return "\n".join(lines) + "\n"


def _emit(args, doc):
    if args.human:
        text = _human_text(doc)
    else:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(args, doc, code):
    try:
        _emit(args, doc)
    except OSError as exc:
        sys.stderr.write(f"cannot write report: {exc}\n")
        return EXIT_PARSE
    return code


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    base = {"formatVersion": FORMAT_VERSION, "command": args.command, "passed": False}
    try:
        validate(args)
        doc = RUNNERS[args.command](args)
    except ParseError as exc:
        return _finish(args, dict(base, error=str(exc)), EXIT_PARSE)
    except UnsupportedShapeError as exc:
        return _finish(args, dict(base, error=str(exc)), EXIT_SHAPE)
    except VerificationError as exc:
        doc = dict(base, error=str(exc))
        if exc.report is not None:
            doc["report"] = exc.report
        return _finish(args, doc, EXIT_FAIL)
    return _finish(args, doc, EXIT_PASS if doc["passed"] else EXIT_FAIL)


if __name__ == "__main__":
    sys.exit(main())
