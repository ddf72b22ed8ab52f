"""Command-line front end: documents, exit codes, determinism."""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from faceq import cli
from faceq import coaction as co
from faceq import pathalg as pa
from faceq import uqsgd as uq
from faceq import wba

from oracle import search_base_iso_exhaustive
from test_golden import cycle, cycle_left_coaction_off_by_one_term

THREE_CYCLE_DOC = {"vertices": ["1", "2", "3"], "arrows": [
    {"name": "p1", "source": "1", "target": "2"},
    {"name": "p2", "source": "2", "target": "3"},
    {"name": "p3", "source": "3", "target": "1"}]}

TWO_LOOP_DOC = {"vertices": ["v"], "arrows": [
    {"name": "t1", "source": "v", "target": "v"},
    {"name": "t2", "source": "v", "target": "v"}]}

DOUBLED_THREE_CYCLE_DOC = {"vertices": ["1", "2", "3"], "arrows": THREE_CYCLE_DOC["arrows"] + [
    {"name": "p1*", "source": "2", "target": "1"},
    {"name": "p2*", "source": "3", "target": "2"},
    {"name": "p3*", "source": "1", "target": "3"}]}

THREE_LOOP_DOC = {"vertices": ["v"], "arrows": [
    {"name": f"t{i}", "source": "v", "target": "v"} for i in (1, 2, 3)]}

THREE_LOOP_COMMUTATORS_DOC = [[{"coeff": 1, "path": [f"t{i}", f"t{j}"]},
                               {"coeff": -1, "path": [f"t{j}", f"t{i}"]}]
                              for i, j in ((1, 2), (1, 3), (2, 3))]

ONE_LOOP_DOC = {"vertices": ["v"], "arrows": [
    {"name": "t1", "source": "v", "target": "v"}]}

Q_BULLETS_DOC = {"vertices": ["1", "2"], "arrows": []}

COMMUTATOR_DOC = [[{"coeff": 1, "path": ["t1", "t2"]},
                   {"coeff": -1, "path": ["t2", "t1"]}]]

CUBIC_DOC = [[{"coeff": 1, "path": ["t1", "t1", "t1"]}]]

# u -a-> v -b-> w with a loop c at w; ab + cc joins the endpoints u and w,
# so the vertex idempotents split it into ab and cc
ENDPOINT_MIXING_DOC = {"vertices": ["u", "v", "w"], "arrows": [
    {"name": "a", "source": "u", "target": "v"},
    {"name": "b", "source": "v", "target": "w"},
    {"name": "c", "source": "w", "target": "w"}]}

ENDPOINT_MIXING_RELATIONS = [[{"coeff": 1, "path": ["a", "b"]},
                              {"coeff": 1, "path": ["c", "c"]}]]


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, args):
    out = tmp_path / "out.json"
    code = cli.main(args + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def run_doc(tmp_path, args):
    code, text = run(tmp_path, args)
    return code, (json.loads(text) if text else None)


def test_face_three_cycle(tmp_path):
    quiver = write_json(tmp_path / "q.json", THREE_CYCLE_DOC)
    code, doc = run_doc(tmp_path, ["face", "--quiver", quiver, "--max-degree", "3"])
    assert code == 0
    assert doc["formatVersion"] == "faceq/1"
    assert doc["dims"] == [9, 9, 9, 9]
    assert doc["counital"]["source"]["dim"] == 3
    assert doc["passed"] is True


def test_face_default_degree(tmp_path):
    quiver = write_json(tmp_path / "q.json", ONE_LOOP_DOC)
    code, doc = run_doc(tmp_path, ["face", "--quiver", quiver])
    assert code == 0
    assert doc["maxDegree"] == 4
    assert doc["dims"] == [1, 1, 1, 1, 1]


def test_malformed_quiver_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["face", "--quiver", str(bad)])
    assert code == 2
    code = cli.main(["face", "--quiver", str(tmp_path / "missing.json")])
    assert code == 2


@pytest.mark.parametrize("content", [
    b'{"vertices": ["\xff\xfe"]}',
    b'{"vertices": [' + b"9" * 5000 + b"]}",
    b"[" * 100000 + b"]" * 100000,
], ids=["invalid-utf8", "overlong-int", "deep-nesting"])
def test_unreadable_json_exits_2(tmp_path, content):
    """Bytes that are not UTF-8, an integer literal past the interpreter's
    digit limit and arrays nested past its recursion limit are malformed
    input, reported with the file's path."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out = run_doc(tmp_path, ["face", "--quiver", str(bad)])
    assert code == 2
    assert out["passed"] is False
    assert out["error"].startswith(f"{bad} is not valid JSON: ")


@pytest.mark.parametrize("quiver_doc, relations_doc", [
    ({"vertices": ["v"], "arrows": 5}, None),
    ({"vertices": ["v"], "arrows": None}, None),
    ({"vertices": ["v"], "arrows": [{"name": "a", "source": ["v"], "target": "v"}]}, None),
    ({"vertices": ["v"], "arrows": [{"name": "a", "source": "v", "target": ["v"]}]}, None),
    ({"vertices": ["v"], "arrows": [{"name": ["a"], "source": "v", "target": "v"}]}, None),
    (TWO_LOOP_DOC, [[{"coeff": 1, "path": [["t1"], "t2"]}]]),
], ids=["arrows-int", "arrows-null", "source-list", "target-list", "name-list",
        "relation-step-list"])
def test_malformed_document_exits_2(tmp_path, quiver_doc, relations_doc):
    args = ["--quiver", write_json(tmp_path / "q.json", quiver_doc), "--max-degree", "2"]
    if relations_doc is None:
        args = ["face"] + args
    else:
        args = ["uqsgd"] + args + ["--relations", write_json(tmp_path / "r.json", relations_doc)]
    code, out = run_doc(tmp_path, args)
    assert code == 2
    assert out["passed"] is False
    assert out["error"]


@pytest.mark.parametrize("name", ["a.b", "", "x;y"])
def test_ambiguous_arrow_name_exits_2(tmp_path, name):
    doc = {"vertices": ["v"], "arrows": [
        {"name": "a", "source": "v", "target": "v"},
        {"name": "b", "source": "v", "target": "v"},
        {"name": name, "source": "v", "target": "v"}]}
    quiver = write_json(tmp_path / "q.json", doc)
    code, out = run_doc(tmp_path, ["face", "--quiver", quiver, "--max-degree", "2"])
    assert code == 2
    assert out["passed"] is False
    assert out["error"].startswith(f"bad arrow name {name!r}")


def test_verify_three_cycle(tmp_path):
    quiver = write_json(tmp_path / "q.json", THREE_CYCLE_DOC)
    code, doc = run_doc(tmp_path, ["verify", "--quiver", quiver,
                                   "--max-degree", "2"])
    assert code == 0
    assert doc["transposed"] is True
    assert doc["counitalDims"] == {"source": 3, "target": 3}
    assert doc["coactions"]["left"]["passed"]
    assert doc["coactions"]["right"]["passed"]


def test_coact_canonical_trans(tmp_path):
    quiver = write_json(tmp_path / "q.json", Q_BULLETS_DOC)
    code, doc = run_doc(tmp_path, ["coact", "--quiver", quiver,
                                   "--max-degree", "2"])
    assert code == 0
    assert doc["transposed"] is True
    assert set(doc["coactions"]) == {"left", "right"}


def test_coact_document_round_trip(tmp_path):
    quiver = write_json(tmp_path / "q.json", Q_BULLETS_DOC)
    coaction = {
        "side": "left",
        "coefficients": [[
            ["1 * x[e:1;e:1]", "1 * x[e:1;e:2]"],
            ["1 * x[e:2;e:1]", "1 * x[e:2;e:2]"],
        ]],
    }
    cpath = write_json(tmp_path / "c.json", coaction)
    code, doc = run_doc(tmp_path, ["coact", "--quiver", quiver,
                                   "--relations", cpath])
    assert code == 0
    assert doc["coactions"]["left"]["passed"]


def test_coact_document_verification_failure(tmp_path):
    quiver = write_json(tmp_path / "q.json", Q_BULLETS_DOC)
    coaction = {
        "side": "left",
        "coefficients": [[
            ["1 * x[e:1;e:1]", "0"],
            ["1 * x[e:2;e:1]", "1 * x[e:2;e:2]"],
        ]],
    }
    cpath = write_json(tmp_path / "c.json", coaction)
    code, doc = run_doc(tmp_path, ["coact", "--quiver", quiver,
                                   "--relations", cpath])
    assert code == 1
    assert doc["passed"] is False


def test_coact_document_shape_errors(tmp_path):
    quiver = write_json(tmp_path / "q.json", Q_BULLETS_DOC)
    ragged = {"side": "left", "coefficients": [[["1 * x[e:1;e:1]"]]]}
    cpath = write_json(tmp_path / "c.json", ragged)
    assert cli.main(["coact", "--quiver", quiver, "--relations", cpath]) == 2
    wrong_degree = {
        "side": "left",
        "coefficients": [[
            ["1 * x[t1;t1]", "0"],
            ["0", "1 * x[e:1;e:1]"],
        ]],
    }
    quiver2 = write_json(tmp_path / "q2.json", TWO_LOOP_DOC)
    cpath2 = write_json(tmp_path / "c2.json", wrong_degree)
    assert cli.main(["coact", "--quiver", quiver2, "--relations", cpath2]) == 2


@pytest.mark.parametrize("cell, error", [
    ("two * x[p1;p1]", "bad coefficient 'two'"),
    ("1e0 * x[e:1;e:1]", "bad coefficient '1e0'"),
    ("1_000 * x[e:1;e:1]", "bad coefficient '1_000'"),
    ("1_0/3 * x[e:1;e:1]", "bad coefficient '1_0/3'"),
    ("1 * x[zz;p1]", "unknown arrow 'zz'"),
    ("x[p1.p3;p1.p2]", "arrows 'p1' and 'p3' do not compose"),
    ("x[p1;p1.p2]", "paths in 'x[p1;p1.p2]' have different lengths"),
    ("1 * x[e:1;e:1] + 1 * x[p1;p2]", "degree-0 entry holds a degree-1 term"),
], ids=["bad-coefficient", "exponent-coefficient", "separator-coefficient",
        "separator-fraction-coefficient", "unknown-arrow", "not-composable",
        "different-lengths", "wrong-degree"])
def test_coact_document_reader_errors(tmp_path, cell, error):
    """Each error of the entry reader exits 2 with its own message, read
    from the first entry of a degree-0 document on the three-cycle."""
    mat = [[f"1 * x[e:{r};e:{c}]" for c in "123"] for r in "123"]
    mat[0][0] = cell
    quiver = write_json(tmp_path / "q.json", THREE_CYCLE_DOC)
    cpath = write_json(tmp_path / "c.json", {"side": "left", "coefficients": [mat]})
    code, doc = run_doc(tmp_path, ["coact", "--quiver", quiver, "--relations", cpath])
    assert code == 2
    assert doc == {"formatVersion": "faceq/1", "command": "coact", "passed": False,
                   "error": error}


def test_uqsgd_requires_relations_and_degree(tmp_path):
    quiver = write_json(tmp_path / "q.json", TWO_LOOP_DOC)
    assert cli.main(["uqsgd", "--quiver", quiver]) == 2
    rels = write_json(tmp_path / "r.json", COMMUTATOR_DOC)
    assert cli.main(["uqsgd", "--quiver", quiver, "--relations", rels,
                     "--max-degree", "1"]) == 2


def window_error(m):
    return (f"a window up to degree {m} is too large for this quiver: its tables "
            f"would hold more than {cli.MAX_TABLE_CELLS} cells")


@pytest.mark.parametrize("quiver_doc, degree", [
    (THREE_LOOP_DOC, 9), (ONE_LOOP_DOC, 10 ** 12), (Q_BULLETS_DOC, 10 ** 12),
    (Q_BULLETS_DOC, 300)], ids=["three-loop-9", "one-loop-huge", "arrowless-huge",
                                "arrowless-300"])
def test_window_too_large_exits_3(tmp_path, quiver_doc, degree):
    """The size guard refuses before any table is built, at once.  Degree
    triples count too, so an arrowless quiver cannot ask for a window whose
    degree loops alone grow with the cube of the degree."""
    quiver = write_json(tmp_path / "q.json", quiver_doc)
    start = time.perf_counter()
    code, doc = run_doc(tmp_path, ["face", "--quiver", quiver, "--max-degree", str(degree)])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert doc == {"formatVersion": "faceq/1", "command": "face", "passed": False,
                   "error": window_error(degree)}


def test_face_visits_only_degrees_with_basis_elements(tmp_path, monkeypatch):
    """On an arrowless quiver at degree 200 only degree 0 has basis
    elements, so coproduct multiplicativity flattens one degree pair's
    products; a loop over every degree pair flattened 20,301."""
    calls = []
    flatten = wba._flatten
    monkeypatch.setattr(wba, "_flatten", lambda rows: calls.append(rows) or flatten(rows))
    quiver = write_json(tmp_path / "q.json", Q_BULLETS_DOC)
    code, doc = run_doc(tmp_path, ["face", "--quiver", quiver, "--max-degree", "200"])
    assert code == 0
    assert doc["dims"] == [4] + [0] * 200
    assert doc["axioms"]["passed"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["verify", "coact", "uqsgd", "dual"])
def test_every_command_checks_its_window(tmp_path, command):
    """Three-loop at degree 9 exits 3 in every command, before the relations
    are read."""
    args = [command, "--quiver", write_json(tmp_path / "q.json", THREE_LOOP_DOC),
            "--max-degree", "9"]
    if command in ("uqsgd", "dual"):
        args += ["--relations", write_json(tmp_path / "r.json", THREE_LOOP_COMMUTATORS_DOC)]
    start = time.perf_counter()
    code, doc = run_doc(tmp_path, args)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert doc["error"] == window_error(9)


def test_coaction_document_sets_the_checked_window(tmp_path):
    """coact checks the window a coaction document sets: a degree-1 document
    runs under --max-degree 9, and a ten-matrix one is refused at degree 9
    before its entries are read."""
    quiver = write_json(tmp_path / "q.json", THREE_LOOP_DOC)
    names = [["e:v"], ["t1", "t2", "t3"]]
    mats = [[[f"1 * x[{a};{b}]" for b in row] for a in row] for row in names]
    small = write_json(tmp_path / "small.json", {"side": "left", "coefficients": mats})
    code, doc = run_doc(tmp_path, ["coact", "--quiver", quiver, "--relations", small,
                                   "--max-degree", "9"])
    assert code == 0
    assert doc["maxDegree"] == 1
    large = write_json(tmp_path / "large.json", {"side": "left", "coefficients": [[]] * 10})
    code, doc = run_doc(tmp_path, ["coact", "--quiver", quiver, "--relations", large,
                                   "--max-degree", "9"])
    assert code == 3
    assert doc["error"] == window_error(9)


def test_uqsgd_rejects_cubic_relations(tmp_path):
    quiver = write_json(tmp_path / "q.json", TWO_LOOP_DOC)
    rels = write_json(tmp_path / "r.json", CUBIC_DOC)
    assert cli.main(["uqsgd", "--quiver", quiver, "--relations", rels]) == 3


@pytest.mark.parametrize("relations_doc, code, error", [
    ([[{"coeff": 1, "path": [["t1"], "t2"]}]], 2, "relation #0: unknown arrow ['t1']"),
    ([[{"coeff": 1, "path": ["t1", "t2"]}, {"coeff": 1, "path": ["t1"]}]], 3,
     "ideal generators must be homogeneous"),
    ([[{"coeff": 1, "path": ["t1"]}]], 3, "ideal generators must have degree >= 2, got degree 1"),
    ([[{"coeff": 1, "path": ["t1", "t2"]}, {"coeff": 1, "path": ["t1"]},
       {"coeff": -1, "path": ["t1"]}], [{"coeff": "1/2", "path": ["t2", "t1"]},
                                        {"coeff": "-1/2", "path": ["t2", "t1"]}]], 0, None),
    (CUBIC_DOC, 3, "quadratic data requires degree-2 generators, found degree 3"),
    ([[{"coeff": 1, "path": ["t1"]}], [{"coeff": 1, "path": ["t3"]}]], 2,
     "relation #1: unknown arrow 't3'"),
    ([[{"coeff": "1e3", "path": ["t1", "t2"]}, {"coeff": -1, "path": ["t2", "t1"]}]], 2,
     "cannot read coefficient '1e3': exponents are not accepted"),
    ([[{"coeff": "1_000", "path": ["t1", "t2"]}, {"coeff": -1, "path": ["t2", "t1"]}]], 2,
     "cannot read coefficient '1_000': digit separators are not accepted"),
    ([[{"coeff": "1_0/3", "path": ["t1", "t2"]}, {"coeff": -1, "path": ["t2", "t1"]}]], 2,
     "cannot read coefficient '1_0/3': digit separators are not accepted"),
], ids=["malformed", "inhomogeneous", "degree-1", "cancelling", "cubic", "shape-then-parse",
        "exponent", "separator", "separator-fraction"])
@pytest.mark.parametrize("command", ["uqsgd", "dual"])
def test_relations_document_exit_codes(tmp_path, command, relations_doc, code, error):
    """Each kind of relations document keeps its exit code and error text;
    a malformed relation after an unsupported one is still malformed input.
    Relations whose terms cancel leave what is left: t1.t2, and nothing of
    the second."""
    args = [command, "--quiver", write_json(tmp_path / "q.json", TWO_LOOP_DOC),
            "--relations", write_json(tmp_path / "r.json", relations_doc), "--max-degree", "2"]
    got, out = run_doc(tmp_path, args)
    assert got == code
    assert out.get("error") == error
    if command == "uqsgd" and code == 0:
        assert out["relations"] == ["1 * t1.t2"]


def test_uqsgd_commutators_trans(tmp_path):
    quiver = write_json(tmp_path / "q.json", TWO_LOOP_DOC)
    rels = write_json(tmp_path / "r.json", COMMUTATOR_DOC)
    code, doc = run_doc(tmp_path, ["uqsgd", "--quiver", quiver,
                                   "--relations", rels, "--max-degree", "3"])
    assert code == 0
    assert doc["quotientDims"] == [1, 4, 10, 20]
    assert doc["algebraDims"] == [1, 2, 3, 4]
    assert doc["relations"] == ["1 * t1.t2 + -1 * t2.t1"]
    assert doc["biidealGenerators"]
    assert doc["verification"]["transposed"] is True
    assert set(doc["inducedCoactions"]) == {"left", "right"}


def test_verify_verifies_each_found_base_iso_once(tmp_path, monkeypatch):
    """search_base_iso returns the verification of the candidate it found,
    and the report carries that one: verify on the three-cycle runs
    verify_base_iso once per side."""
    calls = []
    verify_base_iso = co.verify_base_iso

    def counted(cspec, host, candidate):
        calls.append(cspec.side)
        return verify_base_iso(cspec, host, candidate)

    monkeypatch.setattr(co, "verify_base_iso", counted)
    quiver = write_json(tmp_path / "q.json", THREE_CYCLE_DOC)
    code, doc = run_doc(tmp_path, ["verify", "--quiver", quiver, "--max-degree", "2"])
    assert code == 0
    assert calls == ["left", "right"]
    for section in doc["coactions"].values():
        assert section["baseIso"]["found"] and section["baseIso"]["verification"]["passed"]


def failing_cycle_args(tmp_path, n):
    return ["coact", "--quiver", write_json(tmp_path / "q.json", cycle(n)),
            "--relations", write_json(tmp_path / "c.json", cycle_left_coaction_off_by_one_term(n))]


def test_failing_cycle_document_prunes_every_candidate(tmp_path, monkeypatch):
    """On the 7-cycle document with one extra degree-0 term, every partial
    vertex assignment already fails intertwining on the assigned vertices,
    so verify_base_iso never runs; trying each of the 7! bijections ran it
    5,040 times."""
    calls = []
    verify_base_iso = co.verify_base_iso

    def counted(cspec, host, candidate):
        calls.append(cspec.side)
        return verify_base_iso(cspec, host, candidate)

    monkeypatch.setattr(co, "verify_base_iso", counted)
    code, doc = run_doc(tmp_path, failing_cycle_args(tmp_path, 7))
    assert code == 1
    assert doc["coactions"]["left"]["baseIso"] == {"found": False}
    assert calls == []


def test_failing_ten_cycle_document_finishes_at_once(tmp_path):
    start = time.perf_counter()
    code, doc = run_doc(tmp_path, failing_cycle_args(tmp_path, 10))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert doc["coactions"]["left"]["baseIso"] == {"found": False}


@pytest.mark.parametrize("n", [5, 6])
def test_pruned_search_keeps_the_failing_cycle_reports(tmp_path, monkeypatch, n):
    code, pruned = run_doc(tmp_path, failing_cycle_args(tmp_path, n))
    monkeypatch.setattr(co, "search_base_iso", search_base_iso_exhaustive)
    assert run_doc(tmp_path, failing_cycle_args(tmp_path, n)) == (code, pruned)
    assert code == 1


def test_uqsgd_divides_the_induced_coefficients_once_per_transposed_pair(tmp_path,
                                                                         monkeypatch):
    """Both sides of uqsgd --side trans read one induced coefficient family:
    on the two-loop commutator at degree 2 that is 1 + 4 + 16 entries, each
    divided once."""
    calls = []
    divided = uq.divided

    def counted(table, denom):
        calls.append(denom)
        return divided(table, denom)

    monkeypatch.setattr(uq, "divided", counted)
    quiver = write_json(tmp_path / "q.json", TWO_LOOP_DOC)
    rels = write_json(tmp_path / "r.json", COMMUTATOR_DOC)
    code, doc = run_doc(tmp_path, ["uqsgd", "--quiver", quiver, "--relations", rels,
                                   "--side", "trans", "--max-degree", "2"])
    assert code == 0 and doc["verification"]["transposed"] is True
    assert len(calls) == 21


def test_uqsgd_writes_a_shared_coefficient_family_once(tmp_path, monkeypatch):
    """The transposed pair's equal arrays are formatted once and written on
    both sides; when the right array differs (one entry doubled after the
    build), each side gets the text of its own array."""
    quiver = write_json(tmp_path / "q.json", TWO_LOOP_DOC)
    rels = write_json(tmp_path / "r.json", COMMUTATOR_DOC)
    args = ["uqsgd", "--quiver", quiver, "--relations", rels, "--max-degree", "2"]
    formatted = []
    coefficients_text = cli._coefficients_text

    def counted(coefficients, host):
        formatted.append(coefficients)
        return coefficients_text(coefficients, host)

    monkeypatch.setattr(cli, "_coefficients_text", counted)
    code, same = run_doc(tmp_path, args)
    assert code == 0 and len(formatted) == 1
    left, right = (same["inducedCoactions"][s] for s in ("left", "right"))
    assert (left["side"], right["side"]) == ("left", "right")
    assert left["coefficients"] == right["coefficients"]

    build_uqsgd = uq.build_uqsgd

    def altered(*build_args):
        result = build_uqsgd(*build_args)
        right_spec = result.induced_coactions["right"]
        right_spec.coefficients[1][0][1] = {m: 2 * c for m, c in
                                            right_spec.coefficients[1][0][1].items()}
        return result

    monkeypatch.setattr(uq, "build_uqsgd", altered)
    formatted.clear()
    code, differ = run_doc(tmp_path, args)
    assert code == 0 and len(formatted) == 2
    left, right = (differ["inducedCoactions"][s]["coefficients"] for s in ("left", "right"))
    assert left == same["inducedCoactions"]["left"]["coefficients"]
    assert (left[1][0][1], right[1][0][1]) == ("1 * x[t1;t2]", "2 * x[t1;t2]")
    right[1][0][1] = left[1][0][1]
    assert right == left


def test_dual_polynomial_ring(tmp_path):
    quiver = write_json(tmp_path / "q.json", TWO_LOOP_DOC)
    rels = write_json(tmp_path / "r.json", COMMUTATOR_DOC)
    code, doc = run_doc(tmp_path, ["dual", "--quiver", quiver,
                                   "--relations", rels, "--max-degree", "3"])
    assert code == 0
    assert doc["dualDims"] == [1, 2, 1, 0]
    assert doc["primalDims"] == [1, 2, 3, 4]
    assert doc["dualRelations"] == [
        "1 * t1*.t1*",
        "1 * t1*.t2* + 1 * t2*.t1*",
        "1 * t2*.t2*",
    ]
    assert doc["dualities"]["passed"] is True


def endpoint_mixing_args(tmp_path, command):
    return [command, "--quiver", write_json(tmp_path / "q.json", ENDPOINT_MIXING_DOC),
            "--relations", write_json(tmp_path / "r.json", ENDPOINT_MIXING_RELATIONS),
            "--max-degree", "3"]


def test_dual_endpoint_mixing_relation(tmp_path):
    code, doc = run_doc(tmp_path, endpoint_mixing_args(tmp_path, "dual"))
    assert code == 0
    assert doc["primalDims"] == [3, 3, 1, 0]
    assert doc["dualRelations"] == ["1 * c*.b*"]
    assert doc["dualDims"] == [3, 3, 2, 1]
    assert doc["dualities"]["passed"] is True


def test_uqsgd_endpoint_mixing_relation(tmp_path):
    code, doc = run_doc(tmp_path, endpoint_mixing_args(tmp_path, "uqsgd"))
    assert code == 0
    assert doc["side"] == "trans"
    assert doc["relations"] == ["1 * a.b + 1 * c.c"]
    assert doc["algebraDims"] == [3, 3, 1, 0]
    assert doc["quotientDims"] == [9, 9, 5, 3]
    assert doc["passed"] is True


def test_dual_computes_each_complement_once(tmp_path, monkeypatch):
    """R-perp is computed once per relation space, for the relations and
    for the dual relations, though the job reads it ten times."""
    calls = []
    rows = pa.quadratic_dual_rows

    def counted(rel):
        calls.append(rel)
        return rows(rel)

    monkeypatch.setattr(pa, "quadratic_dual_rows", counted)
    quiver = write_json(tmp_path / "q.json", TWO_LOOP_DOC)
    rels = write_json(tmp_path / "r.json", COMMUTATOR_DOC)
    code, _ = run_doc(tmp_path, ["dual", "--quiver", quiver,
                                 "--relations", rels, "--max-degree", "3"])
    assert code == 0
    assert len(calls) == 2
    assert calls[0] is not calls[1]


@pytest.mark.parametrize("command, relations", [
    ("face", None), ("verify", None), ("uqsgd", COMMUTATOR_DOC)])
def test_one_eps_table_per_presentation(tmp_path, monkeypatch, command, relations):
    """The counit splits and both counital subalgebras share one pass over
    the product table."""
    seen = []
    eps_matrices = wba._eps_matrices

    def counted(w):
        seen.append(w)
        return eps_matrices(w)

    monkeypatch.setattr(wba, "_eps_matrices", counted)
    args = [command, "--quiver", write_json(tmp_path / "q.json", TWO_LOOP_DOC),
            "--max-degree", "2"]
    if relations is not None:
        args += ["--relations", write_json(tmp_path / "r.json", relations)]
    code, _ = run_doc(tmp_path, args)
    assert code == 0
    assert len(seen) == 1


@pytest.mark.parametrize("command, quiver, relations, extra, presentations", [
    ("verify", DOUBLED_THREE_CYCLE_DOC, None, [], 2),
    ("uqsgd", THREE_LOOP_DOC, THREE_LOOP_COMMUTATORS_DOC, ["--side", "trans"], 2)])
def test_coalgebra_rows_and_product_index_built_once(tmp_path, monkeypatch, command, quiver,
                                                     relations, extra, presentations):
    """At degree 3 the two coaction sides share one coefficient family, so
    their comodule checks and structure lemmas read one coassociativity and
    counit run per degree: 4 runs where unshared checks made 12.  Each
    presentation indexes its products once: the face algebra (verify) or
    the quotient (uqsgd), and the one algebra both coactions act on."""
    runs = []
    indexed = []
    matrix_failures = co._matrix_failures
    products_by_left = wba._products_by_left

    def counted_runs(host, d, mat):
        runs.append(d)
        return matrix_failures(host, d, mat)

    def counted_index(product):
        indexed.append(product)
        return products_by_left(product)

    monkeypatch.setattr(co, "_matrix_failures", counted_runs)
    monkeypatch.setattr(wba, "_products_by_left", counted_index)
    args = [command, "--quiver", write_json(tmp_path / "q.json", quiver),
            "--max-degree", "3"] + extra
    if relations is not None:
        args += ["--relations", write_json(tmp_path / "r.json", relations)]
    code, doc = run_doc(tmp_path, args)
    assert code == 0
    assert doc["passed"] is True
    assert runs == [0, 1, 2, 3]
    assert len(indexed) == len({id(product) for product in indexed}) == presentations


@pytest.mark.parametrize("command, relations, presentations", [
    ("verify", None, 1), ("uqsgd", COMMUTATOR_DOC, 1), ("dual", COMMUTATOR_DOC, 2)])
def test_one_path_algebra_per_quiver(tmp_path, monkeypatch, command, relations, presentations):
    """verify's two canonical coactions share one kQ; uqsgd and dual read R
    from the ideal of kQ truncated at the job's degree, so R is eliminated
    once, and dual adds kQ^op for the quadratic dual."""
    built = []
    presentation = wba.path_algebra_presentation

    def counted(q, max_degree):
        built.append(max_degree)
        return presentation(q, max_degree)

    monkeypatch.setattr(wba, "path_algebra_presentation", counted)
    args = [command, "--quiver", write_json(tmp_path / "q.json", TWO_LOOP_DOC),
            "--max-degree", "3"]
    if relations is not None:
        args += ["--relations", write_json(tmp_path / "r.json", relations)]
    code, doc = run_doc(tmp_path, args)
    assert code == 0
    assert doc["passed"] is True
    assert built == [3] * presentations


def test_output_bytes_identical_across_runs(tmp_path):
    quiver = write_json(tmp_path / "q.json", THREE_CYCLE_DOC)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert cli.main(["face", "--quiver", quiver, "--max-degree", "2",
                         "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_human_rendering_deterministic(tmp_path):
    quiver = write_json(tmp_path / "q.json", Q_BULLETS_DOC)
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out1, out2):
        assert cli.main(["verify", "--quiver", quiver, "--max-degree", "2",
                         "--human", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "passed: yes" in out1.read_text()


def test_emit_writes_fractions_as_text_and_refuses_other_objects(tmp_path):
    """Reports carry rationals as text (see test_golden's walk over every
    report), so _emit writes JSON's own types and json.dumps refuses any
    other object, a Fraction included, in a report and in a witness."""
    out = tmp_path / "out.json"
    args = cli._build_parser().parse_args(["face", "--quiver", "q.json", "--out", str(out)])
    cli._emit(args, {"value": "-3/4", "pair": ("a", 1), "passed": True})
    assert json.loads(out.read_text()) == {"value": "-3/4", "pair": ["a", 1], "passed": True}
    args.human = True
    cli._emit(args, {"command": "face", "dims": [1, Fraction(1, 2)], "passed": True})
    assert out.read_text() == "faceq face report\ndims: 1 1/2\npassed: yes\n"
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        cli._emit(args, {"axioms": [{"check": "c", "status": "fail",
                                     "witnesses": [[Fraction(1, 2)]]}]})
    args.human = False
    for value, name in ((Fraction(-3, 4), "Fraction"), ({1, 2}, "set")):
        with pytest.raises(TypeError, match=f"{name} is not JSON serializable"):
            cli._emit(args, {"value": value})


def test_stdout_emission(tmp_path, capsys):
    quiver = write_json(tmp_path / "q.json", ONE_LOOP_DOC)
    code = cli.main(["face", "--quiver", quiver, "--max-degree", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == [1, 1, 1]


def test_subprocess_entry_point(tmp_path):
    quiver = write_json(tmp_path / "q.json", Q_BULLETS_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "faceq.cli", "face", "--quiver", quiver,
         "--max-degree", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_import_leaves_dataclasses_and_inspect_unloaded():
    """Importing the CLI pulls in neither dataclasses nor, through it,
    inspect, ast, dis and tokenize, nor typing: the library's record types
    are collections.namedtuple subclasses.  -S keeps site packages out."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import faceq.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
