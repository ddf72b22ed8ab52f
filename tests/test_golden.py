"""Report bytes pinned for every subcommand on small fleet cases at degree 2,
for verify on the doubled three-cycle, uqsgd --side trans on the
three-loop commutators and q-commutators and uqsgd --side left on the
three-loop commutators and q-commutators at degree 3, for uqsgd --side
trans on the three-loop commutators and dual on the three-loop
q-commutators at degree 4, the CLI's default --max-degree, and for uqsgd
--side trans and dual on the preprojective algebra of the three-cycle at
degree 3.  A coact case
reads a coaction document whose entries are written unreduced (a bare
monomial, a split coefficient, a sum with a repeated monomial), which pins
the entry reader.
Another reads a left coaction document of the three-cycle with one extra
degree-0 term: it exits 1, and its report pins the failing rows of the
comodule checks and the structure lemmas and a base isomorphism not found.

Each case runs the CLI in a fresh interpreter under two PYTHONHASHSEED
values, and both runs must produce the recorded sha256.  A change in how a
scalar is rendered (an int reaching the JSON report as a number where a
string was written, say), or an output order that follows hashing, fails
here.  The degree-3 verify and uqsgd cases run the comodule checks of two
coactions that share one coefficient family, and uqsgd also checks its
biideal on degree-3 pieces.  The quantum-plane cases carry the non-integer
coefficient -1/2, so the rational path is pinned as well as the integer
one.  The three-loop q-commutators at degree 3 give uqsgd pieces whose
projections have denominators, so the int-row projection over a common
denominator is pinned too, and on the left side the quotient coproduct's
division by the square of that denominator.  At degree 4 the dual
compares only the degree-2 biideal pieces, over hosts truncated at degree
2; its pin was recorded when each row also compared the graded quotient
dimensions up to degree 4, so it holds the verdicts of both rules.  The
preprojective cases read a plain relations document on the doubled
three-cycle, one relation per vertex, and run the checks on a quotient of
a multi-vertex quiver.  A case's extra options come after the default
--max-degree 2 and override it.

Every case also runs in-process through cli.main with every born fact
unknown: class-level descriptors make GradedAlgebra.generator_reducible,
GradedAlgebra.factors_uniquely and GradedWBA.delta_multiplicative read
False and ignore the assignments of the constructors that prove them, so
every shortcut that rests on a fact takes its full join, and each report
must still match its pin.

Every report is also built in-process through cli.RUNNERS, and must hold
only JSON's own types (dict, list, tuple, str, int, bool, None): reports
write rationals as text, so json.dumps needs no default.  Built with the
cycle collector off, as cli.main runs, and rendered as --human text, it
must leave no reference cycles behind.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from faceq import cli
from faceq import quiver as qv
from faceq import wba

SRC = Path(__file__).resolve().parent.parent / "src"

THREE_CYCLE = {"vertices": ["1", "2", "3"], "arrows": [
    {"name": "p1", "source": "1", "target": "2"},
    {"name": "p2", "source": "2", "target": "3"},
    {"name": "p3", "source": "3", "target": "1"}]}

DOUBLED_THREE_CYCLE = {"vertices": ["1", "2", "3"], "arrows": THREE_CYCLE["arrows"] + [
    {"name": "p1*", "source": "2", "target": "1"},
    {"name": "p2*", "source": "3", "target": "2"},
    {"name": "p3*", "source": "1", "target": "3"}]}

TWO_LOOP = {"vertices": ["v"], "arrows": [
    {"name": "t1", "source": "v", "target": "v"},
    {"name": "t2", "source": "v", "target": "v"}]}

KRONECKER = {"vertices": ["1", "2"], "arrows": [
    {"name": "a", "source": "1", "target": "2"},
    {"name": "b", "source": "1", "target": "2"}]}

QUANTUM_PLANE = [[{"coeff": 1, "path": ["t1", "t2"]},
                  {"coeff": "-1/2", "path": ["t2", "t1"]}]]

COMMUTATOR = [[{"coeff": 1, "path": ["t1", "t2"]},
               {"coeff": -1, "path": ["t2", "t1"]}]]

THREE_LOOP = {"vertices": ["v"], "arrows": [
    {"name": f"t{i}", "source": "v", "target": "v"} for i in (1, 2, 3)]}

# t_i t_j - t_j t_i over the arrow pairs i < j: kQ/I = k[t1, t2, t3]
THREE_LOOP_COMMUTATORS = [[{"coeff": 1, "path": [f"t{i}", f"t{j}"]},
                           {"coeff": -1, "path": [f"t{j}", f"t{i}"]}]
                          for i, j in ((1, 2), (1, 3), (2, 3))]

# t_i t_j + q_ij t_j t_i with (q12, q13, q23) = (-2, 1/2, -3/4)
Q_COMMUTATORS = [[{"coeff": 1, "path": [f"t{i}", f"t{j}"]},
                  {"coeff": q, "path": [f"t{j}", f"t{i}"]}]
                 for (i, j), q in (((1, 2), "-2"), ((1, 3), "1/2"), ((2, 3), "-3/4"))]


# p_i p_i* - p_{i-1}* p_{i-1} at each vertex i of the three-cycle, indices mod 3
PREPROJECTIVE_THREE_CYCLE = [[{"coeff": 1, "path": [f"p{i}", f"p{i}*"]},
                              {"coeff": -1, "path": [f"p{j}*", f"p{j}"]}]
                             for i, j in ((1, 3), (2, 1), (3, 2))]


def two_loop_right_coaction():
    """The canonical coefficients x[p_r;p_c] of the two-loop through degree 2,
    as a right coaction document, with three entries written unreduced: a
    bare monomial, a split coefficient and a sum with a repeated monomial."""
    paths = [["e:v"], ["t1", "t2"], ["t1.t1", "t1.t2", "t2.t1", "t2.t2"]]
    mats = [[[f"1 * x[{a};{b}]" for b in row] for a in row] for row in paths]
    mats[1][0][0] = "x[t1;t1]"
    mats[1][1][1] = "1/2 * x[t2;t2] + 1/2 * x[t2;t2]"
    mats[2][0][3] = "2 * x[t1.t1;t2.t2] + -1 * x[t1.t1;t2.t2]"
    return {"side": "right", "coefficients": mats}


def cycle(n):
    """The n-cycle 1 -> 2 -> ... -> n -> 1, its i-th arrow p<i> leaving vertex i."""
    vertices = [str(i) for i in range(1, n + 1)]
    return {"vertices": vertices, "arrows": [
        {"name": f"p{i}", "source": vertices[i - 1], "target": vertices[i % n]}
        for i in range(1, n + 1)]}


def cycle_left_coaction_off_by_one_term(n):
    """The canonical left coaction of the n-cycle (n >= 3) through degree 1,
    as a document whose degree-0 entry (0,1) carries the extra term
    x[e:3;e:2]."""
    paths = [[f"e:{i}" for i in range(1, n + 1)], [f"p{i}" for i in range(1, n + 1)]]
    mats = [[[f"1 * x[{a};{b}]" for b in row] for a in row] for row in paths]
    mats[0][0][1] += " + 1 * x[e:3;e:2]"
    return {"side": "left", "coefficients": mats}


# name: (subcommand, quiver, relations or None, extra options, sha256 of the report);
# for coact the relations slot holds the coaction document
CASES = {
    "face-doubled-three-cycle": (
        "face", DOUBLED_THREE_CYCLE, None, [],
        "8b84db8b22d2704d0cdd5894bf361068840a4caa221c81d0ee633e21a4c50ad4"),
    "coact-kronecker-trans": (
        "coact", KRONECKER, None, ["--side", "trans"],
        "0f1e72d7f1700728e618a39d0b29ee970571d5b742f13db6d9118adfed3a5cb5"),
    "verify-three-cycle-human": (
        "verify", THREE_CYCLE, None, ["--human"],
        "6252d7da4749feadfc3b2089b3a961e9a71825de458a025aaee35884e2be73df"),
    "uqsgd-quantum-plane-trans": (
        "uqsgd", TWO_LOOP, QUANTUM_PLANE, ["--side", "trans"],
        "3b1421b399d6e6d8891df19c74d1d9bf7eddd08a4864c6b1d2c987be3f285f61"),
    "uqsgd-commutator-left": (
        "uqsgd", TWO_LOOP, COMMUTATOR, ["--side", "left"],
        "c508b474862078f37df88fd57094468cdcbb23b72d143152e8a17c0734a5817a"),
    "dual-quantum-plane": (
        "dual", TWO_LOOP, QUANTUM_PLANE, [],
        "ff9d2586616b571ec6612fdf76280e3be4bdc0c774a1ec86944790f66a2a0401"),
    "verify-doubled-three-cycle-degree-3": (
        "verify", DOUBLED_THREE_CYCLE, None, ["--max-degree", "3"],
        "4b567384f3291850106d117af241ecce7ac6dd3c7121d991a9c13afdb8f8ad4f"),
    "uqsgd-three-loop-commutators-trans-degree-3": (
        "uqsgd", THREE_LOOP, THREE_LOOP_COMMUTATORS, ["--side", "trans", "--max-degree", "3"],
        "3d609c04e4651afa5b6495f82e1f52b788c1857d0d234a8e9c78d36b8d96e864"),
    "uqsgd-three-loop-q-commutators-trans-degree-3": (
        "uqsgd", THREE_LOOP, Q_COMMUTATORS, ["--side", "trans", "--max-degree", "3"],
        "a0092e8aa951735a00b954dde1d9b99a2d4d58dad6c6986a57ff18317730a084"),
    "uqsgd-three-loop-commutators-left-degree-3": (
        "uqsgd", THREE_LOOP, THREE_LOOP_COMMUTATORS, ["--side", "left", "--max-degree", "3"],
        "366a52c77642cc2adb8393160e46861fa057fd4852f5d8877cdb9d636226d7c4"),
    "uqsgd-three-loop-q-commutators-left-degree-3": (
        "uqsgd", THREE_LOOP, Q_COMMUTATORS, ["--side", "left", "--max-degree", "3"],
        "dc209e28b249eb291d827fe6288f73507b74803b9e55af974fd4260eb5106ee9"),
    "uqsgd-three-loop-commutators-trans-degree-4": (
        "uqsgd", THREE_LOOP, THREE_LOOP_COMMUTATORS, ["--side", "trans", "--max-degree", "4"],
        "342923d191e305df0ceb5563ba68bd0280f94353266ae895193d4bb2d73d55df"),
    "coact-two-loop-right-document": (
        "coact", TWO_LOOP, two_loop_right_coaction(), [],
        "6880ba62f5d40e3fb2748959ff034831302d419405aaa4f03098a6ddcb76c1c0"),
    "dual-three-loop-q-commutators-degree-4": (
        "dual", THREE_LOOP, Q_COMMUTATORS, ["--max-degree", "4"],
        "170b76f6f198a844b8a9de47fee66b371622605643296aa9d8d10e79954a4f14"),
    "coact-three-cycle-left-document-failing": (
        "coact", THREE_CYCLE, cycle_left_coaction_off_by_one_term(3), [],
        "f72525df7b0271835dd47850abac5a8f3c5147ff3aedf92f60e132f1b82288aa"),
    "uqsgd-preprojective-three-cycle-trans-degree-3": (
        "uqsgd", DOUBLED_THREE_CYCLE, PREPROJECTIVE_THREE_CYCLE,
        ["--side", "trans", "--max-degree", "3"],
        "8d4bfdd1ee15ad8b81d122397c12b43e0924f32d6246c4c18d6442bee478e461"),
    "dual-preprojective-three-cycle-degree-3": (
        "dual", DOUBLED_THREE_CYCLE, PREPROJECTIVE_THREE_CYCLE, ["--max-degree", "3"],
        "3b9171798b57ddb922385f2196d80ccdf0f0936b641e5fe3ffed7b0951d8ce1f"),
}

# the exit code of each case whose report records a failed verification; the rest exit 0
EXIT_CODES = {"coact-three-cycle-left-document-failing": 1}


def cli_args(tmp_path, case):
    """The case's command line after the program name, its documents written to tmp_path."""
    command, quiver, relations, extra, _ = CASES[case]
    args = [command, "--max-degree", "2"]
    qpath = tmp_path / "quiver.json"
    qpath.write_text(json.dumps(quiver))
    args += ["--quiver", str(qpath)]
    if relations is not None:
        rpath = tmp_path / "relations.json"
        rpath.write_text(json.dumps(relations))
        args += ["--relations", str(rpath)]
    return args + extra


def report_bytes(tmp_path, case, hashseed):
    out = tmp_path / f"report-{hashseed}"
    args = [sys.executable, "-m", "faceq.cli"] + cli_args(tmp_path, case) + ["--out", str(out)]
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(args, env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_CODES.get(case, 0), proc.stderr
    return out.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_pinned(tmp_path, case):
    digests = {seed: hashlib.sha256(report_bytes(tmp_path, case, seed)).hexdigest()
               for seed in (0, 12345)}
    assert digests[0] == digests[12345], "report bytes depend on PYTHONHASHSEED"
    assert digests[0] == CASES[case][-1]


def holds_only_json_types(node):
    if type(node) is dict:
        return all(type(k) is str and holds_only_json_types(v) for k, v in node.items())
    if type(node) in (list, tuple):
        return all(holds_only_json_types(v) for v in node)
    return node is None or type(node) in (str, int, bool)


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_hold_only_json_types(tmp_path, case):
    """No report field holds a Fraction or any other object json.dumps
    would need a default for."""
    args = cli._build_parser().parse_args(cli_args(tmp_path, case))
    cli.validate(args)
    assert holds_only_json_types(cli.RUNNERS[args.command](args))


@pytest.mark.parametrize("case", sorted(CASES))
def test_runners_leave_no_cyclic_garbage(tmp_path, case):
    """cli.main keeps the cycle collector off, which is safe because the
    runners and the --human text report make no reference cycles: with
    the collector disabled, building the report and rendering it as text
    leave nothing for gc.collect() to free.  A closure that calls itself
    is such a cycle; the text report's walker was one, and left 5 objects
    per report."""
    args = cli._build_parser().parse_args(cli_args(tmp_path, case))
    cli.validate(args)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        cli._human_text(cli.RUNNERS[args.command](args))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class Unknown:
    """A data descriptor for a born fact that reads False and ignores
    assignment, so no constructor can set the fact on an instance."""

    def __get__(self, obj, owner=None):
        return False

    def __set__(self, obj, value):
        pass


def in_process_digests(tmp_path):
    """{case: sha256 of the report that cli.main writes in-process}, each
    case's exit code checked, with the calls of the Delta and coaction
    join (wba._pair_failures) and of the descent test (wba._descends)
    counted over all cases."""
    calls = {"_pair_failures": 0, "_descends": 0}
    digests = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            def counted(*args, _fn=getattr(wba, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            mp.setattr(wba, name, counted)
        for case in sorted(CASES):
            case_dir = tmp_path / case
            case_dir.mkdir(parents=True)
            out = case_dir / "report"
            assert cli.main(cli_args(case_dir, case) + ["--out", str(out)]) == \
                EXIT_CODES.get(case, 0)
            digests[case] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests, calls


def test_reports_hold_with_every_born_fact_unknown(tmp_path, monkeypatch):
    """With every fact unknown on every presentation, kQ, h(Q) and each
    quotient, every case's report is its pinned bytes, and the full paths
    ran: the multiplicativity join visits every degree pair, check_axioms
    runs Delta's join, and the biideal check tests every piece row."""
    pinned = {case: spec[-1] for case, spec in CASES.items()}
    digests, born = in_process_digests(tmp_path / "born")
    assert digests == pinned
    monkeypatch.setattr(wba.GradedAlgebra, "generator_reducible", Unknown())
    monkeypatch.setattr(wba.GradedAlgebra, "factors_uniquely", Unknown())
    monkeypatch.setattr(wba.GradedWBA, "delta_multiplicative", Unknown())
    kq = wba.path_algebra_presentation(qv.parse_quiver(THREE_CYCLE), 2)
    assert not kq.generator_reducible and not kq.factors_uniquely
    assert not wba.from_face_algebra(kq).delta_multiplicative
    digests, unknown = in_process_digests(tmp_path / "unknown")
    assert digests == pinned
    assert born == {"_pair_failures": 97, "_descends": 207}
    assert unknown == {"_pair_failures": 276, "_descends": 9029}
