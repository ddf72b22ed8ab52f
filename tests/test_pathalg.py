"""Relation rows, graded ideal pieces, quadratic data and duals; the oracle's
path elements."""

from fractions import Fraction
from math import comb
import random
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from faceq import face as fc
from faceq import pathalg as pa
from faceq import quiver as qv
from faceq import wba
from faceq.errors import ParseError, UnsupportedShapeError
from faceq.linalg import Echelon, Subspace

from conftest import (assert_reader_matches_oracle, commutator_relations, is_vertex_bimodule,
                      q_commutator_relations, quadratic_dual_oracle, quadratic_ideal_oracle,
                      quantum_plane_relations, relation_rows)
from fleet import kronecker, three_cycle, three_loop, two_loop
from oracle import (PathElement, double_quiver, element_rows, homogeneous_generators,
                    multiply_path_elements, path_text, path_unit, preprojective_relations,
                    subspace_equal)


def brute_force_piece(q, relations, d):
    """Span of all monomial sandwiches around the relations; the oracle."""
    paths = qv.enumerate_paths(q, d)
    ech = Echelon(len(paths))
    for e, row in relations:
        rest = d - e
        if rest < 0:
            continue
        paths_e = qv.enumerate_paths(q, e)
        g = PathElement(q, {paths_e[i]: c for i, c in row.items()})
        for dl in range(rest + 1):
            for left in qv.enumerate_paths(q, dl):
                for right in qv.enumerate_paths(q, rest - dl):
                    sandwich = PathElement(q, {left: 1}) * g * PathElement(q, {right: 1})
                    if not sandwich.is_zero():
                        ech.add(element_rows([sandwich])[0][1])
    return ech.finalize()


def exterior_relations(q):
    t1, t2 = q.arrow_path(0), q.arrow_path(1)
    sq = lambda p: qv.compose_paths(q, p, p)
    mixed = {qv.compose_paths(q, t1, t2): 1, qv.compose_paths(q, t2, t1): 1}
    return relation_rows(q, [{sq(t1): 1}, {sq(t2): 1}, mixed])


def endpoint_mixing():
    """(quiver, relations): u -a-> v -b-> w with a loop c at w, and the one
    relation ab + cc.

    ab runs from u to w and cc from w to w, so e_u(ab + cc) = ab and
    e_w(ab + cc) = cc: I_2 is spanned by ab and cc."""
    q = qv.Quiver(["u", "v", "w"], [("a", 0, 1), ("b", 1, 2), ("c", 2, 2)])
    a, b, c = (q.arrow_path(i) for i in range(3))
    return q, relation_rows(q, [{qv.compose_paths(q, a, b): 1, qv.compose_paths(q, c, c): 1}])


def quotient_dims(q, relations, top):
    """dim kQ_d - dim I_d for d = 0..top, through the quadratic data."""
    return wba.quotient_dims(pa.quadratic_data(q, relations, top).ideal, top)


def test_multiply_unit_decomposition():
    q = kronecker()
    p = PathElement(q, {q.arrow_path(0): 1})
    unit = path_unit(q)
    assert multiply_path_elements(unit, p) == p
    assert multiply_path_elements(p, unit) == p


def test_multiply_incomposable_is_zero():
    q = three_cycle()
    p1 = PathElement(q, {q.arrow_path(0): 1})
    p3 = PathElement(q, {q.arrow_path(2): 1})
    assert multiply_path_elements(p1, p3).is_zero()


def test_multiply_commutator_by_generator():
    q = two_loop()
    t1, t2 = q.arrow_path(0), q.arrow_path(1)
    comm = (PathElement(q, {qv.compose_paths(q, t1, t2): 1})
            - PathElement(q, {qv.compose_paths(q, t2, t1): 1}))
    out = comm * PathElement(q, {t1: 1})
    assert path_text(out) == "1 * t1.t2.t1 + -1 * t2.t1.t1"


def test_multiply_degree_adds():
    q = two_loop()
    for da in range(3):
        for db in range(3):
            for a in qv.enumerate_paths(q, da):
                for b in qv.enumerate_paths(q, db):
                    prod = multiply_path_elements(
                        PathElement(q, {a: 1}), PathElement(q, {b: 1}))
                    assert prod.is_zero() or prod.degree() == da + db


def test_commutator_piece_dims():
    q = two_loop()
    relations = commutator_relations(q)
    assert pa.ideal_graded_piece(q, relations, 2).dim == 1
    assert pa.ideal_graded_piece(q, relations, 3).dim == 4


def test_zero_ideal_pieces_vanish():
    for d in range(5):
        assert pa.ideal_graded_piece(two_loop(), [], d).dim == 0


def test_quotient_dimension_examples():
    q = two_loop()
    assert quotient_dims(q, commutator_relations(q), 2)[2] == 3
    assert quotient_dims(q, [], 4) == [len(qv.enumerate_paths(q, d)) for d in range(5)]
    assert quotient_dims(q, exterior_relations(q), 2)[2] == 1


def test_commutator_quotient_dims_are_monomial_counts():
    for n, make in ((2, two_loop), (3, three_loop)):
        q = make()
        assert quotient_dims(q, commutator_relations(q), 4) == [comb(n + d - 1, d)
                                                                 for d in range(5)]


def test_graded_pieces_match_sandwich_oracle():
    q2, q3 = two_loop(), three_loop()
    cases = [
        (q2, commutator_relations(q2)),
        (q2, exterior_relations(q2)),
        (q2, quantum_plane_relations(q2)),
        (q3, commutator_relations(q3)),
        endpoint_mixing(),
    ]
    for q, relations in cases:
        for d in range(5):
            assert subspace_equal(pa.ideal_graded_piece(q, relations, d),
                                  brute_force_piece(q, relations, d))
    dbl, prep = preprojective_relations(three_cycle())
    for d in range(4):
        assert subspace_equal(pa.ideal_graded_piece(dbl, prep, d),
                              brute_force_piece(dbl, prep, d))


def test_ideal_pieces_match_the_quadratic_ideal():
    """ideal_graded_piece on the generators and biideal_graded_pieces on the
    BiidealGens that quadratic_ideal_oracle builds from R = I_2 agree."""
    q2, q3 = two_loop(), three_loop()
    cases = [
        (q2, commutator_relations(q2)),
        (q3, commutator_relations(q3)),
        (q2, quantum_plane_relations(q2)),
        (q3, q_commutator_relations(q3, ["-2", "1/2", "-3/4"])),
        preprojective_relations(three_cycle()),
        endpoint_mixing(),
    ]
    for q, relations in cases:
        kq_ideal = quadratic_ideal_oracle(pa.quadratic_data(q, relations), 4)
        for d in range(5):
            assert subspace_equal(pa.ideal_graded_piece(q, relations, d),
                                  wba.biideal_graded_pieces(kq_ideal, d))


def test_inhomogeneous_generator_rejected():
    """A relation that is not homogeneous, or of degree below 2, is refused
    once the document is read, with the message of the former ideal type."""
    q = two_loop()
    with pytest.raises(UnsupportedShapeError, match="^ideal generators must be homogeneous$"):
        pa.parse_relations([[{"coeff": 1, "path": ["t1", "t1"]}, {"coeff": 1, "path": ["t1"]}]], q)
    with pytest.raises(UnsupportedShapeError,
                       match="^ideal generators must have degree >= 2, got degree 1$"):
        pa.parse_relations([[{"coeff": 1, "path": ["t1"]}]], q)
    # the degree-1 term cancels, so what is left is homogeneous of degree 2
    assert pa.parse_relations([[{"coeff": 1, "path": ["t1", "t2"]}, {"coeff": 1, "path": ["t1"]},
                                {"coeff": -1, "path": ["t1"]}]], q) == [(2, {1: 1})]


def test_quadratic_data_commutators():
    for n, make in ((2, two_loop), (3, three_loop)):
        q = make()
        qd = pa.quadratic_data(q, commutator_relations(q))
        assert qd.relation_space.dim == comb(n, 2)
        assert qd.ambient_dim == n * n


def test_quadratic_data_zero_and_preprojective():
    assert pa.quadratic_data(two_loop(), []).relation_space.dim == 0
    prep = pa.quadratic_data(*preprojective_relations(three_cycle()))
    assert prep.relation_space.dim == 3


def test_quadratic_data_rejects_cubic():
    q = two_loop()
    t1 = q.arrow_path(0)
    cubic = relation_rows(q, [{qv.compose_paths(q, qv.compose_paths(q, t1, t1), t1): 1}])
    with pytest.raises(UnsupportedShapeError, match="degree 3"):
        pa.quadratic_data(q, cubic)


def test_quadratic_dual_of_polynomial_ring():
    qd = pa.quadratic_data(two_loop(), commutator_relations(two_loop()))
    dual = pa.quadratic_dual(qd, 3)
    opp = dual.quiver
    assert [a.name for a in opp.arrows] == ["t1*", "t2*"]
    expected = Subspace.from_rows(4, [
        {0: Fraction(1)},
        {1: Fraction(1), 2: Fraction(1)},
        {3: Fraction(1)},
    ])
    assert subspace_equal(dual.relation_space, expected)
    assert wba.quotient_dims(dual.ideal, 3) == [1, 2, 1, 0]


def test_quadratic_dual_of_zero_is_full():
    qd = pa.quadratic_data(three_loop(), [])
    dual = pa.quadratic_dual(qd)
    assert dual.relation_space.dim == 9


def random_quadratic_relations(rng, q):
    """(q, up to dim kQ_2 random rational relations on its degree-2 paths)."""
    paths = qv.enumerate_paths(q, 2)
    gens = []
    for _ in range(rng.randrange(len(paths) + 1)):
        terms = {p: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for p in paths if rng.random() < 0.4}
        gens.append(PathElement(q, terms))
    return q, element_rows(homogeneous_generators(gens))


def test_dual_dimension_law_and_double_dual():
    """dim R + dim R^! = dim kQ2, and the double dual restores R, for random
    R that are kQ_0-bimodules; R whose rows mix endpoint blocks are refused
    (20 seeds, both cases drawn)."""
    rng = random.Random(20260825)
    quivers = [two_loop, three_loop, three_cycle,
               lambda: double_quiver(three_cycle())]
    refused = 0
    for seed in range(20):
        q = quivers[rng.randrange(len(quivers))]()
        ambient = len(qv.enumerate_paths(q, 2))
        rows = []
        for _ in range(rng.randrange(ambient + 1)):
            row = {i: Fraction(rng.randint(-3, 3)) for i in range(ambient)
                   if rng.random() < 0.4}
            row = {i: c for i, c in row.items() if c}
            if row:
                rows.append(row)
        space = Subspace.from_rows(ambient, rows)
        qd = pa.QuadraticData(q, space, None)
        if not is_vertex_bimodule(q, space):
            refused += 1
            with pytest.raises(UnsupportedShapeError, match="kQ_0-bimodule"):
                pa.quadratic_dual(qd)
            continue
        dual = pa.quadratic_dual(qd)
        assert qd.relation_space.dim + dual.relation_space.dim == ambient
        double = pa.quadratic_dual(dual)
        assert double.quiver == qv.opposite_quiver(qv.opposite_quiver(q))
        assert subspace_equal(double.relation_space, qd.relation_space)
    assert 0 < refused < 20


def test_quadratic_dual_matches_the_former_three_eliminations():
    """R^!, its canonical basis and the graded dimensions of its ideal through
    degree 3 equal those of the former path, which eliminated the complement
    rows again after the move to kQ^op and once more as an ideal's
    generators: on the loop-quiver commutators and q-commutators, the
    preprojective relations, ab + cc and 40 random rational ideals."""
    q2, q3 = two_loop(), three_loop()
    ideals = [
        (q2, commutator_relations(q2)),
        (q3, commutator_relations(q3)),
        (q3, q_commutator_relations(q3, ["-2", "1/2", "-3/4"])),
        (q2, exterior_relations(q2)),
        preprojective_relations(three_cycle()),
        endpoint_mixing(),
    ]
    rng = random.Random(5021)
    quivers = [two_loop, three_loop, three_cycle, kronecker,
               lambda: double_quiver(three_cycle())]
    ideals += [random_quadratic_relations(rng, quivers[k % len(quivers)]()) for k in range(40)]
    for q, relations in ideals:
        qd = pa.quadratic_data(q, relations, 3)
        dual = pa.quadratic_dual(qd, 3)
        space, old_ideal = quadratic_dual_oracle(qd, 3)
        assert dual.relation_space == space
        assert dual.relation_space.pivots == space.pivots
        assert wba.quotient_dims(dual.ideal, 3) == wba.quotient_dims(old_ideal, 3)


def test_preprojective_relations_display():
    dbl, prep = preprojective_relations(three_cycle())
    paths = qv.enumerate_paths(dbl, 2)
    texts = [path_text(PathElement(dbl, {paths[i]: c for i, c in row.items()}))
             for _, row in prep]
    assert texts == [
        "1 * p1.p1* + -1 * p3*.p3",
        "1 * p2.p2* + -1 * p1*.p1",
        "1 * p3.p3* + -1 * p2*.p2",
    ]


def test_preprojective_four_cycle():
    four = qv.Quiver(["1", "2", "3", "4"],
                     [("p1", 0, 1), ("p2", 1, 2), ("p3", 2, 3), ("p4", 3, 0)])
    assert len(preprojective_relations(four)[1]) == 4


def test_preprojective_rejects_two_cycle():
    two = qv.Quiver(["1", "2"], [("p1", 0, 1), ("p2", 1, 0)])
    with pytest.raises(UnsupportedShapeError):
        preprojective_relations(two)
    with pytest.raises(UnsupportedShapeError):
        preprojective_relations(two_loop())


def test_parse_relations_round_trip():
    q = two_loop()
    doc = [[{"coeff": 1, "path": ["t1", "t2"]},
            {"coeff": "-1/1", "path": ["t2", "t1"]}]]
    rels = pa.parse_relations(doc, q)
    assert rels == [(2, {1: 1, 2: -1})]
    assert [type(c) for c in rels[0][1].values()] == [int, int]
    labels = [q.path_label(p) for p in qv.enumerate_paths(q, 2)]
    assert fc.format_coords(labels, rels[0][1]) == "1 * t1.t2 + -1 * t2.t1"


def test_parse_relations_errors():
    q = three_cycle()
    with pytest.raises(ParseError, match="not composable"):
        pa.parse_relations([[{"coeff": 1, "path": ["p1", "p3"]}]], q)
    with pytest.raises(ParseError, match="unknown arrow"):
        pa.parse_relations([[{"coeff": 1, "path": ["nope"]}]], q)
    with pytest.raises(ParseError, match="coefficients must be"):
        pa.parse_relations([[{"coeff": 1.5, "path": ["p1"]}]], q)
    with pytest.raises(ParseError, match="list of relations"):
        pa.parse_relations({"coeff": 1}, q)


def test_parse_scalar_refuses_exponents_and_keeps_the_other_forms():
    """An exponent would have Fraction build 10**k from a few bytes, so
    coefficient text with e or E is refused; so is a '_' digit separator,
    which Fraction reads on some supported Pythons and not on others; ints,
    'p/q' and decimal strings still read as before."""
    for text in ("1e3", "1E3", "2.5e-1", "-1e0"):
        with pytest.raises(ParseError, match=f"cannot read coefficient '{text}': exponents"):
            pa.parse_scalar(text)
    for text in ("1_000", "1_0/3"):
        with pytest.raises(ParseError, match=f"cannot read coefficient '{text}': digit separators"):
            pa.parse_scalar(text)
    assert [pa.parse_scalar(v) for v in (3, "-1/2", " 4/6 ", "0.25", "7")] == \
        [3, Fraction(-1, 2), Fraction(2, 3), Fraction(1, 4), 7]


def test_parse_scalar_names_an_over_long_text_by_its_first_characters():
    """A refused coefficient text past errors.SHOWN_CHARS characters is
    named by its first ones and its length, in the message and in the
    reader's own detail: an invalid literal, an exponent, and, where the
    interpreter has a digit limit, a 5,000-digit denominator."""
    bad = [("1/" + "3" * 5000 + "x", "Invalid literal for Fraction: "),
           ("1e" + "3" * 5000, "exponents are not accepted")]
    if hasattr(sys, "get_int_max_str_digits") and sys.get_int_max_str_digits():
        bad.append(("1/" + "3" * 5000, "Exceeds the limit"))
    for text, detail in bad:
        with pytest.raises(ParseError) as exc:
            pa.parse_scalar(text)
        message = str(exc.value)
        name = f"{text[:40]!r}... ({len(text)} characters)"
        assert message.startswith(f"cannot read coefficient {name}: ")
        assert detail in message and len(message) < 250


def test_parse_relations_trivial_path_terms():
    q = three_cycle()
    rels = pa.parse_relations([[{"coeff": 2, "path": ["e:1", "p1", "p2"]}]], q)
    assert rels == [(2, {0: 2})]
    assert qv.enumerate_paths(q, 2)[0] == qv.compose_paths(q, q.arrow_path(0), q.arrow_path(1))


# Steps and coefficients of well-formed and malformed relation terms.
READER_QUIVERS = {"two-loop": two_loop, "three-cycle": three_cycle, "kronecker": kronecker}
READER_COEFFS = st.one_of(st.integers(-3, 3),
                          st.sampled_from(["1/2", "-3/4", "4/2", "0", "-6/3", "0/5", "5"]))


def malformed_terms(q):
    name = q.arrows[0].name
    return [{"coeff": 1.5, "path": [name]}, {"coeff": True, "path": [name]},
            {"coeff": "1/0", "path": [name]}, {"coeff": 1, "path": ["nope"]},
            {"coeff": 1, "path": ["e:nowhere"]}, {"coeff": 1, "path": []}, {"coeff": 1},
            "term", {"coeff": 1, "path": [name, name, "e:" + q.vertices[-1], name]}]


# How each relation of a drawn document is made, weighted toward well-formed
# relations of degree 2.  Hypothesis draws the ends of a sampled list more
# often than the middle, so the rare choices sit in the middle.
RELATION_KINDS = (["plain"] * 6 + ["repeat"] * 3 + ["mixed"] * 2 + ["bad-term", "bad-relation"]
                  + ["plain"] * 6)


@st.composite
def relation_documents(draw):
    """A quiver and a relations document over it: repeated paths, zero
    coefficients, cancelling terms, repeated relations and, now and then, a
    term of another degree or a malformed term, relation or document."""
    q = READER_QUIVERS[draw(st.sampled_from(sorted(READER_QUIVERS)))]()
    by_length = [qv.enumerate_paths(q, d) for d in range(4)]

    def steps(p):
        if not p.arrows:
            return [f"e:{q.vertices[p.start]}"]
        names = [q.arrows[a].name for a in p.arrows]
        return ([f"e:{q.vertices[p.start]}"] if draw(st.booleans()) else []) + names

    doc = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(RELATION_KINDS))
        if kind == "repeat" and doc:
            doc.append(draw(st.sampled_from(doc)))
            continue
        if kind == "bad-relation":
            doc.append(draw(st.sampled_from(["relation", {"coeff": 1}])))
            continue
        d = draw(st.sampled_from([d for d in [2] * 4 + [1, 3, 0, 3] + [2] * 4 if by_length[d]]))
        pool = draw(st.lists(st.sampled_from(by_length[d]), min_size=1, max_size=3))
        if kind == "mixed":
            pool.append(draw(st.sampled_from([p for paths in by_length for p in paths])))
        rel = []
        for _ in range(draw(st.sampled_from([2, 1, 3, 0, 4, 2]))):
            p, c = draw(st.sampled_from(pool)), draw(READER_COEFFS)
            rel.append({"coeff": c, "path": steps(p)})
            if draw(st.booleans()):
                rel.append({"coeff": str(-Fraction(c)), "path": steps(p)})
        if kind == "bad-term":
            rel.insert(draw(st.integers(0, len(rel))), draw(st.sampled_from(malformed_terms(q))))
        doc.append(rel)
    return q, draw(st.sampled_from([doc] * 14 + [{"relations": doc}] + [doc] * 14))


@settings(max_examples=300, deadline=None)
@given(relation_documents())
@example((two_loop(), [[{"coeff": 1, "path": ["t1"]}], [{"coeff": 1, "path": ["t3"]}]]))
def test_parse_relations_matches_the_former_reader(case):
    """On random documents the reader gives the rows that the former path
    elements and ideal type gave, repeats aside, with ints where integral,
    or raises the same exception with the same message.  In the fixed
    case relation #0 is of degree 1, a shape error, and relation #1 names
    an unknown arrow: the document is malformed, not merely unsupported."""
    q, doc = case
    assert_reader_matches_oracle(doc, q)


def test_parse_relations_indexes_long_paths_without_enumerating(monkeypatch):
    """A relation of degree 60 is read, and refused as quadratic data,
    without listing the 2^60 paths of its degree."""
    def refuse(q, length):
        raise AssertionError(f"enumerated the paths of length {length}")

    q = two_loop()
    doc = [[{"coeff": 1, "path": ["t2"] * 60}, {"coeff": "-1/2", "path": ["t1"] * 59 + ["t2"]}]]
    monkeypatch.setattr(qv, "enumerate_paths", refuse)
    relations = pa.parse_relations(doc, q)
    assert relations == [(60, {2 ** 60 - 1: 1, 1: Fraction(-1, 2)})]
    with pytest.raises(UnsupportedShapeError, match="found degree 60"):
        pa.quadratic_data(q, relations)
