"""Path algebra elements, graded ideal pieces, quadratic data and duals."""

from fractions import Fraction
from math import comb
import random

import pytest

from faceq import pathalg as pa
from faceq import quiver as qv
from faceq import wba
from faceq.errors import ParseError, UnsupportedShapeError
from faceq.linalg import Echelon, Subspace, subspace_equal

from conftest import (commutator_ideal, is_vertex_bimodule, q_commutator_ideal,
                      quadratic_dual_oracle, quadratic_ideal_oracle, quantum_plane_ideal)
from fleet import kronecker, three_cycle, three_loop, two_loop
from oracle import PathElement, multiply_path_elements, path_text, path_unit


def brute_force_piece(ideal, d):
    """Span of all monomial sandwiches around the generators; the oracle."""
    q = ideal.quiver
    paths = qv.enumerate_paths(q, d)
    index = {p: i for i, p in enumerate(paths)}
    ech = Echelon(len(paths))
    for g in ideal.generators:
        rest = d - g.degree()
        if rest < 0:
            continue
        for dl in range(rest + 1):
            for left in qv.enumerate_paths(q, dl):
                for right in qv.enumerate_paths(q, rest - dl):
                    sandwich = PathElement(q, {left: 1}) * g * PathElement(q, {right: 1})
                    if not sandwich.is_zero():
                        ech.add(pa.element_row(sandwich, index))
    return ech.finalize()


def exterior_ideal(q):
    t1, t2 = q.arrow_path(0), q.arrow_path(1)
    sq = lambda p: qv.compose_paths(q, p, p)
    mixed = {qv.compose_paths(q, t1, t2): 1, qv.compose_paths(q, t2, t1): 1}
    return pa.HomogeneousIdeal(q, [
        pa.PathElement(q, {sq(t1): 1}),
        pa.PathElement(q, {sq(t2): 1}),
        pa.PathElement(q, mixed),
    ])


def endpoint_mixing_ideal():
    """u -a-> v -b-> w with a loop c at w, and the one relation ab + cc.

    ab runs from u to w and cc from w to w, so e_u(ab + cc) = ab and
    e_w(ab + cc) = cc: I_2 is spanned by ab and cc."""
    q = qv.Quiver(["u", "v", "w"], [("a", 0, 1), ("b", 1, 2), ("c", 2, 2)])
    a, b, c = (q.arrow_path(i) for i in range(3))
    return pa.HomogeneousIdeal(q, [pa.PathElement(q, {qv.compose_paths(q, a, b): 1,
                                                      qv.compose_paths(q, c, c): 1})])


def quotient_dims(ideal, top):
    """dim kQ_d - dim I_d for d = 0..top, through the quadratic data."""
    return wba.quotient_dims(pa.quadratic_data(ideal, top).ideal, top)


def test_multiply_unit_decomposition():
    q = kronecker()
    p = pa.PathElement(q, {q.arrow_path(0): 1})
    unit = path_unit(q)
    assert multiply_path_elements(unit, p) == p
    assert multiply_path_elements(p, unit) == p


def test_multiply_incomposable_is_zero():
    q = three_cycle()
    p1 = pa.PathElement(q, {q.arrow_path(0): 1})
    p3 = pa.PathElement(q, {q.arrow_path(2): 1})
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
                        pa.PathElement(q, {a: 1}), pa.PathElement(q, {b: 1}))
                    assert prod.is_zero() or prod.degree() == da + db


def test_commutator_piece_dims():
    ideal = commutator_ideal(two_loop())
    assert pa.ideal_graded_piece(ideal, 2).dim == 1
    assert pa.ideal_graded_piece(ideal, 3).dim == 4


def test_zero_ideal_pieces_vanish():
    ideal = pa.HomogeneousIdeal(two_loop(), [])
    for d in range(5):
        assert pa.ideal_graded_piece(ideal, d).dim == 0


def test_quotient_dimension_examples():
    q = two_loop()
    assert quotient_dims(commutator_ideal(q), 2)[2] == 3
    zero = pa.HomogeneousIdeal(q, [])
    assert quotient_dims(zero, 4) == [len(qv.enumerate_paths(q, d)) for d in range(5)]
    assert quotient_dims(exterior_ideal(q), 2)[2] == 1


def test_commutator_quotient_dims_are_monomial_counts():
    for n, make in ((2, two_loop), (3, three_loop)):
        ideal = commutator_ideal(make())
        assert quotient_dims(ideal, 4) == [comb(n + d - 1, d) for d in range(5)]


def test_graded_pieces_match_sandwich_oracle():
    q2 = two_loop()
    cases = [
        commutator_ideal(q2),
        exterior_ideal(q2),
        quantum_plane_ideal(q2),
        commutator_ideal(three_loop()),
        endpoint_mixing_ideal(),
    ]
    for ideal in cases:
        for d in range(5):
            assert subspace_equal(pa.ideal_graded_piece(ideal, d),
                                  brute_force_piece(ideal, d))
    prep = pa.preprojective_relations(three_cycle())
    for d in range(4):
        assert subspace_equal(pa.ideal_graded_piece(prep, d),
                              brute_force_piece(prep, d))


def test_ideal_pieces_match_the_quadratic_ideal():
    """ideal_graded_piece on the generators and biideal_graded_pieces on the
    BiidealGens that quadratic_ideal_oracle builds from R = I_2 agree."""
    q2, q3 = two_loop(), three_loop()
    cases = [
        commutator_ideal(q2),
        commutator_ideal(q3),
        quantum_plane_ideal(q2),
        q_commutator_ideal(q3, ["-2", "1/2", "-3/4"]),
        pa.preprojective_relations(three_cycle()),
        endpoint_mixing_ideal(),
    ]
    for ideal in cases:
        kq_ideal = quadratic_ideal_oracle(pa.quadratic_data(ideal), 4)
        for d in range(5):
            assert subspace_equal(pa.ideal_graded_piece(ideal, d),
                                  wba.biideal_graded_pieces(kq_ideal, d))


def test_inhomogeneous_generator_rejected():
    q = two_loop()
    t1 = q.arrow_path(0)
    mixed = pa.PathElement(q, {qv.compose_paths(q, t1, t1): 1, t1: 1})
    with pytest.raises(ValueError, match="homogeneous"):
        pa.HomogeneousIdeal(q, [mixed])
    with pytest.raises(ValueError, match="degree >= 2"):
        pa.HomogeneousIdeal(q, [pa.PathElement(q, {t1: 1})])


def test_quadratic_data_commutators():
    for n, make in ((2, two_loop), (3, three_loop)):
        qd = pa.quadratic_data(commutator_ideal(make()))
        assert qd.relation_space.dim == comb(n, 2)
        assert qd.ambient_dim == n * n


def test_quadratic_data_zero_and_preprojective():
    assert pa.quadratic_data(pa.HomogeneousIdeal(two_loop(), [])).relation_space.dim == 0
    prep = pa.quadratic_data(pa.preprojective_relations(three_cycle()))
    assert prep.relation_space.dim == 3


def test_quadratic_data_rejects_cubic():
    q = two_loop()
    t1 = q.arrow_path(0)
    cubic = pa.PathElement(
        q, {qv.compose_paths(q, qv.compose_paths(q, t1, t1), t1): 1})
    with pytest.raises(UnsupportedShapeError, match="degree 3"):
        pa.quadratic_data(pa.HomogeneousIdeal(q, [cubic]))


def test_quadratic_dual_of_polynomial_ring():
    qd = pa.quadratic_data(commutator_ideal(two_loop()))
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
    qd = pa.quadratic_data(pa.HomogeneousIdeal(three_loop(), []))
    dual = pa.quadratic_dual(qd)
    assert dual.relation_space.dim == 9


def random_quadratic_ideal(rng, q):
    """Up to dim kQ_2 random rational relations on the degree-2 paths of q."""
    paths = qv.enumerate_paths(q, 2)
    gens = []
    for _ in range(rng.randrange(len(paths) + 1)):
        terms = {p: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for p in paths if rng.random() < 0.4}
        gens.append(pa.PathElement(q, terms))
    return pa.HomogeneousIdeal(q, gens)


def test_dual_dimension_law_and_double_dual():
    """dim R + dim R^! = dim kQ2, and the double dual restores R, for random
    R that are kQ_0-bimodules; R whose rows mix endpoint blocks are refused
    (20 seeds, both cases drawn)."""
    rng = random.Random(20260825)
    quivers = [two_loop, three_loop, three_cycle,
               lambda: qv.double_quiver(three_cycle())]
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
        commutator_ideal(q2),
        commutator_ideal(q3),
        q_commutator_ideal(q3, ["-2", "1/2", "-3/4"]),
        exterior_ideal(q2),
        pa.preprojective_relations(three_cycle()),
        endpoint_mixing_ideal(),
    ]
    rng = random.Random(5021)
    quivers = [two_loop, three_loop, three_cycle, kronecker,
               lambda: qv.double_quiver(three_cycle())]
    ideals += [random_quadratic_ideal(rng, quivers[k % len(quivers)]()) for k in range(40)]
    for ideal in ideals:
        qd = pa.quadratic_data(ideal, 3)
        dual = pa.quadratic_dual(qd, 3)
        space, old_ideal = quadratic_dual_oracle(qd, 3)
        assert dual.relation_space == space
        assert dual.relation_space.pivots == space.pivots
        assert wba.quotient_dims(dual.ideal, 3) == wba.quotient_dims(old_ideal, 3)


def test_preprojective_relations_display():
    prep = pa.preprojective_relations(three_cycle())
    texts = [path_text(g) for g in prep.generators]
    assert texts == [
        "1 * p1.p1* + -1 * p3*.p3",
        "1 * p2.p2* + -1 * p1*.p1",
        "1 * p3.p3* + -1 * p2*.p2",
    ]


def test_preprojective_four_cycle():
    four = qv.Quiver(["1", "2", "3", "4"],
                     [("p1", 0, 1), ("p2", 1, 2), ("p3", 2, 3), ("p4", 3, 0)])
    assert len(pa.preprojective_relations(four).generators) == 4


def test_preprojective_rejects_two_cycle():
    two = qv.Quiver(["1", "2"], [("p1", 0, 1), ("p2", 1, 0)])
    with pytest.raises(UnsupportedShapeError):
        pa.preprojective_relations(two)
    with pytest.raises(UnsupportedShapeError):
        pa.preprojective_relations(two_loop())


def test_parse_relations_round_trip():
    q = two_loop()
    doc = [[{"coeff": 1, "path": ["t1", "t2"]},
            {"coeff": "-1/1", "path": ["t2", "t1"]}]]
    rels = pa.parse_relations(doc, q)
    assert len(rels) == 1
    assert path_text(rels[0]) == "1 * t1.t2 + -1 * t2.t1"


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


def test_parse_relations_trivial_path_terms():
    q = three_cycle()
    rels = pa.parse_relations([[{"coeff": 2, "path": ["e:1", "p1", "p2"]}]], q)
    assert path_text(rels[0]) == "2 * p1.p2"
