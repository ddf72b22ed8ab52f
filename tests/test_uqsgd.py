"""Quotient constructions for quadratic relation spaces and their dualities."""

import json
import tempfile
from fractions import Fraction
from math import comb
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from faceq import cli
from faceq import coaction as co
from faceq import face as fc
from faceq import linalg
from faceq import pathalg as pa
from faceq import quiver as qv
from faceq import uqsgd as uq
from faceq import wba
from faceq.errors import UnsupportedShapeError
from faceq.linalg import Subspace

from conftest import (bracket, check_biideal_oracle, check_descent_oracle, commutator_relations,
                      face_coaction_relations, face_coords, full_witness_rows,
                      induced_coefficients_oracle, loop_face, polynomial_families,
                      preprojective_families, q_commutator_relations, quadratic_ideal_oracle,
                      quantum_plane_relations, quotient_algebra_oracle, quotient_coalgebra_oracle,
                      relation_rows)
from fleet import FLEET, HOST_DEGREE, kronecker, three_cycle, three_loop, two_loop
from oracle import (coproduct_table, duality_report_with_dims, preprojective_relations,
                    product_path_indices, product_quiver, subspace_equal, sum_of_pieces,
                    tabled)
from test_face import named_quivers
from test_golden import (DOUBLED_THREE_CYCLE, PREPROJECTIVE_THREE_CYCLE, Q_COMMUTATORS,
                         QUANTUM_PLANE, THREE_LOOP, THREE_LOOP_COMMUTATORS, TWO_LOOP, Unknown)
from test_wba import PRODUCT_QUIVER_PATHS


def piece2(result):
    return wba.biideal_graded_pieces(result.biideal, 2)


def dualities(q, relations, degree):
    qd = pa.quadratic_data(q, relations, degree)
    return uq.check_quadratic_dualities(qd, pa.quadratic_dual(qd, degree), degree)


def family_span(q, host, elems):
    rows = [face_coords(q, r, 2) for r in elems]
    return Subspace.from_rows(host.dim(2), rows)


def test_coaction_relations_polynomial_examples():
    q = two_loop()
    qd = pa.quadratic_data(q, commutator_relations(q))
    gens = uq.coaction_relations(qd, "left")
    assert len(gens) == 3
    assert gens[0] == face_coords(q, bracket(loop_face(q, 0, 0), loop_face(q, 1, 0)), 2)
    assert gens[1] == face_coords(q, bracket(loop_face(q, 0, 0), loop_face(q, 1, 1))
                                  + bracket(loop_face(q, 0, 1), loop_face(q, 1, 0)), 2)
    assert gens[2] == face_coords(q, bracket(loop_face(q, 0, 1), loop_face(q, 1, 1)), 2)
    rights = uq.coaction_relations(qd, "right")
    assert rights[0] == face_coords(q, bracket(loop_face(q, 0, 0), loop_face(q, 0, 1)), 2)


ORACLE_IDEALS = {
    "commutator": lambda: (two_loop(), commutator_relations(two_loop())),
    "quantum-plane-half": lambda: (two_loop(), quantum_plane_relations(two_loop(), Fraction(1, 2))),
    "q-commutator": lambda: (three_loop(), q_commutator_relations(
        three_loop(), [-2, Fraction(1, 2), Fraction(-3, 4)])),
    "preprojective": lambda: preprojective_relations(three_cycle()),
}


@pytest.mark.parametrize("name", sorted(ORACLE_IDEALS))
def test_coaction_relations_match_face_element_oracle(name):
    """Generator order, term order and values equal the face-element
    construction on each algebra and its quadratic dual; integral values
    are ints, so no integral Fraction reaches a generator."""
    qd = pa.quadratic_data(*ORACLE_IDEALS[name]())
    fractions = 0
    for data in (qd, pa.quadratic_dual(qd)):
        for side in ("left", "right"):
            gens = uq.coaction_relations(data, side)
            oracle = [face_coords(data.quiver, g, 2)
                      for g in face_coaction_relations(data, side)]
            assert [list(g.items()) for g in gens] == [list(g.items()) for g in oracle]
            for g in gens:
                for c in g.values():
                    assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
                    fractions += type(c) is Fraction
    assert bool(fractions) == (name in ("quantum-plane-half", "q-commutator"))


def test_coaction_relations_counts():
    q = two_loop()
    qd = pa.quadratic_data(q, commutator_relations(q))
    assert len(uq.coaction_relations(qd, "left")) == 1 * (4 - 1)
    prep = pa.quadratic_data(*preprojective_relations(three_cycle()))
    assert len(uq.coaction_relations(prep, "left")) == 3 * (12 - 3)
    empty = pa.quadratic_data(q, [])
    assert uq.coaction_relations(empty, "left") == []
    assert uq.coaction_relations(empty, "right") == []


def test_polynomial_piece_matches_displayed_families(built_results):
    for name, q in (("two-loop-commutator", two_loop()),):
        for side in ("left", "right"):
            res = built_results[f"{name}-{side}"]
            fam = polynomial_families(q, side)
            assert subspace_equal(piece2(res),
                                  family_span(q, res.biideal.host, fam))
    res3 = built_results["three-loop-commutator-left"]
    q3 = three_loop()
    fam3 = polynomial_families(q3, "left")
    assert subspace_equal(piece2(res3), family_span(q3, res3.biideal.host, fam3))


def test_transposed_piece_is_all_commutators(built_results):
    q = two_loop()
    res = built_results["two-loop-commutator-trans"]
    rows = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    comm = bracket(loop_face(q, i, j), loop_face(q, k, l))
                    if not comm.is_zero():
                        rows.append(comm)
    assert subspace_equal(piece2(res), family_span(q, res.biideal.host, rows))


def test_polynomial_trans_quotient_dims(built_results):
    res2 = built_results["two-loop-commutator-trans"]
    assert res2.quotient_dims == [comb(4 + l - 1, l) for l in range(5)]
    res3 = built_results["three-loop-commutator-trans"]
    assert res3.quotient_dims == [comb(9 + l - 1, l) for l in range(4)]


def test_quantum_plane_build(built_results):
    res = built_results["quantum-plane-trans"]
    assert res.quotient_dims == [1, 4, 10, 20, 35]
    assert res.verification["axioms"]["passed"]
    assert res.verification["transposed"] is True


def test_preprojective_pieces_match_displayed_families(built_results):
    dbl, _ = preprojective_relations(three_cycle())
    for side in ("left", "right"):
        res = built_results[f"preprojective-{side}"]
        fam = preprojective_families(dbl, side)
        assert len(fam) == 27
        assert subspace_equal(piece2(res), family_span(dbl, res.biideal.host, fam))


def test_verification_bundles(built_results):
    for name, res in built_results.items():
        assert res.verification["biideal"]["passed"], name
        assert res.verification["axioms"]["passed"], name
        assert res.verification["descent"]["passed"], name
        for side, report in res.verification["comodule"].items():
            assert report["passed"], (name, side)
        for side, report in res.verification["structureLemmas"].items():
            assert report["passed"], (name, side)
        if res.side == "trans":
            assert res.verification["transposed"] is True
            assert set(res.induced_coactions) == {"left", "right"}
        else:
            assert set(res.induced_coactions) == {res.side}
        assert res.quotient_dims == res.quotient.dims()


def test_trivial_ideal_reproduces_face_algebra(trivial_results):
    for name, (q, degree, res) in trivial_results.items():
        host = wba.from_face_algebra(wba.path_algebra_presentation(q, degree))
        for field in ("max_degree", "labels", "product", "unit", "counit"):
            assert getattr(res.quotient, field) == getattr(host, field), (name, field)
        assert coproduct_table(res.quotient) == coproduct_table(host), name
        assert len(res.biideal.generators) == 0
        for side, spec in res.induced_coactions.items():
            kq = wba.path_algebra_presentation(q, degree)
            canonical = co.canonical_coactions(kq, (side,))[side]
            assert spec.coefficients == canonical.coefficients


def test_induced_coactions_transposed_for_trans(built_results):
    res = built_results["two-loop-commutator-trans"]
    assert co.check_transposed(res.induced_coactions["left"],
                               res.induced_coactions["right"])


def test_build_rejects_bad_inputs():
    q = two_loop()
    with pytest.raises(ValueError, match="side"):
        uq.build_uqsgd(q, commutator_relations(q), "middle", 2)
    t1 = q.arrow_path(0)
    cubic = relation_rows(q, [{qv.compose_paths(q, qv.compose_paths(q, t1, t1), t1): 1}])
    with pytest.raises(UnsupportedShapeError, match="degree-2"):
        uq.build_uqsgd(q, cubic, "left", 2)


def test_quadratic_dualities_polynomial():
    q = two_loop()
    report = dualities(q, commutator_relations(q), 3)
    assert report["passed"]
    names = [row["check"] for row in report["checks"]]
    assert names == [
        "a-star-left-onto-dual-right",
        "b-star-right-onto-dual-left",
        "c-swap-left-onto-right",
        "d-star-trans-onto-dual-trans",
    ]


def test_quadratic_dualities_quantum_plane():
    q = two_loop()
    report = dualities(q, quantum_plane_relations(q), 3)
    assert report["passed"], report


def test_quadratic_dualities_preprojective():
    report = dualities(*preprojective_relations(three_cycle()), 2)
    assert report["passed"], report


def test_quadratic_dualities_refuse_a_window_outside_the_data():
    """The hosts are squared from the data's kQ, so the window runs from
    degree 2 to the truncation the quadratic data was built at."""
    q = two_loop()
    qd = pa.quadratic_data(q, commutator_relations(q))
    for degree in (1, 3):
        with pytest.raises(ValueError, match=r"need 2 <= max_degree <= 2, the data's truncation"):
            uq.check_quadratic_dualities(qd, pa.quadratic_dual(qd), degree)


def test_quadratic_dualities_fail_against_another_dual():
    """The polynomial ring's relations checked against the dual of the
    quantum plane: every row that reads the dual fails with its witness,
    and the swap row, which reads only the base, passes."""
    q = two_loop()
    qd = pa.quadratic_data(q, commutator_relations(q), 3)
    other = pa.quadratic_dual(pa.quadratic_data(q, quantum_plane_relations(q), 3), 3)
    report = uq.check_quadratic_dualities(qd, other, 3)
    assert report == {"passed": False, "checks": [
        {"check": "a-star-left-onto-dual-right", "status": "fail",
         "witnesses": ["left piece of the base vs right piece of the dual"]},
        {"check": "b-star-right-onto-dual-left", "status": "fail",
         "witnesses": ["right piece of the base vs left piece of the dual"]},
        {"check": "c-swap-left-onto-right", "status": "pass", "witnesses": []},
        {"check": "d-star-trans-onto-dual-trans", "status": "fail",
         "witnesses": ["transposed piece of the base vs transposed piece of the dual"]},
    ]}


def test_build_computes_no_quotient_coproduct_term_outside_the_kept_legs(monkeypatch):
    """The quotient's Delta is computed on demand, never tabled, and only
    where it is read: quotient_wba reads no host coproduct while it builds,
    and during build_uqsgd on the three-loop commutators (trans, degree 3)
    the counit splits call the quotient's coproducts_on twice per degree,
    each result the full coproducts filtered to the legs asked for; each
    call reads the host through its coproducts_on alone, never its
    coproduct_of, and every table it divides holds only terms on those
    legs, as many as it returns.  The quotient's coproduct_of is called
    only in degrees 0 and 1."""
    host_reads, reads, calls, quotients = [], [], [], []
    quotient_wba, divided = wba.quotient_wba, wba.divided
    tables = []
    monkeypatch.setattr(wba, "divided", lambda table, denom: tables.append(table)
                        or divided(table, denom))

    def counted(b, report=None):
        host_of = b.host.coproduct_of
        monkeypatch.setattr(b.host, "coproduct_of",
                            lambda d, i: host_reads.append((d, i)) or host_of(d, i))
        quo = quotient_wba(b, report=report)
        assert host_reads == []
        of, on = quo.coproduct_of, quo.coproducts_on

        def counted_on(d, first, second):
            tables.clear()
            before = len(host_reads)
            out = on(d, first, second)
            calls.append((d, set(first), set(second), out, list(tables), host_reads[before:]))
            return out

        quo.coproduct_of = lambda d, i: reads.append((d, i)) or of(d, i)
        quo.coproducts_on = counted_on
        quotients.append(quo)
        return quo

    monkeypatch.setattr(wba, "quotient_wba", counted)
    q = three_loop()
    result = uq.build_uqsgd(q, commutator_relations(q), "trans", 3)
    assert quotients == [result.quotient] and result.verification["axioms"]["passed"]
    assert {d for d, _ in reads} == {0, 1}
    assert [d for d, *_ in calls] == [0, 0, 1, 1, 2, 2, 3, 3]
    full = coproduct_table(result.quotient)
    for d, first, second, out, divided_tables, call_host_reads in calls:
        filtered = {}
        for (e, i), terms in full.items():
            kept = {(j, k): c for (j, k), c in terms.items() if j in first and k in second}
            if e == d and kept:
                filtered[i] = kept
        assert out == filtered and call_host_reads == []
        assert all(j in first and k in second for table in divided_tables for j, k in table)
        assert sum(map(len, divided_tables)) == sum(map(len, out.values()))


def test_quadratic_dualities_build_no_coproduct_tables(monkeypatch):
    """The transports read only products: no GradedWBA, so no coproduct or
    counit, is built; every presentation with a coproduct is a GradedWBA."""
    def refuse(*args):
        raise AssertionError("a coproduct was built")

    monkeypatch.setattr(wba.GradedWBA, "__init__", refuse)
    q = three_loop()
    report = dualities(q, q_commutator_relations(q, ["-2", "1/2", "-3/4"]), 3)
    assert report["passed"], report


def test_three_loop_q_commutator_dualities_combine_count(monkeypatch):
    """Elimination steps of the duality checks on the golden three-loop
    q-commutator documents at degree 4, a degree no benchmark workload
    reaches.  Each side's biideal spreads its own coaction relations, the
    transposed one their union, and only to degree 2, on hosts truncated
    there: the graded dimensions follow from the degree-2 pieces (see
    check_quadratic_dualities), so the count is that of six degree-2
    pieces, 49 steps, at any degree.  Spreading the six biideals to
    degree 4 for their dimensions took 71,009."""
    q = qv.parse_quiver(THREE_LOOP)
    qd = pa.quadratic_data(q, pa.parse_relations(Q_COMMUTATORS, q), 4)
    qdual = pa.quadratic_dual(qd, 4)
    calls = [0]
    combine = linalg._combine

    def counted(a, row, b, piv):
        calls[0] += 1
        return combine(a, row, b, piv)

    monkeypatch.setattr(linalg, "_combine", counted)
    assert uq.check_quadratic_dualities(qd, qdual, 4)["passed"]
    assert calls[0] == 49


def test_quadratic_dualities_spread_no_biideal_past_degree_two(monkeypatch):
    """The dimension laws are proved, not computed: on the golden three-loop
    q-commutators at degree 4, every biideal piece the checks spread is of
    degree 2 at most, over an h(Q) truncated at degree 2."""
    q = qv.parse_quiver(THREE_LOOP)
    qd = pa.quadratic_data(q, pa.parse_relations(Q_COMMUTATORS, q), 4)
    qdual = pa.quadratic_dual(qd, 4)
    spread = []
    spread_piece = wba._spread

    def recorded(b, d):
        spread.append((b.host.max_degree, d))
        return spread_piece(b, d)

    monkeypatch.setattr(wba, "_spread", recorded)
    assert uq.check_quadratic_dualities(qd, qdual, 4)["passed"]
    assert sorted(set(spread)) == [(2, 0), (2, 1), (2, 2)]


def test_quadratic_dualities_refuse_a_dual_over_another_quiver(monkeypatch):
    """The transports are proved for data over Q and Q^op; data over any
    other quiver is refused before a host is built, even where the degree-2
    pieces could be compared: the two-loop data against itself, and
    against its dual read over the opposite quiver with its arrows renamed."""
    def refuse(*args):
        raise AssertionError("a host was built")

    q = two_loop()
    qd = pa.quadratic_data(q, quantum_plane_relations(q), 3)
    qdual = pa.quadratic_dual(qd, 3)
    renamed = qv.Quiver(q.vertices, [(f"s{k}", a.source, a.target)
                                     for k, a in enumerate(qdual.quiver.arrows)])
    relabelled = pa.quadratic_data(renamed, [(2, row) for row in qdual.relation_space.int_rows],
                                   3)
    monkeypatch.setattr(wba, "face_algebra", refuse)
    for other in (qd, relabelled):
        with pytest.raises(ValueError, match="the dual data over the opposite quiver"):
            uq.check_quadratic_dualities(qd, other, 3)


def squared_map(perm):
    """The index map of h(Q)_d induced by a map perm of kQ_d's indices:
    x[a;b] -> x[perm(a);perm(b)], on the i_a*n + i_b indices."""
    n = len(perm)
    return [perm[i // n] * n + perm[i % n] for i in range(n * n)]


def moved_product_failures(src, tgt, phi, reverse):
    """Basis pairs (d, i, e, j), d + e within src's window, zero products
    included, where phi(u_i u_j) is not phi(u_i) phi(u_j) in tgt, or
    phi(u_j) phi(u_i) when reverse; phi[d] is the index map of degree d."""
    fails = []
    for d in range(src.max_degree + 1):
        for e in range(src.max_degree + 1 - d):
            for i in range(src.dim(d)):
                for j in range(src.dim(e)):
                    moved = {phi[d + e][m]: c for m, c in src.product_of(d, i, e, j).items()}
                    target = (tgt.product_of(e, phi[e][j], d, phi[d][i]) if reverse
                              else tgt.product_of(d, phi[d][i], e, phi[e][j]))
                    if moved != target:
                        fails.append((d, i, e, j))
    return fails


@pytest.mark.parametrize("name", sorted(FLEET))
def test_star_and_swap_move_face_products(name):
    """The premise of the duality lemma, on face_algebra's product tables up
    to the quiver's HOST_DEGREE: star, x[a;b] -> x[a*;b*] with a* from
    quiver.star_indices in every degree, reverses products from h(Q) to
    h(Q^op), and swap, x[a;b] -> x[b;a], is multiplicative on h(Q).  Each
    test catches a dropped product: any one for star, and one whose swapped
    pair is another pair for swap."""
    q = FLEET[name]()
    degree = HOST_DEGREE[name]
    h = wba.face_algebra(wba.path_algebra_presentation(q, degree))
    hop = wba.face_algebra(wba.path_algebra_presentation(qv.opposite_quiver(q), degree))
    star = [squared_map(qv.star_indices(q, d)) for d in range(degree + 1)]
    swap = [[i % n * n + i // n for i in range(n * n)]
            for n in (qv.path_count(q, d) for d in range(degree + 1))]
    assert moved_product_failures(h, hop, star, reverse=True) == []
    assert moved_product_failures(h, h, swap, reverse=False) == []

    def dropped(key):
        return wba.GradedAlgebra(degree, h.labels,
                                 {k: v for k, v in h.product.items() if k != key}, h.unit)

    if h.product:
        assert moved_product_failures(dropped(max(h.product)), hop, star, reverse=True)
    moving = [(d, i, e, j) for d, i, e, j in sorted(h.product)
              if (swap[d][i], swap[e][j]) != (i, j)]
    if moving:
        broken = dropped(moving[-1])
        assert moved_product_failures(broken, broken, swap, reverse=False)


def test_quadratic_dualities_free_algebra():
    q = kronecker()
    report = dualities(q, [], 2)
    assert report["passed"]
    with pytest.raises(ValueError):
        dualities(q, [], 1)


def rational_relations(q):
    """p_0 - 2 p_1, p_2 + 1/2 p_3 and p_4 - 3/4 p_5 over the degree-2 paths
    p_i of q, as far as they go; a lone last path takes the scale alone."""
    paths = qv.enumerate_paths(q, 2)
    gens = []
    for k, scale in enumerate((Fraction(-2), Fraction(1, 2), Fraction(-3, 4))):
        terms = {p: c for p, c in zip(paths[2 * k:2 * k + 2], (1, scale))}
        if len(terms) == 1:
            terms = {p: scale for p in terms}
        if terms:
            gens.append(terms)
    return relation_rows(q, gens)


@pytest.mark.parametrize("name", sorted(FLEET))
def test_transposed_pieces_are_the_sum_of_the_one_sided_ones(name):
    """The transposed biideal, which spreads the union of both sides'
    relations, is the oracle's sum of the one-sided pieces: the ranks in
    every degree and the canonical degree-2 piece, for the base and the
    dual.  The one-sided pieces enter in both states a biideal holds a
    piece in, as quotient_dims leaves them: finalized below the top degree
    and only ranked in it.  check_quadratic_dualities itself leaves only
    finalized pieces, of degree 2 at most."""
    q = FLEET[name]()
    degree = min(3, HOST_DEGREE[name])
    qd = pa.quadratic_data(q, rational_relations(q), degree)
    for data in (qd, pa.quadratic_dual(qd)):
        host = wba.face_algebra(wba.path_algebra_presentation(data.quiver, degree))
        one_sided = [uq._relation_biideal(host, data, side)[1] for side in co.SIDES]
        for b in one_sided:
            wba.quotient_dims(b, degree)
            wba.biideal_graded_pieces(b, 2)
        sums = sum_of_pieces(one_sided, degree)
        _, union = uq._relation_biideal(host, data, "trans")
        assert [ech.rank for ech in sums] == [wba.biideal_rank(union, d)
                                              for d in range(degree + 1)]
        piece = sums[2].finalize()
        assert piece == wba.biideal_graded_pieces(union, 2)
        assert piece.pivots == wba.biideal_graded_pieces(union, 2).pivots


# Small fleet quivers with degree-2 paths, and the host truncation for each.
RELATION_DEGREE = {"one-loop": 3, "two-loop": 3, "three-cycle": 3, "doubled-three-cycle": 2}
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def rational_relation_biideals(draw):
    """Random rational quadratic relations on a small fleet quiver, a result
    side, and the coaction-relation biideal of that side over h(Q)."""
    name = draw(st.sampled_from(sorted(RELATION_DEGREE)))
    q = FLEET[name]()
    degree = RELATION_DEGREE[name]
    paths = qv.enumerate_paths(q, 2)
    rows = draw(st.lists(st.dictionaries(st.integers(0, len(paths) - 1), RATIONALS,
                                         min_size=1, max_size=3), min_size=1, max_size=2))
    qd = pa.quadratic_data(q, [(2, row) for row in rows], degree)
    side = draw(st.sampled_from(uq.RESULT_SIDES))
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, degree))
    sides, b = uq._relation_biideal(host, qd, side)
    return q, qd, sides, b


@st.composite
def duality_data(draw):
    """Quadratic data of random rational relations on a small fleet quiver,
    at a degree from 2 to the quiver's RELATION_DEGREE, with its quadratic
    dual or, as often, the dual of other random relations on the same
    quiver, against which rows fail."""
    name = draw(st.sampled_from(sorted(RELATION_DEGREE)))
    q = FLEET[name]()
    degree = draw(st.integers(2, RELATION_DEGREE[name]))
    rows = st.lists(st.dictionaries(st.integers(0, qv.path_count(q, 2) - 1), RATIONALS,
                                    min_size=1, max_size=3), max_size=2)
    qd = pa.quadratic_data(q, [(2, row) for row in draw(rows)], degree)
    other = draw(st.one_of(st.none(), rows))
    source = qd if other is None else pa.quadratic_data(q, [(2, row) for row in other], degree)
    return qd, pa.quadratic_dual(source, degree), degree


@settings(max_examples=100, deadline=None)
@given(duality_data())
def test_dualities_match_the_oracle_that_compares_dimensions(data):
    """Each row's degree-2 comparison decides it: the report equals the one
    that also compares the six biideals' graded quotient dimensions up to
    the degree (oracle.duality_report_with_dims), passing rows and failing
    ones alike."""
    qd, qdual, degree = data
    report = uq.check_quadratic_dualities(qd, qdual, degree)
    assert report == duality_report_with_dims(qd, qdual, degree)


def typed(table):
    return {key: (x, type(x)) for key, x in table.items()}


def policy_typed(table):
    """The values with the type the scalar policy gives them, an int where
    integral: the Fraction oracle can sum Fraction terms to an integral
    Fraction, where the projections divide once and give an int."""
    return {key: (x, int if x.denominator == 1 else Fraction) for key, x in table.items()}


def corrupted(host, d, i, scale):
    """host with the first term of the coproduct of u^d_i scaled."""
    coproduct = coproduct_table(host)
    entry = dict(coproduct[(d, i)])
    first = next(iter(entry))
    entry[first] *= scale
    coproduct[(d, i)] = entry
    return tabled(host.max_degree, host.labels, host.product, host.unit, coproduct, host.counit)


@settings(max_examples=60, deadline=None)
@given(rational_relation_biideals(), st.data())
def test_projections_match_the_fraction_oracle(case, data):
    """The int projections over a common denominator against the Fraction
    projection they replace: the biideal check, on the biideal and on a
    host with a corrupted rational coproduct entry, and the descent check,
    failure lists in order; the quotient tables and the induced
    coefficients value by value and by int/Fraction type."""
    _, qd, sides, b = case
    host, top = b.host, b.host.max_degree
    pieces_h = [wba.biideal_graded_pieces(b, d) for d in range(top + 1)]
    algebra_pieces = [wba.biideal_graded_pieces(qd.ideal, d) for d in range(top + 1)]
    assert uq._check_descent(pieces_h, algebra_pieces, co.SIDES) == \
        check_descent_oracle(pieces_h, algebra_pieces, co.SIDES)

    d = data.draw(st.integers(1, top))
    i = data.draw(st.integers(0, host.dim(d) - 1))
    bad = wba.BiidealGens(corrupted(host, d, i, data.draw(RATIONALS.filter(lambda x: x != 1))),
                          b.generators)
    with pytest.MonkeyPatch.context() as mp:
        full_witness_rows(mp)
        for biideal in (b, bad):
            assert wba.check_biideal(biideal, top) == check_biideal_oracle(biideal, top)

    quo = wba.quotient_wba(b)
    product, unit = quotient_algebra_oracle(b)
    coproduct, counit = quotient_coalgebra_oracle(b)
    for new, old in ((quo.product, product), (coproduct_table(quo), coproduct)):
        assert new.keys() == old.keys()
        for key, entry in new.items():
            assert typed(entry) == policy_typed(old[key]), key
    assert typed(quo.unit) == policy_typed(unit)
    assert quo.counit == counit
    oracle = induced_coefficients_oracle(b, qd.ideal.host, top)
    coefficients = uq._induced_coefficients(b, qd.ideal.host, top)
    assert [[[typed(e) for e in row] for row in mat] for mat in coefficients] == \
        [[[policy_typed(e) for e in row] for row in mat] for mat in oracle]


def descent_fails(biideal, qd, degree):
    """_check_descent of biideal's pieces against kQ/I, both sides, beside the oracle's."""
    pieces_h = [wba.biideal_graded_pieces(biideal, d) for d in range(degree + 1)]
    kq_ideal = quadratic_ideal_oracle(qd, degree)
    algebra_pieces = [wba.biideal_graded_pieces(kq_ideal, d) for d in range(degree + 1)]
    return (uq._check_descent(pieces_h, algebra_pieces, co.SIDES),
            check_descent_oracle(pieces_h, algebra_pieces, co.SIDES), algebra_pieces)


def test_descent_fails_on_the_side_the_relations_do_not_cover():
    """The left coaction relations of the quantum plane give a biideal that
    the left coaction descends to and the right one does not."""
    q = two_loop()
    qd = pa.quadratic_data(q, quantum_plane_relations(q))
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    _, biideal = uq._relation_biideal(host, qd, "left")
    fails, oracle, _ = descent_fails(biideal, qd, 3)
    assert fails == oracle
    assert fails["left"] == []
    assert len(fails["right"]) == 5


def test_descent_fails_on_every_row_for_the_zero_biideal():
    q = two_loop()
    qd = pa.quadratic_data(q, quantum_plane_relations(q))
    fails, oracle, algebra_pieces = descent_fails(
        wba.BiidealGens(wba.from_face_algebra(wba.path_algebra_presentation(q, 3)), []), qd, 3)
    every_row = [f"degree {d}, relation row {r}"
                 for d, piece in enumerate(algebra_pieces) for r in range(piece.dim)]
    assert every_row
    assert fails == oracle == {"left": every_row, "right": every_row}


# Relation coefficients of the metamorphic test, integral and not.
COEFFS = (1, -1, 2, "1/2", "-3/2")


@st.composite
def quadratic_relations(draw, q):
    """One or two relations of q (none when q has no path of length 2), each
    a combination of up to three distinct parallel paths of length 2, as a
    relations document."""
    parallel = {}
    for p in qv.enumerate_paths(q, 2):
        parallel.setdefault((p.start, q.path_target(p)), []).append(
            [q.arrows[i].name for i in p.arrows])
    if not parallel:
        return []
    groups = list(parallel.values())
    relations = []
    for _ in range(draw(st.integers(1, 2))):
        paths = draw(st.sampled_from(groups))
        picked = draw(st.lists(st.integers(0, len(paths) - 1), min_size=1, max_size=3,
                               unique=True))
        relations.append([{"coeff": draw(st.sampled_from(COEFFS)), "path": paths[k]}
                          for k in picked])
    return relations


@settings(max_examples=30, deadline=None)
@given(named_quivers().filter(lambda q: qv.path_count(q, 2)).flatmap(
    lambda q: st.tuples(st.just(q), quadratic_relations(q), st.integers(2, 3))))
@example((qv.parse_quiver(TWO_LOOP), QUANTUM_PLANE, 3))
@example((qv.parse_quiver(THREE_LOOP), Q_COMMUTATORS, 2))
@example((qv.parse_quiver(DOUBLED_THREE_CYCLE), PREPROJECTIVE_THREE_CYCLE, 2))
def test_uqsgd_dims_are_those_of_a_quadratic_algebra_on_the_product_quiver(case):
    """h(Q) is k(Q ⊠ Q), so every UQSGd is the quadratic algebra
    k(Q ⊠ Q)/(J) with J spanned by the biideal's degree-2 generators.  Its
    quotientDims on every side equal those pathalg.quadratic_data gives on
    product_quiver(Q), with the generators moved by x[a;b] -> (a, b) as
    relations: a route that never spreads the biideal over h(Q).  The
    degree, at most 3, is lowered to 2 while degree 3 has more than
    PRODUCT_QUIVER_PATHS paths."""
    q, relations, degree = case
    if qv.path_count(q, 3) > PRODUCT_QUIVER_PATHS:
        degree = 2
    rows = pa.parse_relations(relations, q)
    pq = product_quiver(q)
    index = product_path_indices(q, pq, 2)
    for side in uq.RESULT_SIDES:
        result = uq.build_uqsgd(q, rows, side, degree)
        moved = [(2, {index[i]: c for i, c in gen.items()})
                 for d, gen in result.biideal.generators if d == 2]
        assert all(d == 2 for d, _ in result.biideal.generators)
        qd = pa.quadratic_data(pq, moved, degree)
        assert result.quotient_dims == wba.quotient_dims(qd.ideal, degree)


def verdicts(node, place=()):
    """Every check row of a report as (place, name, status), witnesses left out."""
    if isinstance(node, dict):
        if "status" in node:
            return [(place, node.get("check", node.get("axiom")), node["status"])]
        return [row for k in sorted(node) for row in verdicts(node[k], place + (k,))]
    if isinstance(node, list):
        return [row for item in node for row in verdicts(item, place)]
    return []


def report_run(work, command, side, quiver, relations, degree):
    """Exit code, verdict, dims and check rows of one in-process CLI run;
    side None leaves --side out."""
    paths = [work / "quiver.json", work / "relations.json", work / "report.json"]
    paths[0].write_text(json.dumps(quiver))
    paths[1].write_text(json.dumps(relations))
    argv = [command, "--quiver", str(paths[0]), "--relations", str(paths[1]),
            "--max-degree", str(degree), "--out", str(paths[2])]
    code = cli.main(argv + (["--side", side] if side else []))
    doc = json.loads(paths[2].read_text())
    dims = {k: doc.get(k) for k in ("quotientDims", "algebraDims", "primalDims", "dualDims")}
    return code, doc["passed"], dims, doc.get("transposed"), verdicts(doc)


@settings(max_examples=40, deadline=None)
@given(named_quivers().flatmap(lambda q: st.tuples(
    st.just(q), quadratic_relations(q), st.permutations(range(len(q.vertices))),
    st.permutations(range(len(q.arrows))), st.just(2))))
@example((qv.parse_quiver(THREE_LOOP), THREE_LOOP_COMMUTATORS, [0], [2, 0, 1], 3))
@example((qv.parse_quiver(DOUBLED_THREE_CYCLE), PREPROJECTIVE_THREE_CYCLE, [2, 0, 1],
          [4, 0, 5, 2, 1, 3], 3))
def test_uqsgd_and_dual_respect_relabelling_and_path_reversal(case):
    """The paper's symmetries on quadratic quotients kQ/I: random ones at
    degree 2, and at degree 3 the three-loop commutators and the doubled
    three-cycle's preprojective relations.

    Renaming and reordering vertices and arrows only permutes bases, so the
    uqsgd (left, right and trans) and dual reports keep their dims and
    verdicts.  Path reversal identifies kQ^op/I^op with (kQ/I)^op, and the
    left (and the right) UQSGd of (Q, R) and of (Q^op, R^op) have the same
    dims and verdicts.
    """
    q, relations, vertex_order, arrow_order, degree = case
    doc = cli._quiver_doc(q)
    vname = {v: f"v{i}" for i, v in enumerate(q.vertices)}
    aname = {a.name: f"a{i}" for i, a in enumerate(q.arrows)}
    renamed = {"vertices": [vname[doc["vertices"][v]] for v in vertex_order],
               "arrows": [{"name": aname[a["name"]], "source": vname[a["source"]],
                           "target": vname[a["target"]]}
                          for a in (doc["arrows"][i] for i in arrow_order)]}
    renamed_relations = [[{"coeff": t["coeff"], "path": [aname[a] for a in t["path"]]}
                          for t in rel] for rel in relations]
    op = cli._quiver_doc(qv.opposite_quiver(q))
    op_relations = [[{"coeff": t["coeff"], "path": [a + "*" for a in reversed(t["path"])]}
                     for t in rel] for rel in relations]
    runs = (("uqsgd", "left"), ("uqsgd", "right"), ("uqsgd", "trans"), ("dual", None))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        own = {run: report_run(work, *run, doc, relations, degree) for run in runs}
        for command, side in runs:
            assert own[command, side] == report_run(work, command, side, renamed,
                                                    renamed_relations, degree)
        for side in ("left", "right"):
            assert own["uqsgd", side] == report_run(work, "uqsgd", side, op, op_relations, degree)


def report_bytes(work, argv):
    """Exit code and report bytes of one in-process CLI run."""
    out = work / "report.json"
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_bytes()


@settings(max_examples=25, deadline=None)
@given(named_quivers().filter(lambda q: qv.path_count(q, 2)).flatmap(
    lambda q: st.tuples(st.just(q), quadratic_relations(q), st.integers(2, 3),
                        st.sampled_from(uq.RESULT_SIDES))))
def test_reports_are_the_same_with_every_born_fact_unknown(case):
    """The born facts only let a check skip joins whose result they prove.
    On random quadratic relations of random quivers, at degree 2 or 3
    (lowered to 2 where degree 3 has more than PRODUCT_QUIVER_PATHS paths),
    the verify report and the uqsgd report of a drawn side, exit codes
    included, are byte-equal with both facts unknown on every presentation
    (test_golden's Unknown descriptors), where every shortcut takes its
    full join."""
    q, relations, degree, side = case
    if qv.path_count(q, 3) > PRODUCT_QUIVER_PATHS:
        degree = 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "quiver.json").write_text(json.dumps(cli._quiver_doc(q)))
        (work / "relations.json").write_text(json.dumps(relations))
        common = ["--quiver", str(work / "quiver.json"), "--max-degree", str(degree)]
        runs = (["verify", *common],
                ["uqsgd", *common, "--relations", str(work / "relations.json"), "--side", side])
        born = [report_bytes(work, argv) for argv in runs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wba.GradedAlgebra, "generator_reducible", Unknown())
            mp.setattr(wba.GradedWBA, "delta_multiplicative", Unknown())
            assert not wba.path_algebra_presentation(q, 1).generator_reducible
            assert [report_bytes(work, argv) for argv in runs] == born
