"""Acceptance suite: one end-to-end check per delivery criterion.

Each test exercises a headline guarantee of the package on the shared quiver
fleet or on the session-built quotients, so `pytest -v` gives a one-line
verdict per criterion.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from faceq import coaction as co
from faceq import face as fc
from faceq import pathalg as pa
from faceq import quiver as qv
from faceq import uqsgd as uq
from faceq import wba
from faceq.errors import UnsupportedShapeError
from faceq.linalg import Subspace

from conftest import (commutator_relations, dd_coaction, face_coords, is_vertex_bimodule,
                      polynomial_families, preprojective_families, quadratic_data_of_space,
                      quantum_plane_relations)
from fleet import FLEET, three_cycle, three_loop, two_loop
from oracle import coproduct_table, double_quiver, preprojective_relations, subspace_equal


@pytest.fixture(scope="session")
def fleet_hosts():
    """Degree-3 face algebra presentations with their canonical coaction pair."""
    out = {}
    for name, make in FLEET.items():
        q = make()
        kq = wba.path_algebra_presentation(q, 3)
        host = wba.from_face_algebra(kq)
        specs = co.canonical_coactions(kq, co.SIDES)
        out[name] = (q, host, specs["left"], specs["right"])
    return out


def test_01_face_algebra_axioms_hold_across_fleet():
    start = time.monotonic()
    for name, make in FLEET.items():
        report = wba.check_axioms(wba.from_face_algebra(wba.path_algebra_presentation(make(), 3)))
        assert report["passed"], (name, report)
        assert [row["axiom"] for row in report["checks"]] == [
            "delta-multiplicative",
            "counit-product-split-12",
            "counit-product-split-21",
            "unit-coproduct-split-12",
            "unit-coproduct-split-21",
        ]
    assert time.monotonic() - start < 60


def test_02_graded_dimension_is_squared_path_count():
    for name, make in FLEET.items():
        q = make()
        for length in range(5):
            enumerated = len(qv.enumerate_paths(q, length))
            assert qv.path_count(q, length) == enumerated, (name, length)
            assert len(fc.face_basis(q, length)) == enumerated ** 2, (name, length)


def test_03_counital_subalgebras_are_vertex_idempotent_spans(fleet_hosts):
    for name, (q, host, _, _) in fleet_hosts.items():
        n = len(q.vertices)
        for side in ("source", "target"):
            sub = wba.counital_subalgebra(host, side)
            assert sub.dim == n, (name, side)
            rows = fc.face_idempotents(q, side)
            assert subspace_equal(sub, Subspace.from_rows(host.dim(0), rows)), \
                (name, side)


def test_04_canonical_coactions_verify_with_idempotent_base_isos(fleet_hosts):
    for name, (q, host, lam, rho) in fleet_hosts.items():
        assert co.check_comodule_algebra(lam, host)["passed"], name
        assert co.check_comodule_algebra(rho, host)["passed"], name
        assert co.check_transposed(lam, rho), name
        to_target = fc.face_idempotents(q, "target")
        to_source = fc.face_idempotents(q, "source")
        assert co.verify_base_iso(lam, host, to_target)["passed"], name
        assert co.verify_base_iso(rho, host, to_source)["passed"], name


def test_05_structure_lemmas_hold_for_canonical_and_induced_coactions(
        fleet_hosts, built_results, trivial_results):
    for name, (q, host, lam, rho) in fleet_hosts.items():
        for spec in (lam, rho):
            assert co.check_structure_lemmas(spec, host)["passed"], (name, spec.side)
    for name, res in built_results.items():
        for side, spec in res.induced_coactions.items():
            report = co.check_structure_lemmas(spec, res.quotient)
            assert report["passed"], (name, side, report)
    for name, (_, _, res) in trivial_results.items():
        for side, spec in res.induced_coactions.items():
            assert co.check_structure_lemmas(spec, res.quotient)["passed"], (name, side)


def test_06_zero_ideal_build_reproduces_face_algebra(trivial_results):
    for name, (q, degree, res) in trivial_results.items():
        assert len(res.biideal.generators) == 0, name
        host = wba.from_face_algebra(wba.path_algebra_presentation(q, degree))
        for field in ("max_degree", "labels", "product", "unit", "counit"):
            assert getattr(res.quotient, field) == getattr(host, field), (name, field)
        assert coproduct_table(res.quotient) == coproduct_table(host), name


def test_07_commutative_polynomial_quotients_match_matrix_coordinates(built_results):
    for n, key in ((2, "two-loop-commutator-trans"), (3, "three-loop-commutator-trans")):
        dims = built_results[key].quotient_dims
        assert dims[:4] == [comb(n * n + l - 1, l) for l in range(4)], key
    for key, make in (("two-loop-commutator-left", two_loop),
                      ("three-loop-commutator-left", three_loop)):
        res = built_results[key]
        q = make()
        piece = wba.biideal_graded_pieces(res.biideal, 2)
        rows = [face_coords(q, g, 2) for g in polynomial_families(q, "left")]
        assert subspace_equal(piece, Subspace.from_rows(res.biideal.host.dim(2),
                                                        rows)), key


def test_08_quadratic_dual_gives_exterior_algebra_and_is_involutive():
    dual = pa.quadratic_dual(pa.quadratic_data(two_loop(), commutator_relations(two_loop()), 3))
    assert wba.quotient_dims(dual.ideal) == [1, 2, 1, 0]

    rng = random.Random(917)
    quivers = [two_loop, three_loop, three_cycle,
               lambda: double_quiver(three_cycle())]
    refused = 0
    for _ in range(20):
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
        if not is_vertex_bimodule(q, space):
            refused += 1
            with pytest.raises(UnsupportedShapeError):
                pa.quadratic_dual(quadratic_data_of_space(q, space))
            continue
        first = pa.quadratic_dual(quadratic_data_of_space(q, space))
        assert space.dim + first.relation_space.dim == ambient
        double = pa.quadratic_dual(first)
        assert subspace_equal(double.relation_space, space)
    assert 0 < refused < 20


def test_09_duality_transport_checks_pass():
    dbl, prep = preprojective_relations(three_cycle())
    instances = [
        ("polynomial", two_loop(), commutator_relations(two_loop()), 3),
        ("quantum-plane", two_loop(), quantum_plane_relations(two_loop()), 3),
        ("preprojective", dbl, prep, 2),
    ]
    for name, q, relations, degree in instances:
        qd = pa.quadratic_data(q, relations, degree)
        report = uq.check_quadratic_dualities(qd, pa.quadratic_dual(qd))
        assert report["passed"], (name, report)
        assert {row["check"]: row["status"] for row in report["checks"]} == {
            "a-star-left-onto-dual-right": "pass",
            "b-star-right-onto-dual-left": "pass",
            "c-swap-left-onto-right": "pass",
            "d-star-trans-onto-dual-trans": "pass",
        }, name


def test_10_preprojective_biideal_matches_displayed_families(built_results):
    dbl, _ = preprojective_relations(three_cycle())
    for side in ("left", "right"):
        res = built_results[f"preprojective-{side}"]
        fam = preprojective_families(dbl, side)
        assert len(fam) == 27, side
        piece = wba.biideal_graded_pieces(res.biideal, 2)
        rows = [face_coords(dbl, g, 2) for g in fam]
        assert subspace_equal(piece, Subspace.from_rows(res.biideal.host.dim(2),
                                                        rows)), side


def test_11_two_point_coaction_admits_no_base_iso():
    dd, lam = dd_coaction("left")
    _, rho = dd_coaction("right")
    assert co.check_comodule_algebra(lam, dd)["passed"]
    assert co.check_comodule_algebra(rho, dd)["passed"]
    assert wba.counital_subalgebra(dd, "source").dim == 2
    assert wba.counital_subalgebra(dd, "target").dim == 2
    assert co.search_base_iso(lam, dd) is None
    assert co.search_base_iso(rho, dd) is None


def test_12_every_biideal_in_suite_is_sound(built_results, trivial_results,
                                            duality_biideals):
    registry = [(name, res.biideal) for name, res in built_results.items()]
    registry += [(f"trivial-{name}", res.biideal)
                 for name, (_, _, res) in trivial_results.items()]
    registry += [(name, b) for name, b, _ in duality_biideals]
    assert len(registry) == (len(built_results) + len(trivial_results)
                             + len(duality_biideals))
    for name, b in registry:
        report = wba.check_biideal(b)
        assert report["passed"], (name, report)
        quotient = wba.quotient_wba(b, report=report)
        assert wba.check_axioms(quotient)["passed"], name
