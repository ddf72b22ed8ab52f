"""Truncated weak bialgebra presentations, axiom checks, biideals, quotients."""

from fractions import Fraction
from functools import cache
from math import comb
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from faceq import face as fc
from faceq import pathalg as pa
from faceq import quiver as qv
from faceq import uqsgd as uq
from faceq import wba
from faceq.errors import VerificationError
from faceq.linalg import Echelon, Subspace, bump, int_row

from conftest import (break_degree_zero_associativity, check_biideal_oracle,
                      commutator_relations, degree_zero_associativity_keys,
                      face_coaction_relations, full_witness_rows, q_commutator_relations,
                      quantum_plane_relations, quotient_coalgebra_oracle, relation_rows)
from fleet import (FLEET, HOST_DEGREE, arrow_into_loop, doubled_three_cycle, kronecker,
                   linear_three, one_loop, q_bullets, three_cycle, three_loop, two_loop)
from oracle import (FaceElement, bialgebra_d, coproduct_table, counit_splits_scan, direct_sum,
                    double_quiver, face_coproduct, face_counit, face_multiply, face_unit,
                    factors_uniquely, generator_associative, generator_reducible, monomial_label,
                    preprojective_relations, product_path_indices, product_quiver,
                    spanned_from_degree_one, subspace_equal, tabled, unit_splits_scan)
from test_face import codec_variants, named_quivers

ONE = Fraction(1)


def face_coords(q, elem, degree):
    index = {m: i for i, m in enumerate(fc.face_basis(q, degree))}
    return {index[m]: c for m, c in elem.terms.items()}


def face_commutator_biideal(host, q):
    """Biideal generated by the commutators of the degree-1 face monomials."""
    monos = fc.face_basis(q, 1)
    gens = []
    for a in range(len(monos)):
        for b in range(a + 1, len(monos)):
            u = FaceElement(q, {monos[a]: 1})
            v = FaceElement(q, {monos[b]: 1})
            comm = face_multiply(u, v) - face_multiply(v, u)
            if not comm.is_zero():
                gens.append((2, face_coords(q, comm, 2)))
    return wba.BiidealGens(host, gens)


def sandwich_piece(host, q, gens, d):
    """Ideal graded piece by brute force: span of monomial * generator * monomial."""
    rows = []
    for gdeg, g in gens:
        rest = d - gdeg
        if rest < 0:
            continue
        for dl in range(rest + 1):
            for left in fc.face_basis(q, dl):
                for right in fc.face_basis(q, rest - dl):
                    prod = face_multiply(
                        face_multiply(FaceElement(q, {left: 1}), g),
                        FaceElement(q, {right: 1}))
                    if not prod.is_zero():
                        rows.append(face_coords(q, prod, d))
    return Subspace.from_rows(host.dim(d), rows)


def test_from_face_algebra_dims():
    def face(q, d):
        return wba.from_face_algebra(wba.path_algebra_presentation(q, d))

    assert face(one_loop(), 3).dims() == [1, 1, 1, 1]
    assert face(two_loop(), 3).dims() == [1, 4, 16, 64]
    assert face(three_cycle(), 4).dims() == [9, 9, 9, 9, 9]


# paths per degree above which the tests over drawn quivers lower their degree
PRODUCT_QUIVER_PATHS = 16


def lowered_degree(v, degree):
    """degree, lowered while some degree of v has more than PRODUCT_QUIVER_PATHS paths."""
    while degree and max(qv.path_count(v, e) for e in range(degree + 1)) > PRODUCT_QUIVER_PATHS:
        degree -= 1
    return degree


@settings(max_examples=100, deadline=None)
@given(named_quivers(), st.integers(0, 3))
def test_face_algebra_is_the_path_algebra_of_the_product_quiver(q, degree):
    """h(Q) is k(Q ⊠ Q) as a graded algebra, a presentation built without
    kQ's table: face_algebra(kQ) equals path_algebra_presentation(Q ⊠ Q)
    entry for entry, unit included, after the index map x[a;b] -> (a, b),
    on q, its opposite and its double.  The degree, at most 3, is lowered
    while some degree has more than PRODUCT_QUIVER_PATHS paths."""
    for v in codec_variants(q):
        d = lowered_degree(v, degree)
        h = wba.face_algebra(wba.path_algebra_presentation(v, d))
        pq = product_quiver(v)
        kpq = wba.path_algebra_presentation(pq, d)
        index = [product_path_indices(v, pq, e) for e in range(d + 1)]
        assert h.dims() == kpq.dims()
        moved = {(e, index[e][i], f, index[f][j]): {index[e + f][m]: c for m, c in entry.items()}
                 for (e, i, f, j), entry in h.product.items()}
        assert moved == kpq.product
        assert {index[0][i]: c for i, c in h.unit.items()} == kpq.unit


@pytest.mark.parametrize("name", sorted(FLEET))
def test_face_algebra_at_a_top_degree_squares_the_truncated_kq(name):
    """face_algebra of kQ truncated at m is the degree <= m part of
    face_algebra(kq), entry for entry, for every m in kq's window: its
    labels, the products landing at degree m at most, and the unit."""
    q = FLEET[name]()
    full = wba.face_algebra(wba.path_algebra_presentation(q, HOST_DEGREE[name]))
    for m in range(full.max_degree + 1):
        h = wba.face_algebra(wba.path_algebra_presentation(q, m))
        low = {key: entry for key, entry in full.product.items() if key[0] + key[2] <= m}
        assert (h.max_degree, h.labels, h.product, h.unit) == (m, full.labels[:m + 1], low,
                                                               full.unit)


def test_face_algebra_axioms_pass():
    kq = wba.path_algebra_presentation(three_cycle(), 3)
    report = wba.check_axioms(wba.from_face_algebra(kq))
    assert report["passed"]
    assert all(row["status"] == "pass" for row in report["checks"])


def check_coalgebra(w):
    """Coassociativity and counitality of the stored coproduct, per basis element."""
    fails = []
    for d in range(w.max_degree + 1):
        for i in range(w.dim(d)):
            split = w.coproduct_of(d, i)
            lhs = {}
            for (j, k), c in split.items():
                for (m, n), cc in w.coproduct_of(d, j).items():
                    bump(lhs, (m, n, k), c * cc)
            rhs = {}
            for (j, k), c in split.items():
                for (m, n), cc in w.coproduct_of(d, k).items():
                    bump(rhs, (j, m, n), c * cc)
            if lhs != rhs:
                fails.append([w.label_of(d, i), "coassociativity"])
            left_counit = {}
            right_counit = {}
            for (j, k), c in split.items():
                ev = w.counit.get((d, j))
                if ev:
                    bump(left_counit, k, c * ev)
                ev = w.counit.get((d, k))
                if ev:
                    bump(right_counit, j, c * ev)
            if left_counit != {i: 1} or right_counit != {i: 1}:
                fails.append([w.label_of(d, i), "counitality"])
    return fails


def check_unit_identity(w):
    """The unit must be a two-sided identity on every stored degree."""
    fails = []
    for d in range(w.max_degree + 1):
        for i in range(w.dim(d)):
            vec = {i: 1}
            if w.multiply(0, w.unit, d, vec) != vec:
                fails.append([w.label_of(d, i), "left-unit"])
            if w.multiply(d, vec, 0, w.unit) != vec:
                fails.append([w.label_of(d, i), "right-unit"])
    return fails


def check_associativity(w):
    """Associativity on basis triples within the window."""
    fails = []
    for d in range(w.max_degree + 1):
        for e in range(w.max_degree + 1 - d):
            for f in range(w.max_degree + 1 - d - e):
                for i in range(w.dim(d)):
                    u = {i: 1}
                    for j in range(w.dim(e)):
                        uv = w.product_of(d, i, e, j)
                        v = {j: 1}
                        for m in range(w.dim(f)):
                            vw = w.product_of(e, j, f, m)
                            lhs = w.multiply(d + e, uv, f, {m: 1})
                            rhs = w.multiply(d, u, e + f, vw)
                            if lhs != rhs:
                                fails.append([w.label_of(d, i), w.label_of(e, j),
                                              w.label_of(f, m)])
    return fails


def test_coalgebra_and_unit_invariants():
    hosts = [
        wba.from_face_algebra(wba.path_algebra_presentation(three_cycle(), 3)),
        wba.from_face_algebra(wba.path_algebra_presentation(kronecker(), 3)),
        direct_sum(bialgebra_d(2), bialgebra_d(2)),
    ]
    for w in hosts:
        assert check_coalgebra(w) == []
        assert check_unit_identity(w) == []
        assert check_associativity(w) == []


def test_bialgebra_d_tables():
    d = bialgebra_d(3)
    assert d.dims() == [2, 0, 0, 0]
    assert d.eps(0, {0: ONE}) == 1
    assert d.eps(0, {1: ONE}) == 0
    assert d.coproduct_of(0, 1) == {(0, 1): ONE, (1, 0): ONE}
    assert d.coproduct_of(0, 0) == {(0, 0): ONE, (1, 1): ONE}
    assert d.multiply(0, {0: ONE}, 0, {1: ONE}) == {}
    assert wba.check_axioms(d)["passed"]
    assert wba.counital_subalgebra(d, "source").dim == 1
    assert wba.counital_subalgebra(d, "target").dim == 1


def test_direct_sum_of_d_with_itself():
    dd = direct_sum(bialgebra_d(2), bialgebra_d(2))
    assert dd.dims() == [4, 0, 0]
    assert wba.check_axioms(dd)["passed"]
    assert wba.counital_subalgebra(dd, "target").dim == 2
    assert wba.counital_subalgebra(dd, "source").dim == 2


def test_direct_sum_with_zero_summand():
    h = wba.from_face_algebra(wba.path_algebra_presentation(three_cycle(), 2))
    zero = tabled([[], [], []], {}, {}, {}, {})
    total = direct_sum(h, zero)
    assert total.dims() == h.dims()
    assert total.product == h.product
    assert coproduct_table(total) == coproduct_table(h)
    assert total.counit == h.counit
    assert total.unit == h.unit


def test_direct_sum_truncation_mismatch():
    with pytest.raises(ValueError, match="equal truncation degrees"):
        direct_sum(bialgebra_d(2), bialgebra_d(3))


def test_corrupted_counit_fails_axiom_checks():
    w = wba.from_face_algebra(wba.path_algebra_presentation(two_loop(), 2))
    labels = w.labels[1]
    bad = labels.index("x[t1;t2]")
    w.counit[(1, bad)] = ONE
    report = wba.check_axioms(w)
    assert not report["passed"]
    failed = {row["axiom"] for row in report["checks"] if row["status"] == "fail"}
    assert failed & {"counit-product-split-12", "counit-product-split-21"}
    for row in report["checks"]:
        if row["status"] == "fail":
            assert row["witnesses"]


def test_counital_subalgebra_spans_vertex_idempotents():
    for q in (three_cycle(), q_bullets()):
        w = wba.from_face_algebra(wba.path_algebra_presentation(q, 2))
        for side, flavor in (("source", "source"), ("target", "target")):
            space = wba.counital_subalgebra(w, side)
            rows = fc.face_idempotents(q, flavor)
            assert space.dim == len(q.vertices)
            assert subspace_equal(space, Subspace.from_rows(w.dim(0), rows))


def test_commutator_biideal_piece_dims():
    q = two_loop()
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    b = face_commutator_biideal(host, q)
    assert wba.biideal_graded_pieces(b, 2).dim == 6
    assert wba.biideal_graded_pieces(b, 3).dim == 64 - comb(4 + 2, 3)
    assert wba.biideal_graded_pieces(b, 0).dim == 0
    assert wba.biideal_graded_pieces(b, 1).dim == 0


def test_empty_generators_give_zero_pieces():
    host = wba.from_face_algebra(wba.path_algebra_presentation(three_cycle(), 3))
    b = wba.BiidealGens(host, [])
    for d in range(4):
        assert wba.biideal_graded_pieces(b, d).dim == 0
    assert wba.check_biideal(b)["passed"]


def test_biideal_pieces_match_sandwich_oracle():
    q = two_loop()
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    b = face_commutator_biideal(host, q)
    monos = fc.face_basis(q, 1)
    gens = []
    for a in range(len(monos)):
        for c in range(a + 1, len(monos)):
            u = FaceElement(q, {monos[a]: 1})
            v = FaceElement(q, {monos[c]: 1})
            gens.append((2, face_multiply(u, v) - face_multiply(v, u)))
    for d in range(4):
        assert subspace_equal(wba.biideal_graded_pieces(b, d),
                              sandwich_piece(host, q, gens, d))


def test_ideal_pieces_respect_vertices():
    q = three_cycle()
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    g = FaceElement(q, {fc.FaceMonomial(q.arrow_path(0), q.arrow_path(1)): 1})
    b = wba.BiidealGens(host, [(1, face_coords(q, g, 1))])
    for d in range(4):
        assert subspace_equal(wba.biideal_graded_pieces(b, d),
                              sandwich_piece(host, q, [(1, g)], d))


def test_commutator_biideal_passes_check():
    q = two_loop()
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    report = wba.check_biideal(face_commutator_biideal(host, q))
    assert report["passed"]
    names = [row["check"] for row in report["checks"]]
    assert "counit-vanishes" in names
    assert "coproduct-descends" in names


def test_counit_check_fails_on_diagonal_generator():
    q = two_loop()
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 2))
    g = FaceElement(q, {fc.FaceMonomial(q.arrow_path(0), q.arrow_path(0)): 1})
    b = wba.BiidealGens(host, [(1, face_coords(q, g, 1))])
    report = wba.check_biideal(b)
    assert not report["passed"]
    fails = {row["check"] for row in report["checks"] if row["status"] == "fail"}
    assert "counit-vanishes" in fails


def test_coproduct_check_fails_on_idempotent_difference():
    q = two_loop()
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 2))
    g = (FaceElement(q, {fc.FaceMonomial(q.arrow_path(0), q.arrow_path(0)): 1})
         - FaceElement(q, {fc.FaceMonomial(q.arrow_path(1), q.arrow_path(1)): 1}))
    b = wba.BiidealGens(host, [(1, face_coords(q, g, 1))])
    report = wba.check_biideal(b)
    assert not report["passed"]
    fails = {row["check"] for row in report["checks"] if row["status"] == "fail"}
    assert "coproduct-descends" in fails
    with pytest.raises(VerificationError) as err:
        wba.quotient_wba(b)
    assert err.value.report["passed"] is False


def test_biideal_gens_refuse_rows_off_the_host_basis():
    """A generator must be a coordinate row of the host in its degree: an
    index past the basis, as a row built on a larger quiver's basis has, or
    a degree past the truncation is refused."""
    q = two_loop()
    host = wba.path_algebra_presentation(q, 2)
    for gen in [(2, {8: 1}), (2, {-1: 1}), (3, {0: 1}), (-1, {0: 1})]:
        with pytest.raises(ValueError, match="is not a degree-.* coordinate row of the host"):
            wba.BiidealGens(host, [(2, {0: 1}), gen])
    q3 = three_loop()
    t3 = q3.arrow_path(2)
    with pytest.raises(ValueError, match="coordinate row"):
        pa.quadratic_data(q, relation_rows(q3, [{qv.compose_paths(q3, t3, t3): 1}]))
    assert wba.BiidealGens(host, [(2, {3: 1}), (1, {0: 0})]).generators == ((2, {3: 1}),)


def test_quotient_by_zero_biideal_is_host():
    host = wba.from_face_algebra(wba.path_algebra_presentation(three_cycle(), 3))
    quo = wba.quotient_wba(wba.BiidealGens(host, []))
    for field in ("max_degree", "labels", "product", "unit", "counit"):
        assert getattr(quo, field) == getattr(host, field), field
    assert coproduct_table(quo) == coproduct_table(host)


@pytest.mark.parametrize("ideal", [lambda q: quantum_plane_relations(q, Fraction(1, 2)),
                                   commutator_relations], ids=["rational", "integer"])
def test_quotient_coalgebra_tables_match_dense_oracle(ideal):
    q = two_loop()
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    _, b = uq._relation_biideal(host, pa.quadratic_data(q, ideal(q)), "trans")
    quo = wba.quotient_wba(b)
    assert quo.dims() != host.dims()
    assert (coproduct_table(quo), quo.counit) == quotient_coalgebra_oracle(b)


def test_commutator_quotient_dims():
    q = two_loop()
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    quo = wba.quotient_wba(face_commutator_biideal(host, q))
    assert quo.dims() == [comb(4 + l - 1, l) for l in range(4)]
    assert wba.check_axioms(quo)["passed"]


def face_tables(q, max_degree):
    """h(Q) tables rebuilt from the object arithmetic of faceq.face, in
    (d, i, e, j) order: the oracle for wba.from_face_algebra."""
    bases = [fc.face_basis(q, d) for d in range(max_degree + 1)]
    index = [{m: i for i, m in enumerate(b)} for b in bases]
    labels = [[monomial_label(q, m) for m in b] for b in bases]

    def element(m):
        return FaceElement(q, {m: 1})

    product = {}
    for d in range(max_degree + 1):
        for e in range(max_degree + 1 - d):
            for i, m in enumerate(bases[d]):
                for j, n in enumerate(bases[e]):
                    prod = face_multiply(element(m), element(n))
                    if not prod.is_zero():
                        product[(d, i, e, j)] = {index[d + e][k]: c
                                                 for k, c in prod.terms.items()}
    coproduct = {}
    counit = {}
    for d in range(max_degree + 1):
        for i, m in enumerate(bases[d]):
            coproduct[(d, i)] = {(index[d][a], index[d][b]): c for (a, b), c
                                 in face_coproduct(element(m)).terms.items()}
            if face_counit(element(m)):
                counit[(d, i)] = face_counit(element(m))
    unit = {index[0][m]: c for m, c in face_unit(q).terms.items()}
    return labels, product, coproduct, counit, unit


def oracle_window(q, cap=3, max_paths=36):
    """Largest degree <= cap whose path counts stay small enough for the oracle."""
    top = 0
    while top < cap and qv.path_count(q, top + 1) <= max_paths:
        top += 1
    return top


def fleet_variants():
    for name, make in FLEET.items():
        q = make()
        yield name, q
        yield f"{name}-opposite", qv.opposite_quiver(q)
        if not any(a.name.endswith("*") for a in q.arrows):
            yield f"{name}-double", double_quiver(q)


@pytest.mark.parametrize("q", [q for _, q in fleet_variants()],
                         ids=[name for name, _ in fleet_variants()])
def test_from_face_algebra_matches_object_arithmetic(q):
    top = oracle_window(q)
    labels, product, coproduct, counit, unit = face_tables(q, top)
    for deg in range(top + 1):
        w = wba.from_face_algebra(wba.path_algebra_presentation(q, deg))
        assert w.labels == labels[:deg + 1]
        # item lists pin the (d, i, e, j) insertion order as well
        assert list(w.product.items()) == [(k, v) for k, v in product.items()
                                           if k[0] + k[2] <= deg]
        assert list(coproduct_table(w).items()) == [(k, v) for k, v in coproduct.items()
                                                    if k[0] <= deg]
        assert list(w.counit.items()) == [(k, v) for k, v in counit.items() if k[0] <= deg]
        assert w.unit == unit
        # the product-only build is the same tables without the coalgebra
        alg = wba.face_algebra(wba.path_algebra_presentation(q, deg))
        assert type(alg) is wba.GradedAlgebra
        assert alg.labels == w.labels
        assert list(alg.product.items()) == list(w.product.items())
        assert list(alg.unit.items()) == list(w.unit.items())


def pairwise_delta_multiplicative(w):
    """Every basis pair, every coproduct term pair: the reference loop."""
    fails = []
    for d in range(w.max_degree + 1):
        for e in range(w.max_degree + 1 - d):
            f = d + e
            for i in range(w.dim(d)):
                da = w.coproduct_of(d, i)
                for j in range(w.dim(e)):
                    db = w.coproduct_of(e, j)
                    lhs = {}
                    for m, c in w.product_of(d, i, e, j).items():
                        for pair, cc in w.coproduct_of(f, m).items():
                            bump(lhs, pair, c * cc)
                    rhs = {}
                    for (p, qq), c1 in da.items():
                        for (r, s), c2 in db.items():
                            left = w.product.get((d, p, e, r))
                            if not left:
                                continue
                            right = w.product.get((d, qq, e, s))
                            if not right:
                                continue
                            for m, cm in left.items():
                                for n, cn in right.items():
                                    bump(rhs, (m, n), c1 * c2 * cm * cn)
                    if lhs != rhs:
                        fails.append([w.label_of(d, i), w.label_of(e, j)])
    return fails


def pairwise_counit_splits(w):
    """Both counit-split failure lists, every left factor scanned through
    product_of for each right factor: the reference loop."""
    eps = wba._eps_matrices(w)
    by_col = {}
    by_row = {}
    for (d, e), mat in eps.items():
        col = by_col.setdefault((d, e), {})
        row = by_row.setdefault((d, e), {})
        for (i, j), val in mat.items():
            col.setdefault(j, []).append((i, val))
            row.setdefault(i, []).append((j, val))
    fails12 = []
    fails21 = []
    for d in range(w.max_degree + 1):
        for e in range(w.max_degree + 1 - d):
            for f in range(w.max_degree + 1 - d - e):
                e1col = by_col.get((d, e), {})
                e2row = by_row.get((e, f), {})
                e3row = by_row.get((d + e, f), {})
                for b in range(w.dim(e)):
                    lhs = {}
                    for a in range(w.dim(d)):
                        for m, cm in w.product_of(d, a, e, b).items():
                            for c, vc in e3row.get(m, ()):
                                bump(lhs, (a, c), cm * vc)
                    split = w.coproduct_of(e, b)
                    rhs12 = {}
                    rhs21 = {}
                    for (j, k), c0 in split.items():
                        for a, va in e1col.get(j, ()):
                            for c, vc in e2row.get(k, ()):
                                bump(rhs12, (a, c), c0 * va * vc)
                        for a, va in e1col.get(k, ()):
                            for c, vc in e2row.get(j, ()):
                                bump(rhs21, (a, c), c0 * va * vc)
                    if lhs != rhs12:
                        a, c = wba._first_mismatch(lhs, rhs12)
                        fails12.append([w.label_of(d, a), w.label_of(e, b), w.label_of(f, c)])
                    if lhs != rhs21:
                        a, c = wba._first_mismatch(lhs, rhs21)
                        fails21.append([w.label_of(d, a), w.label_of(e, b), w.label_of(f, c)])
    return fails12, fails21


def counital_image(w, side, d, u, split):
    """Source or target counital map of a degree-d coordinate dict, by
    multiplying against each leg of split = w.delta_one(): the reference."""
    out = {}
    for (i, j), c in split.items():
        if side == "source":
            val = w.eps(d, w.multiply(d, u, 0, {j: ONE}))
            if val:
                bump(out, i, c * val)
        else:
            val = w.eps(d, w.multiply(0, {i: ONE}, d, u))
            if val:
                bump(out, j, c * val)
    return out


def counital_reference(w, side):
    split = w.delta_one()
    ech = Echelon(w.dim(0))
    for d in range(w.max_degree + 1):
        for v in range(w.dim(d)):
            vec = counital_image(w, side, d, {v: ONE}, split)
            if vec:
                ech.add(vec)
    return ech.finalize()


@cache
def quantum_plane_quotient():
    """The trans UQSGd quotient of the two-loop quantum plane at degree 3,
    whose products and coproducts are multi-term."""
    q = two_loop()
    return uq.build_uqsgd(q, quantum_plane_relations(q), "trans", 3).quotient


def copied(w, coproduct=None):
    """A copy of w with its own product, counit and derived tables, whose
    coproduct reads the table coproduct, coproduct_table(w) if none is given
    (see tabled): a test that corrupts the copy's coproduct keeps the table."""
    if coproduct is None:
        coproduct = coproduct_table(w)
    return tabled(w.labels, dict(w.product), w.unit, coproduct, dict(w.counit))


SMALL_PRESENTATIONS = [
    lambda: wba.from_face_algebra(wba.path_algebra_presentation(one_loop(), 3)),
    lambda: wba.from_face_algebra(wba.path_algebra_presentation(two_loop(), 2)),
    lambda: wba.from_face_algebra(wba.path_algebra_presentation(two_loop(), 3)),
    lambda: wba.from_face_algebra(wba.path_algebra_presentation(q_bullets(), 1)),
    lambda: wba.from_face_algebra(wba.path_algebra_presentation(kronecker(), 2)),
    lambda: wba.from_face_algebra(wba.path_algebra_presentation(three_cycle(), 2)),
    lambda: direct_sum(bialgebra_d(1), bialgebra_d(1)),
    lambda: copied(quantum_plane_quotient()),
]

# presentations with a product (z g) x = z (g x) can be broken on for a z of degree 0 alone
DEGREE_ZERO_PRESENTATIONS = [
    lambda: wba.from_face_algebra(wba.path_algebra_presentation(linear_three(), 2)),
    lambda: wba.from_face_algebra(wba.path_algebra_presentation(arrow_into_loop(), 3)),
]

SCALARS = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=4))


def _set_entry(table, key, sub, value):
    entry = dict(table.get(key, {}))
    if value:
        entry[sub] = value
    else:
        entry.pop(sub, None)
    if entry:
        table[key] = entry
    else:
        table.pop(key, None)


@st.composite
def corrupted_presentations(draw):
    """A copy of a small presentation (h(Q) keeps no coproduct table to
    corrupt) with one to four corruptions: a product or coproduct entry
    overwritten, or (z g) x = z (g x) broken for a z of degree 0 alone (see
    break_degree_zero_associativity).  When the first is of the last kind,
    the presentation is one where it can break."""
    kinds = draw(st.lists(st.sampled_from(("product", "coproduct", "degree-0 associativity")),
                          min_size=1, max_size=4))
    source = draw(st.sampled_from(DEGREE_ZERO_PRESENTATIONS
                                  if kinds[0] == "degree-0 associativity"
                                  else SMALL_PRESENTATIONS))()
    coproduct = coproduct_table(source)
    w = copied(source, coproduct)
    top = w.max_degree
    for kind in kinds:
        d = draw(st.integers(0, top))
        if kind == "degree-0 associativity":
            break_degree_zero_associativity(draw, w)
        elif kind == "product":
            e = draw(st.integers(0, top - d))
            if not (w.dim(d) and w.dim(e) and w.dim(d + e)):
                continue
            i = draw(st.integers(0, w.dim(d) - 1))
            j = draw(st.integers(0, w.dim(e) - 1))
            m = draw(st.integers(0, w.dim(d + e) - 1))
            _set_entry(w.product, (d, i, e, j), m, draw(SCALARS))
        else:
            if not w.dim(d):
                continue
            i, j, k = (draw(st.integers(0, w.dim(d) - 1)) for _ in range(3))
            _set_entry(coproduct, (d, i), (j, k), draw(SCALARS))
    return w


@settings(max_examples=80, deadline=None)
@given(corrupted_presentations())
def test_sparse_checks_match_pairwise_oracles(w):
    assert (wba.multiplicative_failures(w, w.coproduct_of, w, w)
            == pairwise_delta_multiplicative(w))
    assert wba._failures_counit_splits(w) == pairwise_counit_splits(w)
    for side in ("source", "target"):
        assert wba.counital_subalgebra(w, side) == counital_reference(w, side)


def test_checks_match_oracles_on_fleet_hosts():
    for make in FLEET.values():
        w = wba.from_face_algebra(wba.path_algebra_presentation(make(), 2))
        assert (wba.multiplicative_failures(w, w.coproduct_of, w, w)
                == pairwise_delta_multiplicative(w) == [])
        assert wba._failures_counit_splits(w) == pairwise_counit_splits(w) == ([], [])
        for side in ("source", "target"):
            assert wba.counital_subalgebra(w, side) == counital_reference(w, side)


def counted_reads(monkeypatch, w):
    """The coproduct_of and coproducts_on calls made on w from now on, as
    two lists: (d, i) and (d, first, second, the result)."""
    reads, calls = [], []
    coproduct_of, coproducts_on = w.coproduct_of, w.coproducts_on

    def counted_on(d, first, second):
        out = coproducts_on(d, first, second)
        calls.append((d, set(first), set(second), out))
        return out

    monkeypatch.setattr(w, "coproduct_of", lambda d, i: reads.append((d, i)) or coproduct_of(d, i))
    monkeypatch.setattr(w, "coproducts_on", counted_on)
    return reads, calls


def test_counit_splits_visit_only_degrees_with_basis_elements(monkeypatch):
    """On an arrowless quiver only degree 0 has basis elements, so the
    counit splits ask for the kept coproduct terms of degree 0 alone, once
    per split, and call coproduct_of on none; a loop over every degree
    triple up to 200 read the 4 coproducts of degree 0 81,204 times."""
    w = wba.from_face_algebra(wba.path_algebra_presentation(q_bullets(), 200))
    reads, calls = counted_reads(monkeypatch, w)
    assert wba._failures_counit_splits(w) == ([], [])
    assert reads == [] and [d for d, *_ in calls] == [0, 0]


@cache
def split_hosts():
    """Fleet h(Q) hosts at degree 2 and the UQSGd quotient of the two-loop
    commutator at degree 2, whose tables corrupted_split_hosts copies."""
    hosts = [wba.from_face_algebra(wba.path_algebra_presentation(make(), 2))
             for make in FLEET.values()]
    q = two_loop()
    hosts.append(uq.build_uqsgd(q, commutator_relations(q), "trans", 2).quotient)
    return hosts


@st.composite
def corrupted_split_hosts(draw):
    """A copy of a split host with a few counit, coproduct or product entries
    overwritten; the copy builds its own derived tables."""
    source = draw(st.sampled_from(split_hosts()))
    coproduct = coproduct_table(source)
    w = copied(source, coproduct)
    top = w.max_degree
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(0, top))
        if not w.dim(d):
            continue
        i = draw(st.integers(0, w.dim(d) - 1))
        table = draw(st.sampled_from(["counit", "coproduct", "product"]))
        if table == "counit":
            value = draw(SCALARS)
            if value:
                w.counit[(d, i)] = value
            else:
                w.counit.pop((d, i), None)
        elif table == "coproduct":
            j, k = (draw(st.integers(0, w.dim(d) - 1)) for _ in range(2))
            _set_entry(coproduct, (d, i), (j, k), draw(SCALARS))
        else:
            e = draw(st.integers(0, top - d))
            if not (w.dim(e) and w.dim(d + e)):
                continue
            j = draw(st.integers(0, w.dim(e) - 1))
            m = draw(st.integers(0, w.dim(d + e) - 1))
            _set_entry(w.product, (d, i, e, j), m, draw(SCALARS))
    return w


@settings(max_examples=120, deadline=None)
@given(corrupted_split_hosts())
def test_split_joins_match_the_scans(w):
    """Both witness lists of the counit-split and unit-split joins, order
    included, are those of the scans they replaced."""
    assert wba._failures_counit_splits(w) == counit_splits_scan(w)
    assert wba._failures_unit_splits(w) == unit_splits_scan(w)


def test_counit_splits_read_only_the_kept_coproduct_terms(monkeypatch):
    """On the doubled three-cycle at degree 3 the counit splits never call
    coproduct_of: per degree they call coproducts_on twice, once per split,
    on the diagonal x[m;m], the only legs an eps table of h(Q) reads, and
    each split gets back the 3 + 6 + 12 + 24 = 45 terms x[m;m] (x) x[m;m].  A pass
    over every Delta(u_b) read 765 coproducts, 15,795 terms, and a pass per
    degree triple and right factor 1,314 coproducts."""
    w = wba.from_face_algebra(wba.path_algebra_presentation(doubled_three_cycle(), 3))
    reads, calls = counted_reads(monkeypatch, w)
    assert wba._failures_counit_splits(w) == ([], [])
    assert reads == []
    assert [d for d, *_ in calls] == [0, 0, 1, 1, 2, 2, 3, 3]
    for d, first, second, out in calls:
        n = qv.path_count(doubled_three_cycle(), d)
        diagonal = {m * n + m for m in range(n)}
        assert first == second == diagonal
        assert out == {i: {(i, i): 1} for i in sorted(diagonal)}
    assert sum(len(terms) for *_, out in calls[::2] for terms in out.values()) == 45


def test_product_corrupted_at_left_degree_two_takes_the_full_path():
    """Scaling one product entry with a left factor of degree 2 breaks
    associativity on generator triples, so the premise fails and every
    degree pair is visited: the failures are the pairwise oracle's.  On a
    copy of h(Q) with its own tables, as a presentation never changes once
    built: h(Q) is generator_reducible from construction, and a copy
    knows no fact."""
    w = copied(wba.from_face_algebra(wba.path_algebra_presentation(two_loop(), 3)))
    i = w.labels[2].index("x[t1.t2;t1.t2]")
    j = w.labels[1].index("x[t1;t1]")
    ((m, c),) = w.product[(2, i, 1, j)].items()
    w.product[(2, i, 1, j)] = {m: 2 * c}
    assert not w.generator_reducible and not generator_reducible(w)
    fails = wba.multiplicative_failures(w, w.coproduct_of, w, w)
    assert fails == pairwise_delta_multiplicative(w)
    assert len(fails) == 15


def test_unspanned_degree_two_takes_the_full_path():
    """Degree 2 holds aa = a a and b, which no product of degree-1 elements
    reaches, and b 1 = 2b is the one product that breaks Delta.  Every
    pair with a left factor of degree 0 or 1 holds and so does
    associativity on generator triples, but the span premise fails, so the
    failure at the degree-2 left factor b is still reported."""
    labels = [["1"], ["a"], ["aa", "b"]]
    product = {(0, 0, 0, 0): {0: ONE}, (0, 0, 1, 0): {0: ONE}, (1, 0, 0, 0): {0: ONE},
               (0, 0, 2, 0): {0: ONE}, (0, 0, 2, 1): {1: ONE}, (2, 0, 0, 0): {0: ONE},
               (2, 1, 0, 0): {1: 2 * ONE}, (1, 0, 1, 0): {0: ONE}}
    coproduct = {(0, 0): {(0, 0): ONE}, (1, 0): {(0, 0): ONE},
                 (2, 0): {(0, 0): ONE}, (2, 1): {(1, 1): ONE}}
    counit = {(d, i): ONE for d, row in enumerate(labels) for i in range(len(row))}
    w = tabled(labels, product, {0: ONE}, coproduct, counit)
    assert generator_associative(w)
    assert not spanned_from_degree_one(w)
    assert not w.generator_reducible
    assert (wba.multiplicative_failures(w, w.coproduct_of, w, w)
            == pairwise_delta_multiplicative(w) == [["b", "1"]])


def test_degree_zero_left_factor_breaking_associativity_takes_the_full_path():
    """On h(Q) of 1 -> 2 -> 3 at degree 2, x[e:1;e:1] x[a.b;a.b] scaled by 2
    breaks (z g) x = z (g x) at z = x[e:1;e:1], and no identity with a
    left factor of degree 1, as every arrow kills vertex 1 from the left.
    Every generator pair holds, so only the degree-0 premise keeps the
    failure at the pair (0, 2) in the report.  On a copy of h(Q), which is
    generator_reducible from construction, while a copy knows no fact."""
    w = copied(wba.from_face_algebra(wba.path_algebra_presentation(linear_three(), 2)))
    assert degree_zero_associativity_keys(w) == [(0, 0, 2, 0)]
    ((m, c),) = w.product[(0, 0, 2, 0)].items()
    w.product[(0, 0, 2, 0)] = {m: 2 * c}
    assert spanned_from_degree_one(w)
    assert not generator_associative(w)
    assert not w.generator_reducible
    fails = wba.multiplicative_failures(w, w.coproduct_of, w, w)
    assert fails == pairwise_delta_multiplicative(w) == [["x[e:1;e:1]", "x[a.b;a.b]"]]


def test_delta_multiplicative_terms_that_cancel():
    """u0 u0 = 0 while Delta(u0) Delta(u0), with Delta(u0) = u1 (x) u1 - u2 (x) u1
    and u1 u1 = u2 u1 = u1, sums to u1 (x) u1 - u1 (x) u1: no failure."""
    product = {(0, 1, 0, 1): {1: ONE}, (0, 2, 0, 1): {1: ONE}}
    coproduct = {(0, 0): {(1, 1): ONE, (2, 1): -ONE}}
    w = tabled([["u0", "u1", "u2"]], product, {1: ONE}, coproduct, {})
    assert (wba.multiplicative_failures(w, w.coproduct_of, w, w)
            == pairwise_delta_multiplicative(w) == [])


def test_scaled_product_fails_delta_multiplicative():
    """On a copy of h(Q) with its own tables, as a presentation never changes
    once built: h(Q)'s own Delta is proven multiplicative from kQ's table."""
    w = copied(wba.from_face_algebra(wba.path_algebra_presentation(two_loop(), 2)))
    i = w.labels[1].index("x[t1;t2]")
    j = w.labels[1].index("x[t2;t1]")
    ((m, c),) = w.product[(1, i, 1, j)].items()
    w.product[(1, i, 1, j)] = {m: 2 * c}
    report = wba.check_axioms(w)
    assert not report["passed"]
    # the product lands off the diagonal, so only this row can see it
    assert [row["status"] for row in report["checks"]] == ["fail"] + ["pass"] * 4
    assert report["checks"][0] == {
        "axiom": "delta-multiplicative",
        "status": "fail",
        "witnesses": [["x[t1;t1]", "x[t2;t1]"], ["x[t1;t1]", "x[t2;t2]"],
                      ["x[t1;t2]", "x[t1;t1]"]],
    }
    assert len(wba.multiplicative_failures(w, w.coproduct_of, w, w)) == 7


@settings(max_examples=60, deadline=None)
@given(named_quivers(), st.integers(0, 3))
def test_unique_factorization_proves_delta_multiplicative(q, degree):
    """kQ's paths factor uniquely, so h(Q)'s Delta is known to be
    multiplicative from construction, and the full join agrees: on q, its
    opposite and its double, at a degree of at most 3 (lowered as in the
    product-quiver test)."""
    for v in codec_variants(q):
        kq = wba.path_algebra_presentation(v, lowered_degree(v, degree))
        h = wba.from_face_algebra(kq)
        assert factors_uniquely(kq)
        assert h.delta_multiplicative is True
        assert wba.check_axioms(h)["checks"][0] == {
            "axiom": "delta-multiplicative", "status": "pass", "witnesses": []}
        assert (wba.multiplicative_failures(h, h.coproduct_of, h, h)
                == pairwise_delta_multiplicative(h) == [])


@settings(max_examples=40, deadline=None)
@given(named_quivers(), st.integers(0, 3))
def test_born_factors_uniquely_agrees_with_the_oracle(q, degree):
    """kQ's born factors_uniquely is what the oracle's scan of its products
    computes, and h(Q) is born with delta_multiplicative equal to it, on q,
    its opposite and its double, at a degree of at most 3 (lowered as in
    the product-quiver test).  A copy of kQ with its own table knows no
    fact, so its h(Q) is not born delta_multiplicative, though the scan
    holds on it."""
    for v in codec_variants(q):
        kq = wba.path_algebra_presentation(v, lowered_degree(v, degree))
        assert kq.factors_uniquely is factors_uniquely(kq) is True
        assert wba.from_face_algebra(kq).delta_multiplicative is kq.factors_uniquely
        copy = wba.GradedAlgebra(kq.labels, dict(kq.product), kq.unit)
        assert copy.factors_uniquely is False and factors_uniquely(copy)
        assert wba.from_face_algebra(copy).delta_multiplicative is False


def test_commuting_loops_do_not_factor_uniquely():
    """A kQ-like table for k[t1, t2] at degree 2, where t1 t2 and t2 t1 land
    on one basis element: the oracle's scan finds that its products do not
    factor uniquely, the hand-made table knows no fact, h(Q)'s Delta is not
    known, and the join computes every failure, as the pairwise oracle
    lists them.
    Delta(x[t1;t1] x[t2;t2]) has x[t1t2;t1t2] (x) x[t1t2;t1t2] once, the
    product of the coproducts twice."""
    labels = [["1"], ["t1", "t2"], ["t1t1", "t1t2", "t2t2"]]
    product = {(0, 0, 0, 0): {0: 1}}
    for d in (1, 2):
        for i in range(len(labels[d])):
            product[(0, 0, d, i)] = product[(d, i, 0, 0)] = {i: 1}
    for i in range(2):
        for j in range(2):
            product[(1, i, 1, j)] = {i + j: 1}
    kq = wba.GradedAlgebra(labels, product, {0: 1})
    assert not factors_uniquely(kq) and not kq.factors_uniquely
    h = wba.from_face_algebra(kq)
    assert not h.delta_multiplicative
    fails = wba.multiplicative_failures(h, h.coproduct_of, h, h)
    assert fails and fails == pairwise_delta_multiplicative(h)
    assert ["x[t1;t1]", "x[t2;t2]"] in fails
    report = wba.check_axioms(h)
    assert not report["passed"]
    assert report["checks"][0]["witnesses"] == fails[:wba.WITNESSES]


@settings(max_examples=40, deadline=None)
@given(named_quivers(), st.integers(0, 3))
def test_segre_square_is_born_generator_reducible(q, degree):
    """kQ is born generator_reducible, so h(Q), its Segre square, is born
    so: on q, its opposite and its double, at a degree of at most 3
    (lowered as in the product-quiver test).  The oracle test below
    recomputes the premise on copies."""
    for v in codec_variants(q):
        kq = wba.path_algebra_presentation(v, lowered_degree(v, degree))
        h = wba.from_face_algebra(kq)
        assert kq.generator_reducible is True and h.generator_reducible is True


def test_face_algebra_over_a_non_associative_kq_is_not_born_generator_reducible():
    """The two-loop's kQ at degree 3 with the products (t1.t2) t1 and
    (t2.t1) t1 swapped: its paths still factor uniquely, as the oracle's
    scan finds, but (t1 t2) t1 = t2.t1.t1 while t1 (t2 t1) = t1.t2.t1, so
    kQ's associativity premise fails.  A hand-made table knows no fact, so
    h(Q) is born neither generator_reducible, which the oracle finds it is
    not, nor delta_multiplicative, which its Delta join, agreeing with the
    pairwise oracle, finds it is.  A quotient of it, here by the zero
    biideal, knows neither fact either, and its Delta join agrees with the
    pairwise oracle too."""
    kq = wba.path_algebra_presentation(two_loop(), 3)
    product = dict(kq.product)
    i, j = (kq.labels[2].index(p) for p in ("t1.t2", "t2.t1"))
    t1 = kq.labels[1].index("t1")
    product[(2, i, 1, t1)], product[(2, j, 1, t1)] = product[(2, j, 1, t1)], product[(2, i, 1, t1)]
    bad = wba.GradedAlgebra(kq.labels, product, kq.unit)
    assert factors_uniquely(bad) and spanned_from_degree_one(bad)
    assert not generator_associative(bad)
    assert not bad.generator_reducible and not bad.factors_uniquely
    h = wba.from_face_algebra(bad)
    assert h.delta_multiplicative is False
    assert h.generator_reducible is False
    assert (wba.multiplicative_failures(h, h.coproduct_of, h, h)
            == pairwise_delta_multiplicative(h) == [])
    quotient = wba.quotient_wba(wba.BiidealGens(h, []))
    assert quotient.delta_multiplicative is False
    assert quotient.generator_reducible is False
    assert (wba.multiplicative_failures(quotient, quotient.coproduct_of, quotient, quotient)
            == pairwise_delta_multiplicative(quotient) == [])
    assert wba.check_axioms(quotient)["passed"]


@st.composite
def passing_relation_biideals(draw):
    """The coaction-relation biideal in h(Q), on a drawn side, of one or
    two random quadratic relations with int and Fraction coefficients on a
    fleet quiver with paths of length 2, at a degree of 2 or 3 (lowered as
    in the product-quiver test), with its passing report; drawings whose
    biideal fails the check are rejected."""
    q = FLEET[draw(st.sampled_from([n for n in sorted(FLEET) if qv.path_count(FLEET[n](), 2)]))]()
    top = max(2, lowered_degree(q, draw(st.integers(2, 3))))
    n = qv.path_count(q, 2)
    coeffs = st.one_of(st.integers(-3, -1), st.integers(1, 3),
                       st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(bool))
    rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1), coeffs,
                                         min_size=1, max_size=3), min_size=1, max_size=2))
    qd = pa.quadratic_data(q, [(2, row) for row in rows], top)
    side = draw(st.sampled_from(uq.RESULT_SIDES))
    b = uq._relation_biideal(wba.from_face_algebra(qd.ideal.host), qd, side)[1]
    report = wba.check_biideal(b)
    assume(report["passed"])
    return b, report


@st.composite
def passing_relation_quotients(draw):
    """The quotient of h(Q) by a passing_relation_biideals biideal."""
    b, report = draw(passing_relation_biideals())
    return wba.quotient_wba(b, report=report)


def assert_restricted_reads_are_the_filtered_coproducts(w, data):
    """In every degree, coproducts_on(d, first, second) is
    {i: coproduct_of(d, i) filtered to the terms with first leg in first
    and second leg in second}, non-empty entries only: on the two sets the
    counit splits ask for (the u_j of some eps(u_a u_j), the u_k of some
    eps(u_k u_c)) in both orders, on the whole basis, and on two drawn
    subsets."""
    eps = w.eps_products
    for d in range(w.max_degree + 1):
        n = w.dim(d)
        right = {j for (_, e), mat in eps.items() if e == d for _, j in mat}
        left = {i for (e, _), mat in eps.items() if e == d for i, _ in mat}
        drawn = st.sets(st.integers(0, max(n - 1, 0)), max_size=n)
        for first, second in ((right, left), (left, right), (set(range(n)), set(range(n))),
                              (data.draw(drawn), data.draw(drawn))):
            filtered = {}
            for i in range(n):
                terms = {(j, k): c for (j, k), c in w.coproduct_of(d, i).items()
                         if j in first and k in second}
                if terms:
                    filtered[i] = terms
            assert w.coproducts_on(d, first, second) == filtered


@settings(max_examples=40, deadline=None)
@given(named_quivers(), st.integers(0, 3), st.data())
def test_face_algebra_restricted_reads_are_the_filtered_coproducts(q, degree, data):
    """h(Q)'s index arithmetic finds exactly the coproduct terms on the legs
    asked for, on q, its opposite and its double, at a degree of at most 3
    (lowered as in the product-quiver test)."""
    for v in codec_variants(q):
        kq = wba.path_algebra_presentation(v, lowered_degree(v, degree))
        assert_restricted_reads_are_the_filtered_coproducts(wba.from_face_algebra(kq), data)


@settings(max_examples=30, deadline=None)
@given(passing_relation_biideals(), st.data())
def test_quotient_restricted_reads_are_the_filtered_coproducts(case, data):
    """A quotient's restricted projection rows give exactly the projected
    coproduct terms on the legs asked for, on the left, right and trans
    quotients of random relations.  So does the quotient over a tabled
    copy of the host, whose coproducts_on is the generic filter, with up
    to two coproduct entries of the copy overwritten: the restricted read
    is exact whether or not Delta descends."""
    b, report = case
    quotient = wba.quotient_wba(b, report=report)
    assert_restricted_reads_are_the_filtered_coproducts(quotient, data)
    coproduct = coproduct_table(b.host)
    host = copied(b.host, coproduct)
    for _ in range(data.draw(st.integers(0, 2))):
        d = data.draw(st.sampled_from([d for d in range(host.max_degree + 1) if host.dim(d)]))
        i, j, k = (data.draw(st.integers(0, host.dim(d) - 1)) for _ in range(3))
        _set_entry(coproduct, (d, i), (j, k), data.draw(SCALARS))
    copy_quotient = wba.quotient_wba(wba.BiidealGens(host, b.generators), report=report)
    assert_restricted_reads_are_the_filtered_coproducts(copy_quotient, data)


@settings(max_examples=40, deadline=None)
@given(passing_relation_quotients())
def test_quotient_facts_hold_when_recomputed_on_a_copy(quotient):
    """A quotient of h(Q) is born with Delta known to be multiplicative and
    generator_reducible True; on a copy with its own tables, which knows
    neither, the Delta join and the pairwise oracle agree that Delta is
    multiplicative.  The oracle test below recomputes the premise."""
    assert quotient.delta_multiplicative is True
    assert quotient.generator_reducible is True
    c = copied(quotient)
    assert (wba.multiplicative_failures(c, c.coproduct_of, c, c)
            == pairwise_delta_multiplicative(c) == [])


@settings(max_examples=40, deadline=None)
@given(named_quivers(), st.integers(0, 3), st.data())
def test_born_generator_reducible_agrees_with_the_oracle(q, degree, data):
    """kQ's born generator_reducible is what the premise oracle computes
    (spanning, then associativity on generator triples), on q, its
    opposite and its double, at a degree of at most 3 (lowered as in the
    product-quiver test).  The oracle holds on a copy of h(Q) and on a
    copy of a passing quotient too, and each copy knows neither fact."""
    for v in codec_variants(q):
        kq = wba.path_algebra_presentation(v, lowered_degree(v, degree))
        assert kq.generator_reducible is generator_reducible(kq) is True
        c = copied(wba.from_face_algebra(kq))
        assert generator_reducible(c)
        assert c.generator_reducible is False and c.delta_multiplicative is False
    c = copied(data.draw(passing_relation_quotients()))
    assert generator_reducible(c)
    assert c.generator_reducible is False and c.delta_multiplicative is False


def saturated_pieces(b, max_degree):
    """Reference biideal pieces: one-step spanning as in biideal_graded_pieces,
    followed in every degree by two-sided saturation with degree-0 basis
    elements until the rank stabilizes."""
    w = b.host
    pieces = []
    for d in range(max_degree + 1):
        ech = Echelon(w.dim(d))
        for gd, vec in b.generators:
            if gd == d:
                ech.add(vec)
        if d >= 1:
            for row in pieces[d - 1].basis:
                for a in range(w.dim(1)):
                    ech.add(w.multiply(1, {a: 1}, d - 1, row))
                    ech.add(w.multiply(d - 1, row, 1, {a: 1}))
        while True:
            before = ech.rank
            for row in list(ech.pivot_rows.values()):
                for z in range(w.dim(0)):
                    ech.add(w.multiply(0, {z: 1}, d, row))
                    ech.add(w.multiply(d, row, 0, {z: 1}))
            if ech.rank == before:
                break
        pieces.append(ech.finalize())
    return pieces


def assert_pieces_match(b, max_degree):
    for d, expect in enumerate(saturated_pieces(b, max_degree)):
        piece = wba.biideal_graded_pieces(b, d)
        assert piece.pivots == expect.pivots, d
        assert piece.basis == expect.basis, d
        assert ([{c: type(x) for c, x in row.items()} for row in piece.basis]
                 == [{c: type(x) for c, x in row.items()} for row in expect.basis]), d


# Host truncation per fleet quiver for the saturation oracle; the wider
# quivers stop at degree 2, where random generators keep the pieces small.
PIECE_ORACLE_DEGREE = {"three-loop": 2, "doubled-three-cycle": 2}


@st.composite
def random_biideals(draw):
    """Generators in degrees 0-3 with int and Fraction coefficients, one to
    four per biideal, each in a degree where the fleet host is nonzero."""
    name = draw(st.sampled_from(sorted(FLEET)))
    host = wba.from_face_algebra(wba.path_algebra_presentation(FLEET[name](),
                                                               PIECE_ORACLE_DEGREE.get(name, 3)))
    degrees = [d for d in range(host.max_degree + 1) if host.dim(d)]
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.sampled_from(degrees))
        vec = draw(st.dictionaries(st.integers(0, host.dim(d) - 1), SCALARS,
                                   min_size=1, max_size=3))
        gens.append((d, vec))
    return wba.BiidealGens(host, gens)


@settings(max_examples=60, deadline=None)
@given(random_biideals())
def test_biideal_pieces_match_saturate_every_degree(b):
    assert_pieces_match(b, b.host.max_degree)


@settings(max_examples=60, deadline=None)
@given(random_biideals())
def test_quotient_dims_leave_every_piece_finalized(b):
    """quotient_dims(b) covers the host's window from finalized pieces:
    afterwards every degree of the window sits on b as a Subspace, the
    dims are those of a fresh BiidealGens' pieces, and a second call
    eliminates nothing."""
    dims = wba.quotient_dims(b)
    top = b.host.max_degree
    assert sorted(b._pieces) == list(range(top + 1))
    assert all(type(piece) is Subspace for piece in b._pieces.values())
    fresh = wba.BiidealGens(b.host, b.generators)
    assert dims == [b.host.dim(d) - wba.biideal_graded_pieces(fresh, d).dim
                    for d in range(top + 1)]
    again = AssertionError("eliminated again")
    with mock.patch.object(Echelon, "add", side_effect=again), \
            mock.patch.object(Echelon, "add_ints", side_effect=again), \
            mock.patch.object(Echelon, "finalize", side_effect=again):
        assert wba.quotient_dims(b) == dims


def test_report_keeps_the_first_witnesses_and_fails_on_any_failure():
    assert wba.report([]) == {"passed": True, "checks": []}
    assert wba.report([("a", []), ("b", [])]) == {"passed": True, "checks": [
        {"check": "a", "status": "pass", "witnesses": []},
        {"check": "b", "status": "pass", "witnesses": []}]}
    rows = [("a", []), ("b", [[1], [2], [3], [4], [5]])]
    assert wba.report(rows, key="axiom") == {"passed": False, "checks": [
        {"axiom": "a", "status": "pass", "witnesses": []},
        {"axiom": "b", "status": "fail", "witnesses": [[1], [2], [3]]}]}
    with pytest.MonkeyPatch.context() as mp:
        full_witness_rows(mp)
        assert wba.report(rows)["checks"][1] == {
            "check": "b", "status": "fail", "witnesses": [[1], [2], [3], [4], [5]]}
    assert wba.WITNESSES == 3


def assert_biideal_report_matches_oracle(b):
    """Both rows, every witness in order, equal the materializing oracle's."""
    top = b.host.max_degree
    assert wba.check_biideal(b) == check_biideal_oracle(b, top)
    with pytest.MonkeyPatch.context() as mp:
        full_witness_rows(mp)
        assert wba.check_biideal(b) == check_biideal_oracle(b, top)


@settings(max_examples=60, deadline=None)
@given(random_biideals())
def test_streamed_biideal_check_matches_oracle(b):
    assert_biideal_report_matches_oracle(b)


def test_streamed_biideal_check_matches_oracle_on_each_verdict():
    """A biideal that passes, one failing counit-vanishes only and one
    failing coproduct-descends only, on the two-loop.  All of degree 1
    generates everything above degree 0, so nothing is left to descend to,
    while eps(x[t1;t1]) = 1."""
    q = two_loop()
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    loop = lambda i, j: FaceElement(q, {fc.FaceMonomial(q.arrow_path(i), q.arrow_path(j)): 1})
    cases = {
        "pass": face_commutator_biideal(host, q),
        "counit-vanishes": wba.BiidealGens(host, [(1, {i: 1}) for i in range(host.dim(1))]),
        "coproduct-descends": wba.BiidealGens(
            host, [(1, face_coords(q, loop(0, 0) - loop(1, 1), 1))]),
    }
    for failing, b in cases.items():
        report = wba.check_biideal(b)
        assert [row["check"] for row in report["checks"] if row["status"] == "fail"] == \
            ([] if failing == "pass" else [failing])
        assert_biideal_report_matches_oracle(b)


def mixed_relation_biideal(side="trans"):
    """The biideal of the coaction relations of kQ/(t1 t1, t1 t2 - 1/2 t2 t1)
    on the two-loop, in a fresh h(Q) truncated at 3.  Its canonical rows
    include lone pivots, rows with several coset terms, and rows whose
    int_row pivot coefficient is not 1; it passes the check."""
    q = two_loop()
    a, b = q.arrow_path(0), q.arrow_path(1)
    relations = relation_rows(q, [{qv.compose_paths(q, a, a): 1},
                                  {qv.compose_paths(q, a, b): 1,
                                   qv.compose_paths(q, b, a): Fraction(-1, 2)}])
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    return uq._relation_biideal(host, pa.quadratic_data(q, relations), side)[1]


def row_shapes(b):
    """Which row shapes the check meets: a lone pivot, several coset terms,
    an int_row pivot coefficient other than 1."""
    shapes = set()
    for d in range(b.host.max_degree + 1):
        piece = wba.biideal_graded_pieces(b, d)
        for p, row in zip(piece.pivots, piece.basis):
            scaled = int_row(row)
            shapes.add("lone" if len(scaled) == 1 else "multi" if len(scaled) > 2 else "binomial")
            if scaled[p] != 1:
                shapes.add("scaled-pivot")
    return shapes


def on_copied_host(b, coproduct=None):
    """b's generators over copied(b.host, coproduct), a presentation with
    its own tables, which a test may corrupt: a presentation never changes
    once it is built, and h(Q) keeps no coproduct table."""
    return wba.BiidealGens(copied(b.host, coproduct), b.generators)


def test_descent_check_matches_oracle_on_each_verdict():
    """The mixed relation biideal as built, and over a copy of its host
    with the counit of a lone row's pivot set to 1, or with a term
    u_m (x) u_m added to Delta(u_m) for a coset column m of a degree-2 or
    a degree-3 row: each fails only its own row, and every witness equals
    the materializing oracle's.  Every closure product (all of degree 2)
    still descends on the degree-3 corruption, so only the test of every
    piece row, taken because a copy's Delta is not known to be
    multiplicative, finds it.  On the left and transposed sides the passing
    biideal's quotient, over h(Q) and over a copy of its host (where the
    check tests every piece row), with and without a given report, has the
    dense oracle's coalgebra tables, and a repeated check gives an equal
    report; some of its projections have a denominator D > 1, so the
    coproduct's division by D*D is pinned."""
    assert row_shapes(mixed_relation_biideal()) >= {"lone", "multi", "binomial", "scaled-pivot"}

    def lone_pivot(b):
        return next((d, p) for d in range(4)
                    for p, row in zip(wba.biideal_graded_pieces(b, d).pivots,
                                      wba.biideal_graded_pieces(b, d).basis) if len(row) == 1)

    def coset_term(b, d):
        piece = wba.biideal_graded_pieces(b, d)
        return next(m for p, row in zip(piece.pivots, piece.basis) for m in row if m != p)

    counit_case = on_copied_host(mixed_relation_biideal())
    d, p = lone_pivot(counit_case)
    counit_case.host.counit[(d, p)] = 1
    cases = [("pass", mixed_relation_biideal()), ("counit-vanishes", counit_case)]
    for d in (2, 3):
        base = mixed_relation_biideal()
        coproduct = coproduct_table(base.host)
        b = on_copied_host(base, coproduct)
        m = coset_term(b, d)
        _set_entry(coproduct, (d, m), (m, m), coproduct.get((d, m), {}).get((m, m), 0) + 1)
        cases.append(("coproduct-descends", b))
    # b is the degree-3 corruption, which no closure product sees
    assert all(wba._descends(b.host, d, wba.biideal_graded_pieces(b, d), v)
               for d, v in closure_products(b, 3))
    for failing, b in cases:
        report = wba.check_biideal(b)
        assert [row["check"] for row in report["checks"] if row["status"] == "fail"] == \
            ([] if failing == "pass" else [failing])
        assert_biideal_report_matches_oracle(b)

    for side in ("left", "trans"):
        assert any(wba.biideal_graded_pieces(mixed_relation_biideal(side), d).projection.denom > 1
                   for d in range(4))
        for host in (lambda b: b, on_copied_host):
            for given_report in (False, True):
                b = host(mixed_relation_biideal(side))
                report = wba.check_biideal(b)
                quo = wba.quotient_wba(b, report=report if given_report else None)
                assert (coproduct_table(quo), quo.counit) == quotient_coalgebra_oracle(b)
                assert report["passed"] and wba.check_biideal(b) == report


@st.composite
def corrupted_biideals(draw):
    """random_biideals or a relation biideal with lone-pivot rows, with up
    to two coproduct or counit entries overwritten before anything is
    checked, on a copy of its host (see on_copied_host); with none, the
    biideal keeps h(Q) as its host."""
    if draw(st.booleans()):
        b = draw(random_biideals())
    else:
        b = mixed_relation_biideal(draw(st.sampled_from(["left", "right", "trans"])))
    corruptions = draw(st.integers(0, 2))
    if not corruptions:
        return b
    coproduct = coproduct_table(b.host)
    b = on_copied_host(b, coproduct)
    w = b.host
    degrees = [d for d in range(w.max_degree + 1) if w.dim(d)]
    for _ in range(corruptions):
        d = draw(st.sampled_from(degrees))
        i, j, k = (draw(st.integers(0, w.dim(d) - 1)) for _ in range(3))
        if draw(st.booleans()):
            _set_entry(coproduct, (d, i), (j, k), draw(SCALARS))
        else:
            w.counit[(d, i)] = draw(SCALARS)
            if not w.counit[(d, i)]:
                del w.counit[(d, i)]
    return b


@settings(max_examples=60, deadline=None)
@given(corrupted_biideals())
def test_descent_check_matches_oracle_on_corrupted_hosts(b):
    """check_biideal tests the int projection of Delta(row) for zero; the
    oracle projects Delta(row) in Fractions.  When the check passes, the
    quotient's coalgebra tables, divided from the same int projections,
    equal the dense oracle's."""
    assert_biideal_report_matches_oracle(b)
    if wba.check_biideal(b)["passed"]:
        quo = wba.quotient_wba(b)
        assert (coproduct_table(quo), quo.counit) == quotient_coalgebra_oracle(b)


@st.composite
def face_host_biideals(draw, v, top):
    """A biideal of h(Q) for the quiver v, truncated at top lowered while
    some degree has more than PRODUCT_QUIVER_PATHS paths: the
    coaction-relation biideal, on a drawn side, of one or two random
    quadratic relations with int and Fraction coefficients, or one to four
    random generators."""
    top = lowered_degree(v, top)
    if top >= 2 and qv.path_count(v, 2) and draw(st.booleans()):
        coeffs = SCALARS.filter(bool)
        rows = draw(st.lists(st.dictionaries(st.integers(0, qv.path_count(v, 2) - 1), coeffs,
                                             min_size=1, max_size=3), min_size=1, max_size=2))
        qd = pa.quadratic_data(v, [(2, row) for row in rows], top)
        side = draw(st.sampled_from(uq.RESULT_SIDES))
        return uq._relation_biideal(wba.from_face_algebra(qd.ideal.host), qd, side)[1]
    host = wba.from_face_algebra(wba.path_algebra_presentation(v, top))
    degrees = [d for d in range(top + 1) if host.dim(d)]
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.sampled_from(degrees))
        gens.append((d, draw(st.dictionaries(st.integers(0, host.dim(d) - 1), SCALARS,
                                             min_size=1, max_size=3))))
    return wba.BiidealGens(host, gens)


def assert_face_report_matches_a_copied_host(b):
    """check_biideal on h(Q), which keeps no coproduct table, gives the
    report, every witness included, that it gives over a plain-table copy
    of the host."""
    host = b.host
    assert host.delta_multiplicative
    top = host.max_degree
    with pytest.MonkeyPatch.context() as mp:
        full_witness_rows(mp)
        report = wba.check_biideal(b)
        assert not hasattr(host, "coproduct")
        assert report == wba.check_biideal(on_copied_host(b))
    return report


@settings(max_examples=100, deadline=None)
@given(named_quivers(), st.integers(1, 3), st.data())
def test_face_biideal_reports_match_a_copied_host(q, degree, data):
    """On q, its opposite and its double, at a degree of at most 3."""
    for v in codec_variants(q):
        assert_face_report_matches_a_copied_host(data.draw(face_host_biideals(v, degree)))


def test_face_biideal_reports_match_a_copied_host_on_each_verdict():
    """The two-loop biideals that pass, fail counit-vanishes only and fail
    coproduct-descends only, and the mixed relation biideal on each side,
    whose rows have pivot coefficients other than 1."""
    q = two_loop()
    host = lambda: wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    loop = lambda i, j: FaceElement(q, {fc.FaceMonomial(q.arrow_path(i), q.arrow_path(j)): 1})
    cases = {
        "pass": face_commutator_biideal(host(), q),
        "counit-vanishes": wba.BiidealGens(host(), [(1, {i: 1}) for i in range(host().dim(1))]),
        "coproduct-descends": wba.BiidealGens(
            host(), [(1, face_coords(q, loop(0, 0) - loop(1, 1), 1))]),
    }
    for failing, b in cases.items():
        report = assert_face_report_matches_a_copied_host(b)
        assert [row["check"] for row in report["checks"] if row["status"] == "fail"] == \
            ([] if failing == "pass" else [failing])
    for side in uq.RESULT_SIDES:
        b = mixed_relation_biideal(side)
        assert "scaled-pivot" in row_shapes(b)
        assert assert_face_report_matches_a_copied_host(b)["passed"]


def full_path_report(b, top):
    """check_biideal over b's generators in a fresh BiidealGens, with the
    host's Delta taken as not known to be multiplicative: every piece row
    is compared."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(b.host, "delta_multiplicative", False)
        return wba.check_biideal(wba.BiidealGens(b.host, b.generators))


def assert_descent_matches_the_full_path(b):
    """check_biideal on h(Q), known to be multiplicative, gives the full
    path's report and the materializing oracle's, every witness included."""
    assert b.host.delta_multiplicative
    top = b.host.max_degree
    report = wba.check_biideal(b)
    assert report == full_path_report(b, top)
    assert_biideal_report_matches_oracle(b)
    with pytest.MonkeyPatch.context() as mp:
        full_witness_rows(mp)
        assert wba.check_biideal(b) == full_path_report(b, top)
    return report


@st.composite
def low_degree_biideals(draw):
    """One to four generators in degrees 1 and 2 (1 alone on the Kronecker
    quiver), with int and Fraction coefficients, over a fleet h(Q) as built."""
    name = draw(st.sampled_from([n for n in sorted(FLEET) if n != "q-bullets"]))
    host = wba.from_face_algebra(wba.path_algebra_presentation(FLEET[name](),
                                                               PIECE_ORACLE_DEGREE.get(name, 3)))
    degrees = [d for d in (1, 2) if host.dim(d)]
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.sampled_from(degrees))
        gens.append((d, draw(st.dictionaries(st.integers(0, host.dim(d) - 1), SCALARS,
                                             min_size=1, max_size=3))))
    return wba.BiidealGens(host, gens)


@settings(max_examples=60, deadline=None)
@given(low_degree_biideals())
def test_descent_from_closure_products_matches_the_full_path(b):
    assert_descent_matches_the_full_path(b)


def descends_calls(mp):
    """The (degree, element) of each later wba._descends call, in order."""
    calls = []
    descends = wba._descends

    def counted(w, d, piece, v):
        calls.append((d, v))
        return descends(w, d, piece, v)
    mp.setattr(wba, "_descends", counted)
    return calls


def closure_products(b, top):
    """(degree, z g z') over the closure products of b's generators up to top, in order."""
    return [(d, v) for d in range(top + 1) for v in wba._closure_products(b, d)]


def test_descent_on_the_doubled_three_cycle():
    """The preprojective relation biideals of the doubled three-cycle, on
    each side, pass.  The check tests descent on exactly the closure
    products, never on a piece row.  Building the quotient reads no host
    coproduct, and reading the quotient's whole coproduct reads the host's
    coproduct of each coset column once, in order, and of no pivot.  The sum of a side's
    generators, as one generator, has as closure products z g z' (z, z'
    over the nine degree-0 basis elements) its 27 vertex components, none
    equal to it: on the left and right these are the generators again, so
    the pieces are the same and the check passes, while on the
    transposed side the 54 generators give only 45 components, and descent
    fails with the full path's witnesses."""
    dbl, prep = preprojective_relations(three_cycle())
    qd = pa.quadratic_data(dbl, prep, 3)
    for side in uq.RESULT_SIDES:
        b = uq._relation_biideal(wba.from_face_algebra(qd.ideal.host), qd, side)[1]
        with pytest.MonkeyPatch.context() as mp:
            calls = descends_calls(mp)
            report = wba.check_biideal(b)
        assert report["passed"] and calls == closure_products(b, 3)
        with pytest.MonkeyPatch.context() as mp:
            reads = []
            coproduct_of = b.host.coproduct_of
            mp.setattr(b.host, "coproduct_of",
                       lambda d, i: reads.append((d, i)) or coproduct_of(d, i))
            quo = wba.quotient_wba(b, report=report)
            assert reads == []
            table = coproduct_table(quo)
        assert assert_descent_matches_the_full_path(b) == report
        pivots = {(d, p) for d in range(4) for p in wba.biideal_graded_pieces(b, d).pivots}
        assert reads == [(d, m) for d in range(4)
                         for m in wba.biideal_graded_pieces(b, d).projection.cols]
        assert not pivots & set(reads)
        assert (table, quo.counit) == quotient_coalgebra_oracle(b)

        merged = {}
        for _, g in b.generators:
            for i, c in g.items():
                bump(merged, i, c)
        m = wba.BiidealGens(b.host, [(2, merged)])
        components = list(wba._closure_products(m, 2))
        assert len(components) == (45 if side == "trans" else 27)
        assert int_row(merged) not in components
        dims = [wba.biideal_graded_pieces(x, d).dim for x in (m, b) for d in range(4)]
        report = assert_descent_matches_the_full_path(m)
        if side == "trans":
            assert dims == [0, 0, 45, 342, 0, 0, 54, 396]
            assert [row["status"] for row in report["checks"]] == ["pass", "fail"]
        else:
            assert dims[:4] == dims[4:] and report["passed"]


def test_biideal_pieces_match_oracle_on_mixed_degree_generators():
    q = three_cycle()
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    split = FaceElement(q, {fc.FaceMonomial(q.arrow_path(0), q.arrow_path(1)): 1,
                               fc.FaceMonomial(q.arrow_path(1), q.arrow_path(2)): Fraction(-2, 3)})
    idem = FaceElement(q, {fc.FaceMonomial(q.trivial_path(0), q.trivial_path(1)): 3,
                              fc.FaceMonomial(q.trivial_path(2), q.trivial_path(2)): 1})
    b = wba.BiidealGens(host, [(1, face_coords(q, split, 1)), (0, face_coords(q, idem, 0))])
    assert_pieces_match(b, 3)
    assert wba.biideal_graded_pieces(b, 0).dim == 2


@pytest.fixture(scope="module")
def fraction_host():
    """The quotient of the two-loop h(Q) by the quantum plane at -1/2 (the
    relation t1 t2 - 1/2 t2 t1), truncated at 3: a host with Fraction
    products."""
    q = two_loop()
    _, b = uq._relation_biideal(wba.from_face_algebra(wba.path_algebra_presentation(q, 3)),
                                pa.quadratic_data(q, quantum_plane_relations(q, Fraction(1, 2))),
                                "trans")
    return wba.quotient_wba(b)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_biideal_over_a_fraction_host_matches_saturation(fraction_host, data):
    """Products over a host with Fraction constants enter by add, never
    straight by add_ints, and the pieces match the saturation oracle."""
    host = fraction_host
    assert not host.int_products
    degrees = [d for d in range(host.max_degree + 1) if host.dim(d)]
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        d = data.draw(st.sampled_from(degrees))
        gens.append((d, data.draw(st.dictionaries(st.integers(0, host.dim(d) - 1), SCALARS,
                                                  min_size=1, max_size=3))))
    b = wba.BiidealGens(host, gens)
    calls = {"add": 0, "add_ints": 0}

    def counted(name):
        insert = getattr(Echelon, name)

        def run(self, row):
            calls[name] += 1
            return insert(self, row)
        return run

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(Echelon, name, counted(name))
        wba.biideal_graded_pieces(b, host.max_degree)
    assert calls["add_ints"] == calls["add"]
    assert_pieces_match(b, host.max_degree)


def test_int_products_of_the_presentations(fraction_host):
    q = three_cycle()
    kq = wba.path_algebra_presentation(q, 2)
    for host in (wba.from_face_algebra(kq), wba.face_algebra(kq), kq, bialgebra_d(1)):
        assert host.int_products
    assert not fraction_host.int_products


def test_three_loop_commutator_biideal_add_count(monkeypatch):
    """Closure products are taken only in degree 2, the one degree with
    generators.  The Fraction generators are scaled by int_row before they
    are multiplied, so every insertion is an int product of the int host
    and enters by add_ints; on the one-vertex quiver the unit fixes every
    generator, so its one closure product z g z' is the scaled g."""
    q = three_loop()
    qd = pa.quadratic_data(q, commutator_relations(q))
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 3))
    gens = [(2, face_coords(q, g, 2)) for side in ("left", "right")
            for g in face_coaction_relations(qd, side)]
    assert [g for _, g in gens] == [g for side in ("left", "right")
                                    for g in uq.coaction_relations(qd, side)]
    calls = {"add": [], "add_ints": []}
    saturation = []
    multiply = wba.GradedAlgebra.multiply

    def counted(name):
        insert = getattr(Echelon, name)

        def run(self, row):
            calls[name].append(row)
            return insert(self, row)
        return run

    def recorded(self, d, u, e, v):
        out = multiply(self, d, u, e, v)
        if d == 0 or e == 0:
            saturation.append(out == (v if d == 0 else u))
        return out

    for name in calls:
        monkeypatch.setattr(Echelon, name, counted(name))
    monkeypatch.setattr(wba.GradedAlgebra, "multiply", recorded)
    b = wba.BiidealGens(host, gens)
    assert [wba.biideal_graded_pieces(b, d).dim for d in range(4)] == [0, 0, 36, 564]
    # 36 closure products, one per generator, then 36 rows times 9 arrows on
    # both sides; z g and (z g) z' are 72 products equal to their factor
    assert len(gens) == 36
    assert calls["add"] == []
    assert len(calls["add_ints"]) == 36 + 36 * 9 * 2 == 684
    assert calls["add_ints"][:36] == [int_row(g) for _, g in gens]
    assert saturation == [True] * 36 * 2
    monkeypatch.undo()
    assert_pieces_match(wba.BiidealGens(host, gens), 3)


@pytest.mark.parametrize("side", uq.RESULT_SIDES)
@pytest.mark.parametrize("family", ["commutators", "q-commutators"])
def test_uqsgd_biideals_descend_on_closure_products(family, side):
    """build_uqsgd at degree 3 on the three-loop commutators and
    q-commutators (-2, 1/2, -3/4), the CLI's relation biideals, tests
    descent on exactly the closure products of its generators and on no
    piece row: the check's shortcut decides every passing report."""
    q = three_loop()
    relations = (commutator_relations(q) if family == "commutators" else
                 q_commutator_relations(q, [-2, Fraction(1, 2), Fraction(-3, 4)]))
    with pytest.MonkeyPatch.context() as mp:
        calls = descends_calls(mp)
        res = uq.build_uqsgd(q, relations, side, 3)
    assert res.verification["biideal"]["passed"]
    assert calls == closure_products(res.biideal, 3)
