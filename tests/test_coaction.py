"""Coaction verification: comodule algebra axioms, transposedness, base isos."""

from copy import deepcopy
from fractions import Fraction
from functools import cached_property, lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from faceq import coaction as co
from faceq import face as fc
from faceq import pathalg as pa
from faceq import uqsgd as uq
from faceq import wba
from faceq.errors import UnsupportedShapeError
from faceq.linalg import Subspace, bump

from conftest import (break_degree_zero_associativity, commutator_relations, dd_coaction,
                      full_witness_rows, matrix_failures_oracle, quantum_plane_relations)
from fleet import (DEGREE_ZERO_SOURCES, FLEET, doubled_three_cycle, kronecker, q_bullets,
                   three_cycle, three_loop, two_loop)
from oracle import (bialgebra_d, coproduct_table, generator_reducible,
                    search_base_iso_exhaustive, tabled)
from test_wba import _set_entry, copied, on_copied_host

ONE = Fraction(1)


def canonical_pair(q, max_degree):
    kq = wba.path_algebra_presentation(q, max_degree)
    host = wba.from_face_algebra(kq)
    specs = co.canonical_coactions(kq, co.SIDES)
    return host, specs["left"], specs["right"]


def test_canonical_coactions_pass():
    for q, deg in ((three_cycle(), 3), (kronecker(), 3), (q_bullets(), 2)):
        host, lam, rho = canonical_pair(q, deg)
        for spec in (lam, rho):
            report = co.check_comodule_algebra(spec, host)
            assert report["passed"], (q.vertices, spec.side, report)
        assert co.check_transposed(lam, rho)


def test_canonical_coefficients_match_display():
    q = q_bullets()
    host, lam, _ = canonical_pair(q, 0)
    for j in range(2):
        for i in range(2):
            entry = lam.coefficients[0][j][i]
            assert len(entry) == 1
            (idx, c), = entry.items()
            assert c == 1
            assert host.labels[0][idx] == f"x[e:{j + 1};e:{i + 1}]"


def test_canonical_degree_two_entries_are_face_monomials():
    q = two_loop()
    host, lam, rho = canonical_pair(q, 2)
    labels2 = host.labels[2]
    entry = lam.coefficients[2][1][2]
    (idx, c), = entry.items()
    assert c == 1
    assert labels2[idx] == "x[t1.t2;t2.t1]"
    assert rho.coefficients == lam.coefficients


def test_zeroed_coefficient_fails_checks():
    q = three_cycle()
    host, lam, _ = canonical_pair(q, 2)
    broken = [[[dict(e) for e in row] for row in mat] for mat in lam.coefficients]
    broken[1][0][0] = {}
    spec = co.CoactionSpec("left", lam.algebra, broken)
    report = co.check_comodule_algebra(spec, host)
    assert not report["passed"]
    failed = {row["check"] for row in report["checks"] if row["status"] == "fail"}
    assert failed & {"counital", "multiplicative", "coassociative"}
    for row in report["checks"]:
        if row["status"] == "fail":
            assert row["witnesses"]


def test_transposed_rejects_mismatched_pairs():
    q = three_cycle()
    _, lam, rho = canonical_pair(q, 1)
    with pytest.raises(ValueError, match="left, right"):
        co.check_transposed(rho, rho)
    perturbed = [[[dict(e) for e in row] for row in mat] for mat in rho.coefficients]
    perturbed[1][0][0] = {}
    rho2 = co.CoactionSpec("right", rho.algebra, perturbed)
    assert not co.check_transposed(lam, rho2)


def test_verify_base_iso_vertex_idempotents():
    q = three_cycle()
    host, lam, rho = canonical_pair(q, 2)
    target = fc.face_idempotents(q, "target")
    source = fc.face_idempotents(q, "source")
    assert co.verify_base_iso(lam, host, target)["passed"]
    assert co.verify_base_iso(rho, host, source)["passed"]


def test_verify_base_iso_rejects_swapped_candidate():
    """Either side's idempotents with the first two swapped intertwine at no
    vertex; the other rows pass."""
    q = three_cycle()
    host, lam, rho = canonical_pair(q, 1)
    for spec, side in ((lam, "target"), (rho, "source")):
        idems = fc.face_idempotents(q, side)
        swapped = [idems[1], idems[0], idems[2]]
        with pytest.MonkeyPatch.context() as mp:
            full_witness_rows(mp)
            report = co.verify_base_iso(spec, host, swapped)
        assert not report["passed"]
        assert [(row["check"], row["witnesses"]) for row in report["checks"]
                if row["status"] == "fail"] == [("intertwines-coaction",
                                                 [["e:1"], ["e:2"], ["e:3"]])]


def test_search_base_iso_finds_vertex_map():
    q = three_cycle()
    host, lam, rho = canonical_pair(q, 2)
    found, verification = co.search_base_iso(lam, host)
    assert found == fc.face_idempotents(q, "target")
    assert verification == co.verify_base_iso(lam, host, found)
    assert verification["passed"]
    found_right, verification = co.search_base_iso(rho, host)
    assert found_right == fc.face_idempotents(q, "source")
    assert verification == co.verify_base_iso(rho, host, found_right)


def test_search_base_iso_single_vertex():
    q = two_loop()
    host, lam, _ = canonical_pair(q, 1)
    found, verification = co.search_base_iso(lam, host)
    assert found == [dict(host.unit)]
    assert verification["passed"]


def test_dd_comodule_algebra_passes():
    dd, lam = dd_coaction("left")
    _, rho = dd_coaction("right")
    assert co.check_comodule_algebra(lam, dd)["passed"]
    assert co.check_comodule_algebra(rho, dd)["passed"]
    assert co.check_transposed(lam, rho)


def test_dd_has_no_base_iso():
    dd, lam = dd_coaction("left")
    assert wba.counital_subalgebra(dd, "source").dim == 2
    assert co.search_base_iso(lam, dd) is None
    _, rho = dd_coaction("right")
    assert co.search_base_iso(rho, dd) is None


def test_dd_breaks_coefficient_orthogonality():
    """The two-point coaction shares x across the diagonal, so the full
    orthogonality identity cannot hold; this is the obstruction that keeps
    the base search empty."""
    dd, lam = dd_coaction("left")
    report = co.check_structure_lemmas(lam, dd)
    assert not report["passed"]
    failed = {row["check"] for row in report["checks"] if row["status"] == "fail"}
    assert "coefficient-orthogonality" in failed


def test_structure_lemmas_pass_canonical():
    for q, deg in ((three_cycle(), 2), (kronecker(), 2), (two_loop(), 2)):
        host, lam, rho = canonical_pair(q, deg)
        for spec in (lam, rho):
            report = co.check_structure_lemmas(spec, host)
            assert report["passed"], (q.vertices, spec.side, report)
    names = [row["check"] for row in report["checks"]]
    assert "endpoint-absorption" in names
    assert "unit-decomposition" in names
    assert "row-sums-in-target" in names


def test_structure_lemmas_fail_on_scaled_coefficient():
    q = q_bullets()
    host, lam, _ = canonical_pair(q, 0)
    mutated = [[[dict(e) for e in row] for row in lam.coefficients[0]]]
    mutated[0][0][0] = {k: 2 * c for k, c in mutated[0][0][0].items()}
    spec = co.CoactionSpec("left", lam.algebra, mutated)
    report = co.check_structure_lemmas(spec, host)
    assert not report["passed"]
    failed = {row["check"] for row in report["checks"] if row["status"] == "fail"}
    assert "column-orthogonality" in failed


@pytest.mark.parametrize("side, entry, extra, name, witnesses", [
    ("left", (0, 1), 7, "column-orthogonality", [["(0,1)", "(2,1)"], ["(2,1)", "(0,1)"]]),
    ("right", (1, 0), 5, "row-orthogonality", [["(1,0)", "(1,2)"], ["(1,2)", "(1,0)"]]),
])
def test_orthogonality_witnesses_name_the_shared_column_or_row(side, entry, extra, name,
                                                               witnesses):
    """On the three-cycle, the degree-0 entry x[e:1;e:2] of the left
    coaction gains x[e:3;e:2] (index 7), from its shared column, and the
    entry x[e:2;e:1] of the right one gains x[e:2;e:3] (index 5), from its
    shared row: each side's orthogonality row fails on that pair of
    entries, both ways round, as (row,column) labels."""
    q = three_cycle()
    kq = wba.path_algebra_presentation(q, 0)
    host = wba.from_face_algebra(kq)
    spec = co.canonical_coactions(kq, (side,))[side]
    mat = [[dict(e) for e in row] for row in spec.coefficients[0]]
    r, c = entry
    mat[r][c] = {**mat[r][c], extra: 1}
    spec = co.CoactionSpec(side, spec.algebra, [mat])
    with pytest.MonkeyPatch.context() as mp:
        full_witness_rows(mp)
        rows = {row["check"]: row for row in co.check_structure_lemmas(spec, host)["checks"]}
    assert rows[name]["witnesses"] == witnesses


DEGREE0_COMULT = [["e:1", "e:2"], ["e:2", "e:1"], ["e:2", "e:2"], ["e:2", "e:3"], ["e:3", "e:2"]]
DEGREE1_COMULT = [["p1", "p1"], ["p1", "p2"], ["p1", "p3"], ["p2", "p3"], ["p3", "p3"]]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("kind, degree0_counit, degree1_counit", [
    ("zero", [["e:2", "e:2"]], []),
    ("double", [["e:2", "e:2"]], []),
    ("sum", [["e:2", "e:2"]], [["p1", "p3"]]),
])
def test_structure_lemma_matrix_rows_on_corrupted_coefficients(side, kind, degree0_counit,
                                                               degree1_counit):
    """The degree-0 and degree-1 comultiplicative and counit rows, every
    failure in order, after the diagonal entry y0[1][1] and the off-diagonal
    entry y1[0][2] of a canonical coaction on the three-cycle are set to {},
    doubled, or given the extra term x[e:1;e:1] (resp. x[p1;p1])."""
    q = three_cycle()
    kq = wba.path_algebra_presentation(q, 1)
    host = wba.from_face_algebra(kq)
    spec = co.canonical_coactions(kq, (side,))[side]
    mats = [[[dict(e) for e in row] for row in mat] for mat in spec.coefficients]
    for d, j, k in ((0, 1, 1), (1, 0, 2)):
        if kind == "zero":
            mats[d][j][k] = {}
        elif kind == "double":
            mats[d][j][k] = {h: 2 * c for h, c in mats[d][j][k].items()}
        else:
            mats[d][j][k] = {**mats[d][j][k], 0: 1}
    spec = co.CoactionSpec(side, spec.algebra, mats)
    expected = [
        ("degree0-comultiplicative", DEGREE0_COMULT),
        ("degree0-counit", degree0_counit),
        ("degree1-comultiplicative", DEGREE1_COMULT),
        ("degree1-counit", degree1_counit),
    ]

    def matrix_rows():
        return [row for row in co.check_structure_lemmas(spec, host)["checks"]
                if row["check"].startswith("degree")]

    assert matrix_rows() == [{"check": name, "status": "fail" if fails else "pass",
                              "witnesses": fails[:3]} for name, fails in expected]
    with pytest.MonkeyPatch.context() as mp:
        full_witness_rows(mp)
        assert matrix_rows() == [{"check": name, "status": "fail" if fails else "pass",
                                  "witnesses": fails} for name, fails in expected]


@pytest.mark.parametrize("make, witnesses", [
    (kronecker, [["source", "(0,0)"], ["source", "(0,1)"], ["source", "(1,0)"],
                 ["source", "(1,1)"]]),
    (doubled_three_cycle, [["source", "(0,0)"], ["source", "(0,1)"], ["target", "(0,1)"],
                           ["source", "(0,5)"], ["target", "(2,2)"], ["target", "(2,3)"],
                           ["target", "(3,2)"], ["target", "(3,3)"], ["source", "(5,0)"],
                           ["source", "(5,5)"]]),
])
def test_endpoint_absorption_witnesses_follow_the_arrow_endpoints(make, witnesses):
    """The structure lemmas read each arrow's endpoints from kQ's products
    with the vertex idempotents.  A left canonical coaction up to degree 1
    with y0[0][0] doubled and the term x[a;a] of the last arrow a added to
    y1[0][1] fails absorption exactly at the arrow pairs whose endpoints
    meet the corruption.  On the Kronecker quiver every arrow runs from
    vertex 1 to vertex 2, so every source fails, no target does, and
    y1[0][1] stays absorbed.  On the doubled three-cycle p1 and p3* leave
    vertex 1 and p3 and p1* enter it; the term x[p3*;p3*] added to the
    entry of (p1, p2) matches neither p2's source nor p1's target, so that
    pair fails at both ends."""
    q = make()
    kq = wba.path_algebra_presentation(q, 1)
    host = wba.from_face_algebra(kq)
    spec = co.canonical_coactions(kq, ("left",))["left"]
    mats = [[[dict(e) for e in row] for row in mat] for mat in spec.coefficients]
    mats[0][0][0] = {h: 2 * c for h, c in mats[0][0][0].items()}
    n1 = kq.dim(1)
    mats[1][0][1] = {**mats[1][0][1], n1 * n1 - 1: 1}
    spec = co.CoactionSpec("left", kq, mats)
    with pytest.MonkeyPatch.context() as mp:
        full_witness_rows(mp)
        rows = {row["check"]: row for row in co.check_structure_lemmas(spec, host)["checks"]}
    assert rows["endpoint-absorption"] == {"check": "endpoint-absorption", "status": "fail",
                                           "witnesses": witnesses}


def test_search_base_iso_needs_idempotent_basis():
    host = bialgebra_d(0)
    algebra = wba.GradedAlgebra(0, [["u"]], {(0, 0, 0, 0): {0: Fraction(2)}},
                                {0: ONE})
    spec = co.CoactionSpec("left", algebra, [[[{0: ONE}]]])
    with pytest.raises(UnsupportedShapeError, match="orthogonal idempotents"):
        co.search_base_iso(spec, host)


def base_iso_cases(built_results):
    """(name, coaction, host) for every host the suite searches: each fleet
    h(Q) with its canonical pair, each UQSGd quotient with its induced
    coactions, and D + D with its two coactions."""
    for name, make in FLEET.items():
        host, lam, rho = canonical_pair(make(), 1)
        yield name, lam, host
        yield name, rho, host
    for name, res in built_results.items():
        for spec in res.induced_coactions.values():
            yield name, spec, res.quotient
    for side in co.SIDES:
        dd, spec = dd_coaction(side)
        yield "dd", spec, dd


def test_pruned_search_finds_the_exhaustive_candidate(built_results):
    for name, spec, host in base_iso_cases(built_results):
        assert co.search_base_iso(spec, host) == search_base_iso_exhaustive(spec, host), \
            (name, spec.side)


def test_counital_bases_have_disjoint_supports(built_results):
    """The pruned search needs counital basis rows with pairwise disjoint
    supports; every host the suite builds has them, D included."""
    hosts = [host for _, _, host in base_iso_cases(built_results)] + [bialgebra_d(0)]
    for host in hosts:
        for side in ("source", "target"):
            supports = [set(row) for row in wba.counital_subalgebra(host, side).basis]
            assert sum(map(len, supports)) == len(set().union(*supports)), (host.labels, side)


def test_search_base_iso_refuses_overlapping_supports():
    """k^3 with primitive idempotents a, b, c, on the basis (a - c, b, c):
    the counital rows a and b + c are orthogonal idempotents that share the
    basis element c, so the search cannot split intertwining by supports."""
    product = {(0, 0, 0, 0): {0: ONE, 2: 2 * ONE}, (0, 0, 0, 2): {2: -ONE},
               (0, 2, 0, 0): {2: -ONE}, (0, 1, 0, 1): {1: ONE}, (0, 2, 0, 2): {2: ONE}}
    host = tabled(0, [["a-c", "b", "c"]], product, {0: ONE, 1: ONE, 2: 2 * ONE}, {}, {})
    rows = ({0: ONE, 2: ONE}, {1: ONE, 2: ONE})
    host.counital_subalgebras["target"] = Subspace.from_rows(3, rows)
    assert wba.counital_subalgebra(host, "target").basis == rows
    algebra = wba.path_algebra_presentation(q_bullets(), 0)
    spec = co.CoactionSpec("left", algebra, [[[{}, {}], [{}, {}]]])
    with pytest.raises(UnsupportedShapeError, match="disjoint supports"):
        co.search_base_iso(spec, host)


def test_coaction_spec_validates_shapes():
    q = q_bullets()
    algebra = wba.path_algebra_presentation(q, 0)
    with pytest.raises(ValueError, match="not 2x2"):
        co.CoactionSpec("left", algebra, [[[{0: ONE}]]])
    with pytest.raises(ValueError, match="side must be"):
        co.CoactionSpec("middle", algebra, [[[{0: ONE}, {}], [{}, {0: ONE}]]])


def dense_comodule_algebra(c, host):
    """check_comodule_algebra over every basis pair and quadruple: the
    reference loop.

    Verifies coassociativity and counitality per degree, multiplicativity
    over all algebra basis pairs inside the window, and the unit condition
    (membership of the unit's coefficients in the appropriate counital
    subalgebra).
    """
    algebra = c.algebra
    max_degree = min(host.max_degree, algebra.max_degree, c.degrees())
    y = c.coefficients

    coassoc_fails = []
    counit_fails = []
    for d in range(max_degree + 1):
        n = algebra.dim(d)
        for j in range(n):
            for l in range(n):
                lhs = host.delta(d, y[d][j][l])
                rhs = {}
                for k in range(n):
                    for m, cm in y[d][j][k].items():
                        for nn, cn in y[d][k][l].items():
                            bump(rhs, (m, nn), cm * cn)
                if lhs != rhs:
                    coassoc_fails.append([algebra.label_of(d, j), algebra.label_of(d, l)])
                ev = host.eps(d, y[d][j][l])
                if ev != (1 if j == l else 0):
                    counit_fails.append([algebra.label_of(d, j), algebra.label_of(d, l)])

    mult_fails = []
    for d in range(max_degree + 1):
        for e in range(max_degree + 1 - d):
            f = d + e
            for j in range(algebra.dim(d)):
                for l in range(algebra.dim(e)):
                    prod = algebra.product_of(d, j, e, l)
                    lhs = {}
                    for m, cm in prod.items():
                        for k in range(algebra.dim(f)):
                            src = y[f][m][k] if c.side == "left" else y[f][k][m]
                            for h, ch in src.items():
                                bump(lhs, (h, k), cm * ch)
                    rhs = {}
                    for k in range(algebra.dim(d)):
                        for kk in range(algebra.dim(e)):
                            prod_k = algebra.product_of(d, k, e, kk)
                            if not prod_k:
                                continue
                            if c.side == "left":
                                coeff = host.multiply(d, y[d][j][k], e, y[e][l][kk])
                            else:
                                coeff = host.multiply(d, y[d][k][j], e, y[e][kk][l])
                            if not coeff:
                                continue
                            for m, cm in prod_k.items():
                                for h, ch in coeff.items():
                                    bump(rhs, (h, m), cm * ch)
                    if lhs != rhs:
                        mult_fails.append([algebra.label_of(d, j), algebra.label_of(e, l)])

    unit_fails = []
    counital = wba.counital_subalgebra(host, "source" if c.side == "left" else "target")
    n0 = algebra.dim(0)
    for k in range(n0):
        coeff = {}
        for j, cj in algebra.unit.items():
            src = y[0][j][k] if c.side == "left" else y[0][k][j]
            for h, ch in src.items():
                bump(coeff, h, cj * ch)
        if coeff and not counital.contains(coeff):
            unit_fails.append([algebra.label_of(0, k)])

    return wba.report([
        ("coassociative", coassoc_fails),
        ("counital", counit_fails),
        ("multiplicative", mult_fails),
        ("unit-membership", unit_fails),
    ])


# Coaction truncation per fleet quiver for the dense oracle; the wider
# quivers stop at degree 2.
ORACLE_DEGREE = {"three-loop": 2, "doubled-three-cycle": 2}


def overwrite_product(draw, alg):
    """Add one or two terms to one entry of alg's product table, kept or
    cleared first, so the entry may come out with two terms; an entry that
    cancels is removed, as zero products are absent."""
    key = draw(st.sampled_from(sorted(alg.product)))
    entry = dict(alg.product[key]) if draw(st.booleans()) else {}
    for m in draw(st.lists(st.integers(0, alg.dim(key[0] + key[2]) - 1),
                           min_size=1, max_size=2, unique=True)):
        bump(entry, m, draw(st.sampled_from((1, -1, Fraction(1, 2)))))
    if entry:
        alg.product[key] = entry
    else:
        del alg.product[key]


def change_entry(draw, host, coefficients, d):
    """Replace one degree-d coefficient entry by {}, a Fraction multiple or
    a sum of two host basis elements."""
    n = len(coefficients[d])
    j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(("zero", "multiple", "sum")))
    if kind == "zero":
        coefficients[d][j][k] = {}
    elif kind == "multiple":
        scale = draw(st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(bool))
        coefficients[d][j][k] = {h: scale * c for h, c in coefficients[d][j][k].items()}
    else:
        a, b = (draw(st.integers(0, host.dim(d) - 1)) for _ in range(2))
        entry = {}
        bump(entry, a, 1)
        bump(entry, b, 1)
        coefficients[d][j][k] = entry


CORRUPTIONS = ("entries", "coefficient of degree >= 2", "host coproduct of degree >= 2",
               "host counit of degree >= 2", "degree-0 associativity")


def corrupt(draw, host, spec, kind):
    """Copies of host and spec with one of the CORRUPTIONS, by kind:
    - one to three coefficient entries changed (see change_entry), and
      sometimes one host product and one algebra product overwritten (see
      overwrite_product);
    - one coefficient entry of degree >= 2 changed;
    - one host coproduct entry of degree >= 2 set to a drawn scalar;
    - one host counit value of degree >= 2 set to a drawn scalar, which
      neither Delta's nor the coaction's multiplicativity reads;
    - (z g) x = z (g x) broken for a z of degree 0 only, in the host or in
      the algebra (see break_degree_zero_associativity).
    The copies are then given the facts that a constructor sets once it
    has proven them: the host and the algebra the premise
    generator_reducible as the oracle computes it, and half of the host
    copies delta_multiplicative as Delta's join finds it.  So both short
    paths of the comodule check run on corrupted presentations whose
    premises hold, and coassociativity may be computed on degrees 0 and 1
    alone."""
    coproduct = coproduct_table(host)
    host = copied(host, coproduct)
    algebra = wba.GradedAlgebra(spec.algebra.max_degree, spec.algebra.labels,
                                dict(spec.algebra.product), spec.algebra.unit)
    coefficients = [[list(row) for row in mat] for mat in spec.coefficients]
    high = [d for d in range(2, min(spec.degrees(), host.max_degree) + 1) if algebra.dim(d)]
    if kind == "entries":
        for _ in range(draw(st.integers(1, 3))):
            d = draw(st.integers(0, spec.degrees()))
            if algebra.dim(d):
                change_entry(draw, host, coefficients, d)
        for alg in (host, algebra):
            if alg.product and draw(st.booleans()):
                overwrite_product(draw, alg)
    elif kind == "degree-0 associativity":
        break_degree_zero_associativity(draw, draw(st.sampled_from((host, algebra))))
    elif high and kind == "coefficient of degree >= 2":
        change_entry(draw, host, coefficients, draw(st.sampled_from(high)))
    elif high and kind == "host counit of degree >= 2":
        d = draw(st.sampled_from(high))
        i = draw(st.integers(0, host.dim(d) - 1))
        host.counit[(d, i)] = draw(st.sampled_from((0, 2, -1, Fraction(1, 2))))
        if not host.counit[(d, i)]:
            del host.counit[(d, i)]
    elif high and kind == "host coproduct of degree >= 2":
        d = draw(st.sampled_from(high))
        i, j, k = (draw(st.integers(0, host.dim(d) - 1)) for _ in range(3))
        value = draw(st.sampled_from((0, 2, -1, Fraction(1, 2))))
        _set_entry(coproduct, (d, i), (j, k), value)
    for alg in (host, algebra):
        alg.generator_reducible = generator_reducible(alg)
    if draw(st.booleans()):
        host.delta_multiplicative = not wba.multiplicative_failures(
            host, host.coproduct_of, host, host, host.max_degree)
    return host, co.CoactionSpec(spec.side, algebra, coefficients)


@st.composite
def corrupted_canonical_coactions(draw):
    """A corrupted canonical coaction of a fleet quiver, or, for the
    degree-0 associativity corruption, of a quiver where it can break."""
    kind = draw(st.sampled_from(CORRUPTIONS))
    quivers = DEGREE_ZERO_SOURCES if kind == "degree-0 associativity" else FLEET
    name = draw(st.sampled_from(sorted(quivers)))
    host, lam, rho = canonical_pair(quivers[name](), ORACLE_DEGREE.get(name, 3))
    return corrupt(draw, host, draw(st.sampled_from((lam, rho))), kind)


@lru_cache(maxsize=None)
def quantum_plane_result():
    q = two_loop()
    return uq.build_uqsgd(q, quantum_plane_relations(q), "trans", 3)


@st.composite
def corrupted_induced_coactions(draw):
    result = quantum_plane_result()
    spec = result.induced_coactions[draw(st.sampled_from(("left", "right")))]
    # the quotient has one vertex, so degree-0 associativity cannot break there alone
    return corrupt(draw, result.quotient, spec, draw(st.sampled_from(CORRUPTIONS[:-1])))


def assert_reports_match(*args):
    """The report and every failure list, in order, not only the first
    three witnesses, equal the dense oracle's."""
    assert co.check_comodule_algebra(*args) == dense_comodule_algebra(*args)
    with pytest.MonkeyPatch.context() as mp:
        full_witness_rows(mp)
        assert co.check_comodule_algebra(*args) == dense_comodule_algebra(*args)


@settings(max_examples=100, deadline=None)
@given(corrupted_canonical_coactions())
def test_comodule_check_matches_dense_oracle(case):
    host, spec = case
    assert_reports_match(spec, host)


@settings(max_examples=40, deadline=None)
@given(corrupted_induced_coactions())
def test_comodule_check_matches_dense_oracle_on_induced_coactions(case):
    host, spec = case
    assert_reports_match(spec, host)


def test_induced_coactions_match_dense_oracle():
    result = quantum_plane_result()
    host = result.quotient
    for spec in result.induced_coactions.values():
        # the residue coefficients are multi-term, with Fraction values
        assert any(len(ent) > 1 for row in spec.coefficients[2] for ent in row)
        assert co.check_comodule_algebra(spec, host)["passed"]
        assert_reports_match(spec, host)


def test_host_product_corrupted_at_left_degree_two_matches_dense_oracle():
    """Scaling one host product whose left factor has degree 2 breaks the
    host's associativity on generator triples, so both coactions'
    multiplicativity visits every pair and finds the one failure, at a
    left factor of degree 2, as the dense oracle does.  On a copy of h(Q)
    with its own tables, as a presentation never changes once built: h(Q)
    is generator_reducible from construction, and a copy knows no fact."""
    host, lam, rho = canonical_pair(two_loop(), 3)
    host = copied(host)
    i = host.labels[2].index("x[t1.t2;t1.t2]")
    j = host.labels[1].index("x[t1;t1]")
    ((m, c),) = host.product[(2, i, 1, j)].items()
    host.product[(2, i, 1, j)] = {m: 2 * c}
    assert not host.generator_reducible and not generator_reducible(host)
    for spec in (lam, rho):
        with pytest.MonkeyPatch.context() as mp:
            full_witness_rows(mp)
            report = co.check_comodule_algebra(spec, host)
        assert [row["status"] for row in report["checks"]] == ["pass", "pass", "fail", "pass"]
        assert report["checks"][2]["witnesses"] == [["t1.t2", "t1"]]
        assert_reports_match(spec, host)


def coalgebra_reports(spec, host):
    """The comodule report and the structure-lemma report, every witness kept."""
    with pytest.MonkeyPatch.context() as mp:
        full_witness_rows(mp)
        return co.check_comodule_algebra(spec, host), co.check_structure_lemmas(spec, host)


@st.composite
def coalgebra_row_cases(draw):
    """A canonical left coaction, a copy with one entry set to {} or scaled
    (by 1 too, which leaves it equal), and whether the hosts' Delta is
    known to be multiplicative (see face_host)."""
    name = draw(st.sampled_from(sorted(FLEET)))
    q = FLEET[name]()
    degree = ORACLE_DEGREE.get(name, 3)
    lam = co.canonical_coactions(wba.path_algebra_presentation(q, degree), ("left",))["left"]
    d = draw(st.sampled_from([d for d in range(degree + 1) if lam.algebra.dim(d)]))
    n = lam.algebra.dim(d)
    j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    mats = [[[dict(e) for e in row] for row in mat] for mat in lam.coefficients]
    if draw(st.booleans()):
        mats[d][j][k] = {}
    else:
        scale = draw(st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(bool))
        mats[d][j][k] = {h: scale * c for h, c in mats[d][j][k].items()}
    copy = co.CoactionSpec("left", lam.algebra, mats)
    return q, degree, lam, copy, draw(st.booleans())


def face_host(q, degree, delta_known):
    """h(Q), whose Delta is known to be multiplicative from construction,
    or else a plain-table copy of it, whose Delta is not known."""
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, degree))
    assert host.delta_multiplicative
    if not delta_known:
        host = copied(host)
        assert not host.delta_multiplicative
    return host


@settings(max_examples=30, deadline=None)
@given(coalgebra_row_cases())
def test_coalgebra_rows_match_oracle_on_shared_and_fresh_hosts(case):
    """One host checks the canonical coaction and its altered copy: each
    gets the coassociative, counital and degree{0,1} rows that a run on a
    host of its own gives, and that the oracle loop gives, both on h(Q),
    whose Delta is known to be multiplicative, so that coassociativity of a
    multiplicative coaction is computed on degrees 0 and 1 alone, and on a
    copy whose Delta is not known."""
    q, degree, lam, copy, delta_known = case
    host = face_host(q, degree, delta_known)
    shared = [coalgebra_reports(spec, host) for spec in (lam, copy)]
    for spec, (comodule, lemmas) in zip((lam, copy), shared):
        fresh = face_host(q, degree, delta_known)
        assert (comodule, lemmas) == coalgebra_reports(spec, fresh)
        fails = [matrix_failures_oracle(host, spec.algebra, d, spec.coefficients[d])
                 for d in range(degree + 1)]
        assert comodule["checks"][0]["witnesses"] == [w for f in fails for w in f[0]]
        assert comodule["checks"][1]["witnesses"] == [w for f in fails for w in f[1]]
        assert [row["witnesses"] for row in lemmas["checks"][:4]] == \
            [w for f in fails[:2] for w in f]


def test_comodule_checks_leave_the_host_unchanged():
    """The comodule check, the structure lemmas and check_axioms write
    nothing to the presentation they read.  A fresh h(Q) of the doubled
    three-cycle checked with both canonical sides, and a fresh trans
    quotient of the three-loop commutators checked with both induced sides
    before any other check, each then through check_axioms, which computes
    the quotient's Delta on demand, keep every attribute they had, equal
    after the checks; each attribute added names a cached property of the
    host's class, so no memo of Delta appears."""
    h, lam, rho = canonical_pair(doubled_three_cycle(), 3)
    q = three_loop()
    qd = pa.quadratic_data(q, commutator_relations(q), 3)
    _, biideal = uq._relation_biideal(wba.from_face_algebra(qd.ideal.host), qd, "trans")
    quotient = wba.quotient_wba(biideal, report=wba.check_biideal(biideal, 3))
    coefficients = uq._induced_coefficients(biideal, qd.ideal.host, 3)
    induced = [co.CoactionSpec(side, qd.ideal.host, coefficients) for side in co.SIDES]
    for host, specs in ((h, (lam, rho)), (quotient, induced)):
        before = deepcopy(vars(host))
        for spec in specs:
            assert co.check_comodule_algebra(spec, host)["passed"]
            assert co.check_structure_lemmas(spec, host)["passed"]
        assert wba.check_axioms(host)["passed"]
        after = vars(host)
        assert {key: after[key] for key in before} == before
        for key in after.keys() - before.keys():
            assert isinstance(getattr(type(host), key, None), cached_property), key


# (quiver, relations, side) of the UQSGd quotients that are born with their facts
BORN_PROVEN = [(two_loop, quantum_plane_relations, side) for side in uq.RESULT_SIDES] + [
    (three_loop, commutator_relations, "trans")]


def join_sources(mp):
    """The sources of each later _pair_failures call, the one
    multiplicativity join."""
    sources = []
    pair_failures = wba._pair_failures

    def counted_pairs(src, *args):
        sources.append(src)
        return pair_failures(src, *args)
    mp.setattr(wba, "_pair_failures", counted_pairs)
    return sources


@pytest.mark.parametrize("make_quiver, make_relations, side", BORN_PROVEN)
def test_quotient_of_face_algebra_is_born_with_its_facts(make_quiver, make_relations, side):
    """A UQSGd quotient of h(Q) at degree 3 is born with Delta known to be
    multiplicative and generator_reducible True, as plain values, and so
    are h(Q) and kQ: while the quotient is built, and its axioms, comodule
    checks and structure lemmas run, no join runs for its Delta.  Every
    multiplicativity join that runs is an induced coaction's, whose
    source is kQ."""
    q = make_quiver()
    with pytest.MonkeyPatch.context() as mp:
        sources = join_sources(mp)
        result = uq.build_uqsgd(q, make_relations(q), side, 3)
    kq = result.relation_space.ideal.host
    assert result.quotient.delta_multiplicative is True
    assert result.quotient.generator_reducible is True
    assert result.biideal.host.delta_multiplicative is True
    assert result.biideal.host.generator_reducible is True
    assert kq.generator_reducible is True
    assert sources and all(src is kq for src in sources)
    assert result.verification["axioms"]["passed"]


@pytest.mark.parametrize("make_quiver, make_relations, side", BORN_PROVEN)
def test_quotient_over_a_copied_host_runs_the_joins(make_quiver, make_relations, side):
    """The same generators over a plain-table copy of h(Q) (see
    on_copied_host), which knows neither fact, give a quotient with the same
    tables that knows neither: its comodule checks and its check_axioms
    run the Delta join over every degree pair, and every report, every
    witness kept, is the one the proven quotient gives.  No check sets a
    fact: the copy's quotient still knows neither after them."""
    q = make_quiver()
    result = uq.build_uqsgd(q, make_relations(q), side, 3)
    proven = result.quotient
    b = on_copied_host(result.biideal)
    quotient = wba.quotient_wba(b)
    assert quotient.delta_multiplicative is False
    assert quotient.generator_reducible is False
    assert ((quotient.labels, quotient.product, quotient.unit, coproduct_table(quotient),
             quotient.counit) == (proven.labels, proven.product, proven.unit,
                                  coproduct_table(proven), proven.counit))
    with pytest.MonkeyPatch.context() as mp:
        full_witness_rows(mp)
        sources = join_sources(mp)
        for spec in result.induced_coactions.values():
            assert (coalgebra_reports(spec, quotient) == coalgebra_reports(spec, proven)
                    == (result.verification["comodule"][spec.side],
                        result.verification["structureLemmas"][spec.side]))
        axioms = wba.check_axioms(quotient)
        assert axioms == wba.check_axioms(proven) and axioms["passed"]
    assert quotient in sources and proven not in sources
    assert not quotient.delta_multiplicative and not quotient.generator_reducible


def test_coalgebra_rows_drop_terms_that_cancel():
    """The two-loop's degree-1 canonical array conjugated by P = [[1, 1], [0, 1]]:
    y' = P y P^-1 = [[x11 + x21, x12 + x22 - x11 - x21], [x21, x22 - x21]]
    is again a matrix coalgebra, but Σ_k y'_0k ⊗ y'_k0 meets x11 ⊗ x21 with
    coefficients 1 and -1, so it holds only once that key is dropped.  One
    entry scaled by 2 breaks it.  Both arrays get the oracle's witnesses."""
    q = two_loop()
    host = wba.from_face_algebra(wba.path_algebra_presentation(q, 1))
    algebra = wba.path_algebra_presentation(q, 1)
    x11, x12, x21, x22 = range(4)  # x[a;b] has index 2 * i_a + i_b
    conjugated = [[{x11: 1, x21: 1}, {x12: 1, x22: 1, x11: -1, x21: -1}],
                  [{x21: 1}, {x22: 1, x21: -1}]]
    raw = [(m, n) for yjk, ykl in ((conjugated[0][0], conjugated[0][0]),
                                   (conjugated[0][1], conjugated[1][0]))
           for m in yjk for n in ykl]
    assert raw.count((x11, x21)) == 2
    scaled = [row[:] for row in conjugated]
    scaled[1][0] = {x21: 2}
    for mat, passes in ((conjugated, True), (scaled, False)):
        found = co._coalgebra_rows(host, algebra, 1, mat)
        assert found == matrix_failures_oracle(host, algebra, 1, mat)
        assert (found == ([], [])) is passes


def test_checks_visit_only_nonzero_structure_constants(monkeypatch):
    """product_of and multiply calls made by the axiom check and both
    comodule checks on the doubled three-cycle at degree 3.  The loops over
    every basis pair made 83,826 and 16,920, and a unit-split check that
    scanned every pair of the 27 terms of Delta(1) made 2 * 27**2 more; the
    unit-split join reads its middle products from products_by_left, so
    what is left is its 2 * 9 multiplications by the unit."""
    host, lam, rho = canonical_pair(doubled_three_cycle(), 3)
    calls = {"product_of": 0, "multiply": 0}
    for name in calls:
        def counted(*args, _fn=getattr(wba.GradedAlgebra, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(wba.GradedAlgebra, name, counted)
    assert wba.check_axioms(host)["passed"]
    assert co.check_comodule_algebra(lam, host)["passed"]
    assert co.check_comodule_algebra(rho, host)["passed"]
    assert calls == {"product_of": 0, "multiply": 18}
