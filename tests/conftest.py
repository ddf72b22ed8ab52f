"""Session fixtures: the quadratic quotients built and reused across the suite."""

from fractions import Fraction

import pytest

from faceq import coaction as co
from faceq import face as fc
from faceq import pathalg as pa
from faceq import quiver as qv
from faceq import uqsgd as uq
from faceq import wba
from faceq.errors import ParseError, UnsupportedShapeError
from faceq.linalg import Subspace, bump, mat_vec

from fleet import FLEET, HOST_DEGREE, doubled_three_cycle, q_bullets, three_cycle, three_loop, two_loop
from oracle import (FaceElement, PathElement, bialgebra_d, direct_sum, element_rows, face_multiply,
                    preprojective_relations, read_relations_oracle)


def relation_rows(q, elems):
    """The relation rows of homogeneous path-keyed dicts, as the oracle's
    path elements write them (Fraction values)."""
    return element_rows([PathElement(q, terms) for terms in elems])


def commutator_relations(q):
    rels = []
    for i in range(len(q.arrows)):
        for j in range(i + 1, len(q.arrows)):
            a, b = q.arrow_path(i), q.arrow_path(j)
            rels.append({qv.compose_paths(q, a, b): 1, qv.compose_paths(q, b, a): -1})
    return relation_rows(q, rels)


def quantum_plane_relations(q, scale=2):
    a, b = q.arrow_path(0), q.arrow_path(1)
    return relation_rows(q, [{qv.compose_paths(q, a, b): 1,
                              qv.compose_paths(q, b, a): Fraction(-scale)}])


def q_commutator_relations(q, scales):
    """Relations t_i t_j + q_ij t_j t_i over the arrow pairs i < j, with
    q_ij read in order from scales."""
    rels = []
    pairs = [(i, j) for i in range(len(q.arrows)) for j in range(i + 1, len(q.arrows))]
    for (i, j), scale in zip(pairs, scales):
        a, b = q.arrow_path(i), q.arrow_path(j)
        rels.append({qv.compose_paths(q, a, b): 1, qv.compose_paths(q, b, a): Fraction(scale)})
    return relation_rows(q, rels)


def assert_reader_matches_oracle(doc, q):
    """pathalg.parse_relations against read_relations_oracle: the same rows
    once repeated relations are dropped in first-seen order, as
    wba.BiidealGens drops them, with ints wherever the value is integral;
    or the same exception type and message.  Returns the rows as read."""
    def outcome(read):
        try:
            return read(doc, q)
        except (ParseError, UnsupportedShapeError) as exc:
            return type(exc), str(exc)

    rows, old = outcome(pa.parse_relations), outcome(read_relations_oracle)
    if isinstance(rows, list):
        for _, row in rows:
            assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                       for c in row.values()), row
        assert [r for k, r in enumerate(rows) if r not in rows[:k]] == old
    else:
        assert rows == old
    return rows


def null_space_oracle(cols, rows):
    """The kernel built from scratch: the rows coerced to Fraction and
    eliminated, then one vector per free column from the echelon rows."""
    sub = Subspace.from_rows(cols, [{c: Fraction(x) for c, x in row.items() if x}
                                    for row in rows])
    pivot_set = set(sub.pivots)
    vectors = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = {free: 1}
        for p, row in zip(sub.pivots, sub.basis):
            coeff = row.get(free)
            if coeff:
                vec[p] = -coeff
        vectors.append(vec)
    return Subspace.from_rows(cols, vectors)


def matrix_failures_oracle(host, algebra, d, mat):
    """Witnesses of Δ(y_jl) = Σ_k y_jk ⊗ y_kl and of ε(y_jl) = δ_jl on one
    degree's coefficient array, computed afresh on every call: the
    reference for the coalgebra rows the coaction checks share."""
    entries = [[(k, ent) for k, ent in enumerate(row) if ent] for row in mat]
    coassoc_fails = []
    counit_fails = []
    for j, row in enumerate(mat):
        rhs = {}
        for k, yjk in entries[j]:
            for l, ykl in entries[k]:
                out = rhs.setdefault(l, {})
                for m, cm in yjk.items():
                    for nn, cn in ykl.items():
                        bump(out, (m, nn), cm * cn)
        for l, yjl in enumerate(row):
            if host.delta(d, yjl) != rhs.get(l, {}):
                coassoc_fails.append([algebra.label_of(d, j), algebra.label_of(d, l)])
            if host.eps(d, yjl) != (1 if j == l else 0):
                counit_fails.append([algebra.label_of(d, j), algebra.label_of(d, l)])
    return coassoc_fails, counit_fails


def quadratic_ideal_oracle(qd, max_degree):
    """The ideal of kQ generated by R's canonical basis, as a wba.BiidealGens
    over kQ truncated at max_degree: how a relation space given as a
    subspace, such as the quadratic dual's, was made an ideal."""
    algebra = wba.path_algebra_presentation(qd.quiver, max_degree)
    return wba.BiidealGens(algebra, [(2, row) for row in qd.relation_space.basis])


def quadratic_dual_oracle(qd, max_degree):
    """(R^!, its ideal) by the former three eliminations: the complement rows
    finalized, finalized again after the move along path reversal, and
    added once more as the generators of quadratic_ideal_oracle; the
    reference for pathalg.quadratic_dual."""
    star = qv.star_indices(qd.quiver, 2)
    moved = [{star[c]: x for c, x in row.items()}
             for row in pa.quadratic_dual_rows(qd.relation_space)]
    qdual = pa.QuadraticData(qv.opposite_quiver(qd.quiver), Subspace.from_rows(len(star), moved),
                             None)
    return qdual.relation_space, quadratic_ideal_oracle(qdual, max_degree)


def is_vertex_bimodule(q, space):
    """Whether a subspace of kQ_2 (path basis) is a kQ_0-bimodule: each basis
    row's part on the paths from u to w lies in it, for all vertices u, w."""
    paths = qv.enumerate_paths(q, 2)
    for row in space.basis:
        blocks = {}
        for c, x in row.items():
            p = paths[c]
            blocks.setdefault((q.path_source(p), q.path_target(p)), {})[c] = x
        if not all(space.contains(block) for block in blocks.values()):
            return False
    return True


def residue_table(piece):
    """Residue of each unit vector e_j modulo a canonical Subspace, in host
    columns, term by term in Fractions: minus row p without its pivot entry
    for a pivot column p, e_j itself otherwise.  The reference for
    linalg.Projection, which holds int rows over one denominator."""
    table = [{j: 1} for j in range(piece.ambient_dim)]
    for p, row in zip(piece.pivots, piece.basis):
        table[p] = {c: -x for c, x in row.items() if c != p}
    return table


def coset_table_oracle(piece):
    """(non-pivot columns, residue_table in coset coordinates)."""
    piv = set(piece.pivots)
    cols = [m for m in range(piece.ambient_dim) if m not in piv]
    pos = {m: i for i, m in enumerate(cols)}
    return cols, [{pos[m]: c for m, c in r.items()} for r in residue_table(piece)]


def check_biideal_oracle(b, max_degree):
    """check_biideal with each piece row's coproduct materialized as
    Delta(row) before it is projected: the reference for the streamed check."""
    w = b.host
    eps_fails = []
    delta_fails = []
    for d in range(max_degree + 1):
        piece = wba.biideal_graded_pieces(b, d)
        if not piece.dim:
            continue
        residues = residue_table(piece)
        for r, row in enumerate(piece.basis):
            if w.eps(d, row):
                eps_fails.append(f"degree {d}, piece row {r}")
            image = {}
            for (j, k), c in w.delta(d, row).items():
                rj = residues[j]
                rk = residues[k]
                if not rj or not rk:
                    continue
                for m, cm in rj.items():
                    crm = c * cm
                    for n, cn in rk.items():
                        bump(image, (m, n), crm * cn)
            if image:
                delta_fails.append(f"degree {d}, piece row {r}")
    rows = [
        wba._row("counit-vanishes", eps_fails, key="check"),
        wba._row("coproduct-descends", delta_fails, key="check"),
    ]
    return {"passed": not (eps_fails or delta_fails), "checks": rows}


def check_descent_oracle(pieces_h, algebra_pieces, sides):
    """uqsgd._check_descent with lambda(row) built term by term, x[p;c] (x) c
    on the left and x[c;p] (x) c on the right, before it is projected: the
    reference for the shared two-leg projection."""
    fails = {side: [] for side in sides}
    for d, piece_a in enumerate(algebra_pieces):
        if not piece_a.dim:
            continue
        n = piece_a.ambient_dim
        res_a = residue_table(piece_a)
        res_h = residue_table(pieces_h[d])
        for r, row in enumerate(piece_a.basis):
            for side in sides:
                image = {}
                for p_idx, cp in row.items():
                    for c_idx in range(n):
                        mono = p_idx * n + c_idx if side == "left" else c_idx * n + p_idx
                        hvec = res_h[mono]
                        avec = res_a[c_idx]
                        if not hvec or not avec:
                            continue
                        for m, cm in hvec.items():
                            for k, ck in avec.items():
                                bump(image, (m, k), cp * cm * ck)
                if image:
                    fails[side].append(f"degree {d}, relation row {r}")
    return fails


def quotient_coalgebra_oracle(b):
    """The quotient's coproduct and counit tables from dense projections:
    Delta(u_m) of every non-pivot m, materialized and pushed through the
    coset residues of both legs; the reference for wba.quotient_wba."""
    w = b.host
    coproduct = {}
    counit = {}
    for d in range(w.max_degree + 1):
        nonpivot, residues = coset_table_oracle(wba.biideal_graded_pieces(b, d))
        for i, m in enumerate(nonpivot):
            entry = {}
            for (j, k), c in w.delta(d, {m: 1}).items():
                for jj, cj in residues[j].items():
                    for kk, ck in residues[k].items():
                        bump(entry, (jj, kk), c * cj * ck)
            if entry:
                coproduct[(d, i)] = entry
            if w.counit_of(d, m):
                counit[(d, i)] = w.counit_of(d, m)
    return coproduct, counit


def quotient_algebra_oracle(b):
    """The quotient's product and unit tables through the coset residues;
    the reference for wba.quotient_wba's algebra half."""
    w = b.host
    tables = [coset_table_oracle(wba.biideal_graded_pieces(b, d)) for d in range(w.max_degree + 1)]
    product = {}
    for d in range(w.max_degree + 1):
        for e in range(w.max_degree + 1 - d):
            for i, mi in enumerate(tables[d][0]):
                for j, mj in enumerate(tables[e][0]):
                    img = mat_vec(tables[d + e][1], w.product_of(d, mi, e, mj))
                    if img:
                        product[(d, i, e, j)] = img
    return product, mat_vec(tables[0][1], w.unit)


def induced_coefficients_oracle(b, algebra, max_degree):
    """The canonical coefficients x[r;c] pushed through the coset residues of
    each degree; the reference for uqsgd._induced_coefficients."""
    out = []
    for d in range(max_degree + 1):
        residues = coset_table_oracle(wba.biideal_graded_pieces(b, d))[1]
        n = algebra.dim(d)
        out.append([[residues[r * n + c] for c in range(n)] for r in range(n)])
    return out


def full_witness_rows(mp):
    """Make wba._row keep every witness, in order, under the MonkeyPatch mp."""
    mp.setattr(wba, "_row", lambda name, failures, key="axiom": {
        key: name, "status": "fail" if failures else "pass", "witnesses": list(failures)})


def face_coaction_relations(qd, side):
    """The coaction relations as face elements, alpha-major over the bases
    of R and of its null space: the reference for uqsgd.coaction_relations."""
    q = qd.quiver
    paths2 = qv.enumerate_paths(q, 2)
    dual = null_space_oracle(qd.ambient_dim, qd.relation_space.basis).basis
    gens = []
    for crow in qd.relation_space.basis:
        for drow in dual:
            elem = FaceElement(q, [
                (fc.FaceMonomial(paths2[ij], paths2[kl]) if side == "left"
                 else fc.FaceMonomial(paths2[kl], paths2[ij]), cij * dkl)
                for ij, cij in crow.items() for kl, dkl in drow.items()])
            if not elem.is_zero():
                gens.append(elem)
    return gens


def loop_face(q, i, j):
    """The degree-1 monomial x[t_i;t_j] of an n-loop quiver, 0-indexed."""
    return FaceElement(q, {fc.FaceMonomial(q.arrow_path(i), q.arrow_path(j)): 1})


def bracket(u, v):
    return face_multiply(u, v) - face_multiply(v, u)


def polynomial_families(q, side):
    """The two displayed commutator families presenting the one-sided
    quotient of the free matrix bialgebra over commutative polynomials."""
    n = len(q.arrows)
    rng = range(n)
    rows = []
    if side == "left":
        for i in rng:
            for j in rng:
                for k in rng:
                    rows.append(bracket(loop_face(q, i, j), loop_face(q, k, j)))
        for i in rng:
            for j in rng:
                for k in rng:
                    for l in rng:
                        if j == l:
                            continue
                        rows.append(bracket(loop_face(q, i, j), loop_face(q, k, l))
                                    - bracket(loop_face(q, k, j), loop_face(q, i, l)))
    else:
        for i in rng:
            for j in rng:
                for k in rng:
                    rows.append(bracket(loop_face(q, i, j), loop_face(q, i, k)))
        for i in rng:
            for j in rng:
                for k in rng:
                    for l in rng:
                        if i == k:
                            continue
                        rows.append(bracket(loop_face(q, i, j), loop_face(q, k, l))
                                    - bracket(loop_face(q, i, l), loop_face(q, k, j)))
    return [r for r in rows if not r.is_zero()]


def preprojective_families(q, side):
    """The three displayed generator families for the one-sided quotients
    attached to a preprojective algebra on the doubled 3-cycle."""
    n = len(q.vertices)

    def p(i):
        return q.arrow_path(i % n)

    def s(i):
        return q.arrow_path(n + (i % n))

    def x(a, b):
        return FaceElement(q, {fc.FaceMonomial(a, b): 1})

    def prod(*factors):
        out = factors[0]
        for f in factors[1:]:
            out = face_multiply(out, f)
        return out

    rows = []
    for k in range(n):
        for i in range(n):
            if side == "left":
                rows.append(prod(x(p(k), p(i)), x(s(k), p(i + 1)))
                            - prod(x(s(k - 1), p(i)), x(p(k - 1), p(i + 1))))
                rows.append(prod(x(p(k), p(i)), x(s(k), s(i)))
                            + prod(x(p(k), s(i - 1)), x(s(k), p(i - 1)))
                            - prod(x(s(k - 1), p(i)), x(p(k - 1), s(i)))
                            - prod(x(s(k - 1), s(i - 1)), x(p(k - 1), p(i - 1))))
                rows.append(prod(x(p(k), s(i)), x(s(k), s(i - 1)))
                            - prod(x(s(k - 1), s(i)), x(p(k - 1), s(i - 1))))
            else:
                rows.append(prod(x(p(i), p(k)), x(p(i + 1), s(k)))
                            - prod(x(p(i), s(k - 1)), x(p(i + 1), p(k - 1))))
                rows.append(prod(x(p(i), p(k)), x(s(i), s(k)))
                            + prod(x(s(i - 1), p(k)), x(p(i - 1), s(k)))
                            - prod(x(p(i), s(k - 1)), x(s(i), p(k - 1)))
                            - prod(x(s(i - 1), s(k - 1)), x(p(i - 1), p(k - 1))))
                rows.append(prod(x(s(i), p(k)), x(s(i - 1), s(k)))
                            - prod(x(s(i), s(k - 1)), x(s(i - 1), p(k - 1))))
    return [r for r in rows if not r.is_zero()]


def face_coords(q, elem, degree):
    index = {m: i for i, m in enumerate(fc.face_basis(q, degree))}
    return {index[m]: c for m, c in elem.terms.items()}


def dd_coaction(side):
    """Two copies of the 2-idempotent bialgebra coacting on the 2-point base."""
    dd = direct_sum(bialgebra_d(0), bialgebra_d(0))
    algebra = wba.path_algebra_presentation(q_bullets(), 0)
    x, y = {0: Fraction(1)}, {1: Fraction(1)}
    mat = [[x, y], [y, x]]
    return dd, co.CoactionSpec(side, algebra, [mat], [])


@pytest.fixture(scope="session")
def built_results():
    """Every nonzero-ideal UQSGd the suite constructs, keyed by instance."""
    results = {}
    q2 = two_loop()
    comm2 = commutator_relations(q2)
    for side in ("left", "right", "trans"):
        results[f"two-loop-commutator-{side}"] = uq.build_uqsgd(q2, comm2, side, 4)
    q3 = three_loop()
    comm3 = commutator_relations(q3)
    results["three-loop-commutator-trans"] = uq.build_uqsgd(q3, comm3, "trans", 3)
    results["three-loop-commutator-left"] = uq.build_uqsgd(q3, comm3, "left", 3)
    results["quantum-plane-trans"] = uq.build_uqsgd(q2, quantum_plane_relations(q2),
                                                    "trans", 4)
    dbl, prep = preprojective_relations(three_cycle())
    for side in ("left", "right"):
        results[f"preprojective-{side}"] = uq.build_uqsgd(dbl, prep, side, 3)
    return results


@pytest.fixture(scope="session")
def duality_biideals():
    """The biideals behind the duality transport checks, rebuilt explicitly
    so the soundness sweep can cover them; (label, biideal, cap) triples."""
    cases = []
    dbl, prep = preprojective_relations(three_cycle())
    instances = [
        ("polynomial", two_loop(), commutator_relations(two_loop()), 4),
        ("quantum-plane", two_loop(), quantum_plane_relations(two_loop()), 4),
        ("preprojective", dbl, prep, 3),
    ]
    for name, q, relations, cap in instances:
        qd = pa.quadratic_data(q, relations)
        qdual = pa.quadratic_dual(qd)
        for label, quiver, data in (("base", q, qd), ("dual", qdual.quiver, qdual)):
            host = wba.from_face_algebra(quiver, cap)
            for side in ("left", "right", "trans"):
                if side == "trans":
                    gens = (face_coaction_relations(data, "left")
                            + face_coaction_relations(data, "right"))
                else:
                    gens = face_coaction_relations(data, side)
                coords = [(2, face_coords(quiver, g, 2)) for g in gens]
                cases.append((f"{name}-{label}-{side}",
                              wba.BiidealGens(host, coords), cap))
    return cases


@pytest.fixture(scope="session")
def trivial_results():
    """Zero-ideal builds per fleet quiver (the trivial-case reproduction)."""
    out = {}
    for name, make in FLEET.items():
        q = make()
        degree = min(3, HOST_DEGREE[name])
        result = uq.build_uqsgd(q, [], "trans", degree)
        out[name] = (q, degree, result)
    return out
