"""Universal quantum linear semigroupoids of quadratic path-algebra quotients.

The pipeline: turn a quadratic relation space into degree-2 biideal
generators of the face algebra (one per pair of a relation and a complement
functional), quotient, induce the canonical coaction onto the quotient, and
verify everything that makes the result a weak bialgebra coacting on kQ/I.
Duality checks transport degree-2 biideal pieces along the star and swap
maps and compare them exactly.
"""

from . import coaction as co
from . import pathalg as pa
from . import quiver as qv
from . import wba
from .errors import UnsupportedShapeError, VerificationError
from .linalg import Subspace, bump, subspace_equal

RESULT_SIDES = ("left", "right", "trans")


def coaction_relations(qd, side):
    """Degree-2 face coordinates whose vanishing makes the coaction descend.

    One generator per (relation, complement functional) pair, alpha-major
    over the canonical bases; zero results are dropped.  Both index pairs
    run over composable arrow pairs, so every term survives concatenation.
    Over the n degree-2 paths, x[a;b] has index i_a*n + i_b; integral
    coefficients are ints, the rest Fractions.
    """
    co._require_side(side)
    n = qd.ambient_dim
    d_rows = qd.dual_rows()
    gens = []
    for crow in qd.relation_space.basis:
        for drow in d_rows:
            terms = {}
            for ij, cij in crow.items():
                for kl, dkl in drow.items():
                    bump(terms, ij * n + kl if side == "left" else kl * n + ij, cij * dkl)
            if terms:
                gens.append({m: c.numerator if c.denominator == 1 else c
                             for m, c in terms.items()})
    return gens


class UQSGdResult:
    """One verified UQSGd presentation and the objects it was built from."""

    def __init__(self, side, quiver, relation_space, biideal, quotient,
                 induced_coactions, verification, quotient_dims=None):
        self.side = side
        self.quiver = quiver
        self.relation_space = relation_space
        self.biideal = biideal
        self.quotient = quotient
        self.induced_coactions = induced_coactions
        self.verification = verification
        self.quotient_dims = [] if quotient_dims is None else quotient_dims


def _check_descent(pieces_h, algebra_pieces, sides):
    """The canonical coaction must kill ideal elements after both projections."""
    fails = {side: [] for side in sides}
    for d, piece_a in enumerate(algebra_pieces):
        if not piece_a.dim:
            continue
        n = piece_a.ambient_dim
        res_a = piece_a.residues()
        res_h = pieces_h[d].residues()
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


def _induced_coaction(q, side, biideal, algebra, max_degree):
    """Canonical coefficients pushed through the biideal quotient projection.

    The arrays stay indexed by the path basis (the shared coefficient family
    of a transposed pair); only the entries move to quotient coordinates.
    """
    coefficients = []
    for d in range(max_degree + 1):
        _, residues = wba.coset_table(biideal, d)
        n = len(qv.enumerate_paths(q, d))
        mat = [[residues[r * n + c] for c in range(n)] for r in range(n)]
        coefficients.append(mat)
    endpoints = [(a.source, a.target) for a in q.arrows]
    return co.CoactionSpec(side, algebra, coefficients, endpoints)


def build_uqsgd(q, ideal, side, max_degree):
    """Construct and verify one UQSGd presentation of kQ/I.

    Builds the degree-2 biideal from the coaction relations (the transposed
    side takes the union of both), quotients the face algebra, induces the
    canonical coaction(s) on the quotient of kQ/I, and bundles all checks.
    Raises when the ideal is not quadratic or when a soundness check fails.
    """
    if side not in RESULT_SIDES:
        raise ValueError(f"side must be one of {RESULT_SIDES}, got {side!r}")
    qd = pa.quadratic_data(ideal)
    host = wba.from_face_algebra(q, max_degree)
    gen_sides = ("left", "right") if side == "trans" else (side,)
    biideal = wba.BiidealGens(host, [(2, g) for s in gen_sides
                                     for g in coaction_relations(qd, s)])

    breport = wba.check_biideal(biideal, max_degree)
    if not breport["passed"]:
        raise VerificationError("coaction relations did not generate a biideal", breport)
    quotient = wba.quotient_wba(biideal, report=breport)
    axioms = wba.check_axioms(quotient)
    if not axioms["passed"]:
        raise VerificationError("quotient failed the weak bialgebra axioms", axioms)

    pieces_h = [wba.biideal_graded_pieces(biideal, d) for d in range(max_degree + 1)]
    algebra_pieces = [pa.ideal_graded_piece(ideal, d) for d in range(max_degree + 1)]
    descent = _check_descent(pieces_h, algebra_pieces, gen_sides)
    descent_report = {
        "passed": not any(descent.values()),
        "checks": [wba._row(f"coaction-descends-{s}", descent[s], key="check")
                   for s in gen_sides],
    }
    if not descent_report["passed"]:
        raise VerificationError("coaction does not descend to the quotient",
                                descent_report)

    algebra = wba.path_algebra_presentation(q, max_degree)
    induced = {}
    comodule_reports = {}
    lemma_reports = {}
    for s in gen_sides:
        spec = _induced_coaction(q, s, biideal, algebra, max_degree)
        induced[s] = spec
        comodule_reports[s] = co.check_comodule_algebra(spec, quotient, algebra,
                                                        max_degree)
        lemma_reports[s] = co.check_structure_lemmas(spec, quotient)
    verification = {
        "biideal": breport,
        "axioms": axioms,
        "descent": descent_report,
        "comodule": comodule_reports,
        "structureLemmas": lemma_reports,
    }
    if side == "trans":
        verification["transposed"] = co.check_transposed(induced["left"],
                                                         induced["right"])
    dims = quotient.dims()
    return UQSGdResult(side=side, quiver=q, relation_space=qd, biideal=biideal,
                       quotient=quotient, induced_coactions=induced,
                       verification=verification, quotient_dims=dims)


def _star_index_map(q, degree=2):
    """Index permutation of face bases induced by path reversal, Q -> Q^op."""
    opp = qv.opposite_quiver(q)
    paths = qv.enumerate_paths(q, degree)
    opp_paths = qv.enumerate_paths(opp, degree)
    opp_index = {p: i for i, p in enumerate(opp_paths)}
    star = [opp_index[qv.star_path(q, p)] for p in paths]
    n = len(paths)
    n_opp = len(opp_paths)
    mapping = {}
    for a in range(n):
        for b in range(n):
            mapping[a * n + b] = star[a] * n_opp + star[b]
    return mapping


def _swap_index_map(q, degree=2):
    paths = qv.enumerate_paths(q, degree)
    n = len(paths)
    return {a * n + b: b * n + a for a in range(n) for b in range(n)}


def _transport(subspace, mapping, ambient):
    rows = [{mapping[i]: c for i, c in row.items()} for row in subspace.basis]
    return Subspace.from_rows(ambient, rows)


def check_quadratic_dualities(qd, qdual, max_degree):
    """Transport checks for the four duality statements, plus dimension laws.

    qd is the quadratic data of kQ/I and qdual = pa.quadratic_dual(qd).
    (a) star carries the left biideal piece of kQ/I onto the right piece of
    the quadratic dual; (b) the mirror; (c) swap exchanges left and right on
    the same algebra; (d) star matches the transposed sides.  Each row also
    compares graded quotient dimensions up to max_degree.

    Only products are read, so the hosts come from wba.face_algebra, with no
    coproduct or counit tables.  The transported degree-2 pieces are
    canonical Subspaces; the dimensions come from wba.biideal_rank, so the
    top degree is never finalized (lower degrees are, as spreading reads
    their bases).
    """
    if max_degree < 2:
        raise ValueError("duality checks need max_degree >= 2")
    q = qd.quiver

    pieces = {}
    dims = {}
    ambient = {}
    for label, data in (("base", qd), ("dual", qdual)):
        host = wba.face_algebra(data.quiver, max_degree)
        ambient[label] = host.dim(2)
        for side in RESULT_SIDES:
            gen_sides = ("left", "right") if side == "trans" else (side,)
            b = wba.BiidealGens(host, [(2, g) for s in gen_sides
                                       for g in coaction_relations(data, s)])
            dims[(side, label)] = [host.dim(d) - wba.biideal_rank(b, d)
                                   for d in range(max_degree + 1)]
            pieces[(side, label)] = wba.biideal_graded_pieces(b, 2)

    star = _star_index_map(q)
    swap = _swap_index_map(q)
    def transported_equal(src, mapping, target, dst):
        return subspace_equal(_transport(src, mapping, ambient[target]), dst)

    rows = []

    def add_row(name, piece_ok, dims_ok, detail):
        status = "pass" if piece_ok and dims_ok else "fail"
        rows.append({"check": name, "status": status, "witnesses": [] if status == "pass"
                     else [detail]})

    add_row("a-star-left-onto-dual-right",
            transported_equal(pieces[("left", "base")], star, "dual",
                              pieces[("right", "dual")]),
            dims[("left", "base")] == dims[("right", "dual")],
            "left piece of the base vs right piece of the dual")
    add_row("b-star-right-onto-dual-left",
            transported_equal(pieces[("right", "base")], star, "dual",
                              pieces[("left", "dual")]),
            dims[("right", "base")] == dims[("left", "dual")],
            "right piece of the base vs left piece of the dual")
    add_row("c-swap-left-onto-right",
            transported_equal(pieces[("left", "base")], swap, "base",
                              pieces[("right", "base")]),
            dims[("left", "base")] == dims[("right", "base")],
            "left piece vs right piece under swap")
    add_row("d-star-trans-onto-dual-trans",
            transported_equal(pieces[("trans", "base")], star, "dual",
                              pieces[("trans", "dual")]),
            dims[("trans", "base")] == dims[("trans", "dual")],
            "transposed piece of the base vs transposed piece of the dual")

    return {"passed": all(r["status"] == "pass" for r in rows), "checks": rows}
