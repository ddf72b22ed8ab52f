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
from .errors import VerificationError
from .linalg import Subspace, apply_legs, bump, divided, int_where_integral

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
    gens = []
    for crow in qd.relation_space.basis:
        for drow in qd.dual_rows:
            terms = {}
            for ij, cij in crow.items():
                for kl, dkl in drow.items():
                    bump(terms, ij * n + kl if side == "left" else kl * n + ij, cij * dkl)
            if terms:
                gens.append({m: int_where_integral(c) for m, c in terms.items()})
    return gens


class UQSGdResult:
    """One verified UQSGd presentation and the objects it was built from."""

    def __init__(self, side, data, biideal, quotient,
                 induced_coactions, verification, quotient_dims, algebra_dims):
        self.side = side
        self.data = data
        self.biideal = biideal
        self.quotient = quotient
        self.induced_coactions = induced_coactions
        self.verification = verification
        self.quotient_dims = quotient_dims
        self.algebra_dims = algebra_dims


def _relation_biideal(host, qd, side):
    """(coaction sides, BiidealGens of host generated by their coaction relations).

    The transposed side takes the union of the left and right relations.
    """
    sides = co.SIDES if side == "trans" else (side,)
    return sides, wba.BiidealGens(host, [(2, g) for s in sides
                                         for g in coaction_relations(qd, s)])


def _check_descent(pieces_h, algebra_pieces, sides):
    """The canonical coaction must kill ideal elements after both projections.

    On the path basis of degree d, the left coaction is p -> sum_c x[p;c] (x) c
    and the right one p -> sum_c x[c;p] (x) c, host leg first; each relation
    row's image is projected onto the two quotients by apply_legs.
    """
    fails = {side: [] for side in sides}
    for d, piece_a in enumerate(algebra_pieces):
        if not piece_a.dim:
            continue
        n = piece_a.ambient_dim
        proj_a = piece_a.projection
        proj_h = pieces_h[d].projection
        for side in sides:
            for r, row in enumerate(piece_a.int_rows):
                image = {(p * n + c if side == "left" else c * n + p, c): a
                         for p, a in row.items() for c in range(n)}
                if apply_legs(image, proj_h.rows, proj_a.rows):
                    fails[side].append(f"degree {d}, relation row {r}")
    return fails


def _induced_coefficients(biideal, algebra):
    """Canonical coefficients pushed through the biideal quotient projection.

    The arrays stay indexed by the path basis, so they are the one
    coefficient family of every side; only the entries move to quotient
    coordinates.
    """
    coefficients = []
    for d in range(algebra.max_degree + 1):
        proj = wba.biideal_graded_pieces(biideal, d).projection
        n = algebra.dim(d)
        mat = [[divided(proj.rows[r * n + c], proj.denom) for c in range(n)] for r in range(n)]
        coefficients.append(mat)
    return coefficients


def build_uqsgd(q, relations, side, max_degree):
    """Construct and verify one UQSGd presentation of kQ/I, I generated by relation rows.

    Builds the degree-2 biideal from the coaction relations (the transposed
    side takes the union of both), quotients the face algebra, induces the
    canonical coaction(s) on the quotient of kQ/I, and bundles all checks.
    kQ/I is the ideal that pa.quadratic_data reads R from: its pieces feed
    the descent check, and its host, kQ, is squared into h(Q) and is the
    algebra the coactions act on.
    Raises when a relation is not quadratic or when a soundness check fails.
    """
    if side not in RESULT_SIDES:
        raise ValueError(f"side must be one of {RESULT_SIDES}, got {side!r}")
    qd = pa.quadratic_data(q, relations, max_degree)
    kq_ideal = qd.ideal
    algebra = kq_ideal.host
    gen_sides, biideal = _relation_biideal(wba.from_face_algebra(algebra), qd, side)

    breport = wba.check_biideal(biideal)
    if not breport["passed"]:
        raise VerificationError("coaction relations did not generate a biideal", breport)
    quotient = wba.quotient_wba(biideal, report=breport)
    axioms = wba.check_axioms(quotient)
    if not axioms["passed"]:
        raise VerificationError("quotient failed the weak bialgebra axioms", axioms)

    pieces_h = [wba.biideal_graded_pieces(biideal, d) for d in range(max_degree + 1)]
    algebra_pieces = [wba.biideal_graded_pieces(kq_ideal, d) for d in range(max_degree + 1)]
    descent = _check_descent(pieces_h, algebra_pieces, gen_sides)
    descent_report = wba.report([(f"coaction-descends-{s}", descent[s]) for s in gen_sides])
    if not descent_report["passed"]:
        raise VerificationError("coaction does not descend to the quotient",
                                descent_report)

    coefficients = _induced_coefficients(biideal, algebra)
    induced = {}
    comodule_reports = {}
    lemma_reports = {}
    for s in gen_sides:
        spec = induced[s] = co.CoactionSpec(s, algebra, coefficients)
        comodule_reports[s] = co.check_comodule_algebra(spec, quotient)
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
    return UQSGdResult(side=side, data=qd, biideal=biideal,
                       quotient=quotient, induced_coactions=induced,
                       verification=verification, quotient_dims=quotient.dims(),
                       algebra_dims=wba.quotient_dims(kq_ideal))


def _star_index_map(q):
    """Index permutation of degree-2 face bases induced by path reversal, Q -> Q^op."""
    star = qv.star_indices(q, 2)
    n = len(star)
    return {a * n + b: star[a] * n + star[b] for a in range(n) for b in range(n)}


def _swap_index_map(n):
    return {a * n + b: b * n + a for a in range(n) for b in range(n)}


def _transport(subspace, mapping, ambient):
    rows = [{mapping[i]: c for i, c in row.items()} for row in subspace.int_rows]
    return Subspace.from_rows(ambient, rows)


def check_quadratic_dualities(qd, qdual):
    """Transport checks for the four duality statements.

    qd is the quadratic data of kQ/I and qdual = pa.quadratic_dual(qd), over
    the opposite quiver (ValueError otherwise).  (a) star carries the left
    biideal piece of kQ/I onto the right piece of the quadratic dual; (b)
    the mirror; (c) swap exchanges left and right on the same algebra; (d)
    star matches the transposed sides.  Each row compares the transported
    degree-2 piece with the target's, exactly, and that comparison is the
    whole row: by the lemma below, the graded quotient dimensions then
    agree in every degree of the data's window.

    Let phi be star, x[p;q] -> x[p*;q*] from h(Q) to h(Q^op), which reverses
    products (x[a;b] x[c;k] = x[ac;bk] goes to x[c*;k*] x[a*;b*]), or swap,
    x[a;b] -> x[b;a], an automorphism of h(Q); either way phi is bijective
    in each degree and phi(H_1) = H'_1.  Every biideal here is generated in
    degree 2 alone, so I_0 = I_1 = 0 and I_d = H_1 I_{d-1} + I_{d-1} H_1 for
    d >= 3 (biideal_graded_pieces), and the same holds for I'.  An
    (anti-)automorphism maps H_1 I_{d-1} + I_{d-1} H_1 onto
    H'_1 phi(I_{d-1}) + phi(I_{d-1}) H'_1, so phi(I_2) = I'_2 gives
    phi(I_d) = I'_d in every degree by induction, and dim H_d - dim I_d =
    dim H'_d - dim I'_d.  Where the degree-2 pieces differ the row fails
    already, whatever the dimensions.

    Only products are read, and only in degrees up to 2: each host is
    wba.face_algebra of the data's kQ truncated at degree 2, with no
    coproduct or counit tables, so no biideal is spread past degree 2.
    The transported degree-2 pieces are canonical Subspaces.  Every side's
    biideal is _relation_biideal's, as in build_uqsgd: the transposed one
    spreads the union of both sides' coaction relations.
    """
    q = qd.quiver
    if qdual.quiver != qv.opposite_quiver(q):
        raise ValueError("duality checks need the dual data over the opposite quiver")

    pieces = {}
    ambient = {}
    for label, data in (("base", qd), ("dual", qdual)):
        host = wba.face_algebra(wba.path_algebra_presentation(data.quiver, 2))
        ambient[label] = host.dim(2)
        for side in RESULT_SIDES:
            b = _relation_biideal(host, data, side)[1]
            pieces[(side, label)] = wba.biideal_graded_pieces(b, 2)

    star = _star_index_map(q)
    swap = _swap_index_map(qd.ambient_dim)
    # (row, source piece, map, target piece, witness); the map lands on the target's host
    table = (
        ("a-star-left-onto-dual-right", ("left", "base"), star, ("right", "dual"),
         "left piece of the base vs right piece of the dual"),
        ("b-star-right-onto-dual-left", ("right", "base"), star, ("left", "dual"),
         "right piece of the base vs left piece of the dual"),
        ("c-swap-left-onto-right", ("left", "base"), swap, ("right", "base"),
         "left piece vs right piece under swap"),
        ("d-star-trans-onto-dual-trans", ("trans", "base"), star, ("trans", "dual"),
         "transposed piece of the base vs transposed piece of the dual"),
    )
    rows = []
    for name, src, mapping, dst, detail in table:
        moved = _transport(pieces[src], mapping, ambient[dst[1]])
        rows.append((name, [] if moved == pieces[dst] else [detail]))
    return wba.report(rows)
