"""Coaction specifications and their verification.

A coaction is stored by its coefficient arrays against fixed bases: one
square array per degree whose entries are degree-matching host elements.
The same array serves either side; only the reading changes
(left: v_j ↦ Σ_k y[j][k] ⊗ v_k, right: v_j ↦ Σ_k v_k ⊗ y[k][j]), which is
exactly what makes a transposed pair a literal array equality.  The
algebra is the kQ that h(Q) is squared from; arrows' endpoints are read there.

Multiplicativity of a coaction is the identity that makes Delta
multiplicative, so the comodule-algebra check runs wba.multiplicative_failures,
the one join over nonzero coefficient entries, algebra products and host
products, on the coaction's images with the host leg first.  The
coassociativity and counit rows of one degree's array come from one pass,
_coalgebra_rows, which each check runs for itself; no check writes to
the host.  Coassociativity above degree 1 is proven from generators when
check_comodule_algebra's premises hold, and computed otherwise.
"""

from . import wba
from .errors import UnsupportedShapeError
from .linalg import Echelon, bump, mat_vec

_ONE = 1

SIDES = ("left", "right")


def _require_side(side):
    if side not in SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


class CoactionSpec:
    """Coefficient arrays of a graded coaction on a graded algebra.

    coefficients[d][r][c] is a host degree-d coordinate dict, with one
    array per degree of the algebra's window (ValueError otherwise).
    """

    def __init__(self, side, algebra, coefficients):
        _require_side(side)
        self.side = side
        self.algebra = algebra
        self.coefficients = [
            [[dict(entry) for entry in row] for row in mat] for mat in coefficients
        ]
        if len(self.coefficients) != algebra.max_degree + 1:
            raise ValueError(f"need one coefficient array per degree 0..{algebra.max_degree}")
        for d, mat in enumerate(self.coefficients):
            n = algebra.dim(d)
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"degree-{d} coefficient array is not {n}x{n}")


def canonical_coactions(kq, sides):
    """Coactions of the face algebra on the path algebra kq, on path bases, by side.

    The sides share kq and one coefficient family up to kq's truncation,
    as a transposed pair does.  Degree-0 and degree-1 coefficients are the
    defining ones; every higher degree is their multiplicative consequence,
    which on path bases is again a single face monomial per entry.
    """
    coefficients = [[[{r * n + c: _ONE} for c in range(n)] for r in range(n)]
                    for n in kq.dims()]
    return {side: CoactionSpec(side, kq, coefficients) for side in sides}


def _coalgebra_rows(host, algebra, d, mat, coassociative=True):
    """Pairs of algebra labels (j, l) failing Δ(y_jl) = Σ_k y_jk ⊗ y_kl
    (computed only when coassociative) and ε(y_jl) = δ_jl on one degree's
    coefficient array, as (coassociative, counital), from one pass.  The
    sum visits only nonzero entries, flattened to (m, c) tuples once: each
    term c u_m of y_jk is joined once with row k's entries, and cancelled
    terms are dropped once, before the comparison."""
    labels = algebra.labels[d]
    entries = [[(k, tuple(ent.items())) for k, ent in enumerate(row) if ent]
               for row in mat] if coassociative else None
    coassoc_fails = []
    counit_fails = []
    for j, row in enumerate(mat):
        rhs = {}
        if coassociative:
            # each term cm u_m of y_jk, joined with row k's entries
            for k, yjk in enumerate(row):
                for m, cm in yjk.items():
                    for l, ykl in entries[k]:
                        out = rhs.get(l)
                        if out is None:
                            out = rhs[l] = {}
                        for nn, cn in ykl:
                            key = (m, nn)
                            out[key] = out.get(key, 0) + cm * cn
        for l, yjl in enumerate(row):
            if coassociative:
                out = rhs.get(l, {})
                if not all(out.values()):
                    out = {key: c for key, c in out.items() if c}
                if host.delta(d, yjl) != out:
                    coassoc_fails.append([labels[j], labels[l]])
            if host.eps(d, yjl) != (_ONE if j == l else 0):
                counit_fails.append([labels[j], labels[l]])
    return coassoc_fails, counit_fails


def check_comodule_algebra(c, host):
    """Comodule and comodule-algebra axioms for one coaction, exactly.

    Verifies coassociativity and counitality per degree, multiplicativity
    over all algebra basis pairs inside the algebra's window, which must
    be the host's (ValueError otherwise), and the unit condition
    (membership of the unit's coefficients in the appropriate counital
    subalgebra).  Multiplicativity is wba.multiplicative_failures of the
    coaction, host leg first, so only nonzero coefficients, algebra
    products and host products are visited.

    Coassociativity is computed on degrees 0 and 1 alone when they pass,
    the coaction is multiplicative, the algebra is generator_reducible and
    the host's Delta is known to be multiplicative, two facts set at
    construction (host.delta_multiplicative holds on h(Q) and its
    quotients, see wba.quotient_wba; it is never computed here).  Then,
    for a left coaction rho, (Delta (x) id)rho and (id (x) rho)rho are
    multiplicative maps (on a right one, (rho (x) id)rho and
    (id (x) Delta)rho), and two
    multiplicative maps that agree on degrees 0 and 1 agree on every
    v = sum c g x with g of degree 1, by induction on the degree.  The
    counit rows are computed on every degree, as the counit of a weak
    bialgebra is not multiplicative.  Otherwise every degree is computed.
    kQ, h(Q) and its quotients are born generator_reducible, the premise
    that the multiplicativity join reads.
    """
    algebra = c.algebra
    max_degree = algebra.max_degree
    if host.max_degree != max_degree:
        raise ValueError(f"host truncated at {host.max_degree}, algebra at {max_degree}")
    y = c.coefficients

    # images[d][j] is the coaction of v_j as {(h, k): c}, the term c u_h (x) v_k:
    # sum_k y_jk (x) v_k on the left, sum_k y_kj (x) v_k on the right
    left = c.side == "left"
    images = [[{(h, k): ch for k in range(len(mat))
                for h, ch in (mat[j][k] if left else mat[k][j]).items() if ch}
               for j in range(len(mat))] for mat in y]
    mult_fails = wba.multiplicative_failures(algebra, lambda d, j: images[d][j], host, algebra)

    rows = [_coalgebra_rows(host, algebra, d, y[d]) for d in range(min(max_degree, 1) + 1)]
    proven = (not mult_fails and not any(coassoc for coassoc, _ in rows)
              and host.delta_multiplicative and algebra.generator_reducible)
    rows += [_coalgebra_rows(host, algebra, d, y[d], not proven)
             for d in range(2, max_degree + 1)]

    unit_fails = []
    counital = wba.counital_subalgebra(host, "source" if left else "target")
    for k in range(algebra.dim(0)):
        coeff = mat_vec([row[k] for row in y[0]] if left else y[0][k], algebra.unit)
        if coeff and not counital.contains(coeff):
            unit_fails.append([algebra.label_of(0, k)])

    return wba.report([
        ("coassociative", [w for coassoc, _ in rows for w in coassoc]),
        ("counital", [w for _, counit in rows for w in counit]),
        ("multiplicative", mult_fails),
        ("unit-membership", unit_fails),
    ])


def check_transposed(lam, rho):
    """True iff the two coactions share one coefficient family entrywise."""
    if lam.side != "left" or rho.side != "right":
        raise ValueError("expected a (left, right) pair of coactions")
    if lam.algebra.labels != rho.algebra.labels:
        raise ValueError("coactions are over different algebra bases")
    return lam.coefficients == rho.coefficients


def verify_base_iso(c, host, candidate):
    """Check one degree-0 map as a base isomorphism for the coaction.

    candidate lists, per degree-0 algebra basis element, its image as a
    degree-0 host coordinate dict.  Checks: algebra map, bijection onto the
    relevant counital subalgebra, and intertwining of the degree-0 coaction
    with the restricted coproduct.
    """
    algebra = c.algebra
    n0 = algebra.dim(0)
    if len(candidate) != n0:
        raise ValueError("candidate must map every degree-0 basis element")
    candidate = [dict(v) for v in candidate]

    algebra_fails = []
    if mat_vec(candidate, algebra.unit) != host.unit:
        algebra_fails.append(["unit"])
    for i in range(n0):
        for j in range(n0):
            lhs = mat_vec(candidate, algebra.product_of(0, i, 0, j))
            rhs = host.multiply(0, candidate[i], 0, candidate[j])
            if lhs != rhs:
                algebra_fails.append([algebra.label_of(0, i), algebra.label_of(0, j)])

    side_name = "target" if c.side == "left" else "source"
    counital = wba.counital_subalgebra(host, side_name)
    bijective_fails = []
    ech = Echelon(host.dim(0))
    for k in range(n0):
        if not counital.contains(candidate[k]):
            bijective_fails.append([algebra.label_of(0, k), "image outside counital subalgebra"])
        ech.add(candidate[k])
    if ech.rank != n0:
        bijective_fails.append(["images are linearly dependent"])
    if counital.dim != n0:
        bijective_fails.append([f"counital dimension {counital.dim} != base dimension {n0}"])

    # left: (id (x) psi) lambda0(e_k) vs Delta(psi(e_k));
    # right: (phi (x) id) rho0(e_k) vs Delta(phi(e_k))
    intertwine_fails = []
    y0 = c.coefficients[0]
    left = c.side == "left"
    for k in range(n0):
        lhs = {}
        for j in range(n0):
            for m, cm in (y0[k][j] if left else y0[j][k]).items():
                for h, ch in candidate[j].items():
                    bump(lhs, (m, h) if left else (h, m), cm * ch)
        rhs = host.delta(0, candidate[k])
        if lhs != rhs:
            intertwine_fails.append([algebra.label_of(0, k)])

    return wba.report([
        ("algebra-map", algebra_fails),
        ("bijective-onto-counital", bijective_fails),
        ("intertwines-coaction", intertwine_fails),
    ])


def _orthogonality(alg, rows):
    """{(i, j): whether u_i u_j = delta_ij u_i} over the degree-0 elements rows."""
    return {(i, j): alg.multiply(0, u, 0, v) == (u if i == j else {})
            for i, u in enumerate(rows) for j, v in enumerate(rows)}


def search_base_iso(c, host):
    """Base-isomorphism search over primitive idempotent bijections.

    Requires both the degree-0 algebra basis and the canonical basis of the
    counital subalgebra to consist of orthogonal idempotents, the latter
    with pairwise disjoint supports (true for every split base handled
    here).  Then intertwining splits into one block per pair (k, j) of
    degree-0 basis elements: y0[k][j] (x) psi(e_j) (y0[j][k] on the right)
    against the terms of Delta(psi(e_k)) whose counital leg lies in the
    support of psi(e_j).  Partial assignments of vertices to free counital
    basis rows are walked depth first with an explicit stack; the children
    of an assignment are pushed highest row first, so the lowest row is
    tried first and complete candidates come in lexicographic order.  An
    assignment is dropped once a block among its assigned vertices fails,
    and verify_base_iso runs on each complete survivor.  Returns the first
    passing candidate with its verify_base_iso report, as
    (candidate, verification), or None.
    """
    algebra = c.algebra
    n0 = algebra.dim(0)
    if not all(_orthogonality(algebra, [{i: _ONE} for i in range(n0)]).values()):
        raise UnsupportedShapeError(
            "degree-0 algebra basis is not a family of orthogonal idempotents")
    left = c.side == "left"
    counital = wba.counital_subalgebra(host, "target" if left else "source")
    basis = [dict(row) for row in counital.basis]
    if not all(_orthogonality(host, basis).values()):
        raise UnsupportedShapeError(
            "counital subalgebra basis is not a family of orthogonal idempotents")
    supports = [set(row) for row in basis]
    if sum(map(len, supports)) != len(set().union(*supports)):
        raise UnsupportedShapeError(
            "counital subalgebra basis rows do not have disjoint supports")
    if counital.dim != n0:
        return None
    y0 = c.coefficients[0]
    deltas = [host.delta(0, row) for row in basis]
    leg = 1 if left else 0

    def block_holds(k, j, a, b):
        # vertex k sent to basis row a and vertex j to row b
        lhs = {}
        for m, cm in (y0[k][j] if left else y0[j][k]).items():
            for h, ch in basis[b].items():
                bump(lhs, (m, h) if left else (h, m), cm * ch)
        return lhs == {key: x for key, x in deltas[a].items() if key[leg] in supports[b]}

    # assigned[k] is the row of vertex k; the newest vertex t is tested when popped
    stack = [()]
    while stack:
        assigned = stack.pop()
        t = len(assigned) - 1
        if t >= 0 and not all(block_holds(k, t, b, assigned[t])
                              and block_holds(t, k, assigned[t], b)
                              for k, b in enumerate(assigned)):
            continue
        if t + 1 < n0:
            stack += [assigned + (a,) for a in reversed(range(n0)) if a not in assigned]
            continue
        candidate = [basis[a] for a in assigned]
        verification = verify_base_iso(c, host, candidate)
        if verification["passed"]:
            return candidate, verification
    return None


def check_structure_lemmas(c, host):
    """Coefficient identities of a grading-preserving base-split coaction.

    Verifies, on the degree-0 and degree-1 coefficient arrays: matrix
    comultiplicativity and the delta-counit, the side-appropriate
    orthogonality among coefficient rows or columns, absorption of the
    endpoint coefficients, idempotence and source-membership of the column
    sums, target-membership of the row sums, the unit decomposition, and
    full orthogonality of the degree-0 coefficients.
    """
    algebra = c.algebra
    y0 = c.coefficients[0]
    n0 = algebra.dim(0)
    rows = []

    for d in range(min(algebra.max_degree, 1) + 1):
        comult_fails, counit_fails = _coalgebra_rows(host, algebra, d, c.coefficients[d])
        rows.append((f"degree{d}-comultiplicative", comult_fails))
        rows.append((f"degree{d}-counit", counit_fails))

    # orthogonal[i n0 + j, k n0 + m]: whether y_ij y_km = delta_ik delta_jm y_ij,
    # each product taken once for both orthogonality rows
    orthogonal = _orthogonality(host, [entry for row in y0 for entry in row])
    # left, shared column: y_{i,k} y_{j,k} = delta_{i,j} y_{i,k};
    # right, shared row: y_{k,i} y_{k,j} = delta_{i,j} y_{k,i}
    shared_column = c.side == "left"
    ortho_fails = []
    for k in range(n0):
        for i in range(n0):
            for j in range(n0):
                (a, b), (r, s) = ((i, k), (j, k)) if shared_column else ((k, i), (k, j))
                if not orthogonal[a * n0 + b, r * n0 + s]:
                    ortho_fails.append([f"({a},{b})", f"({r},{s})"])
    rows.append(("column-orthogonality" if shared_column else "row-orthogonality", ortho_fails))

    absorb_fails = []
    if algebra.max_degree >= 1:
        y1 = c.coefficients[1]
        n1 = algebra.dim(1)
        # the endpoints of arrow p: e_s p != 0 and p e_t != 0
        by_left = algebra.products_by_left
        source = {p: s for s, row in by_left.get((0, 1), {}).items() for p in row}
        target = {p: t for p, row in by_left.get((1, 0), {}).items() for t in row}
        for p in range(n1):
            sp, tp = source[p], target[p]
            for q in range(n1):
                sq, tq = source[q], target[q]
                left = host.multiply(0, y0[sp][sq], 1, y1[p][q])
                if left != y1[p][q]:
                    absorb_fails.append(["source", f"({p},{q})"])
                right = host.multiply(1, y1[p][q], 0, y0[tp][tq])
                if right != y1[p][q]:
                    absorb_fails.append(["target", f"({p},{q})"])
    rows.append(("endpoint-absorption", absorb_fails))

    source_sub = wba.counital_subalgebra(host, "source")
    target_sub = wba.counital_subalgebra(host, "target")
    ones = dict.fromkeys(range(n0), _ONE)
    # eta_j = sum_i y_ij (column sums), theta_j = sum_i y_ji (row sums)
    thetas = [mat_vec(row, ones) for row in y0]
    eta_fails = []
    theta_fails = []
    for j, theta in enumerate(thetas):
        eta = mat_vec([row[j] for row in y0], ones)
        if host.multiply(0, eta, 0, eta) != eta:
            eta_fails.append([f"column {j}", "not idempotent"])
        if not source_sub.contains(eta):
            eta_fails.append([f"column {j}", "outside source subalgebra"])
        if not target_sub.contains(theta):
            theta_fails.append([f"row {j}", "outside target subalgebra"])
    rows.append(("column-sums-idempotent-in-source", eta_fails))
    rows.append(("row-sums-in-target", theta_fails))

    unit_fails = [] if mat_vec(thetas, ones) == host.unit else [["unit decomposition"]]
    rows.append(("unit-decomposition", unit_fails))

    full_ortho_fails = [[f"({a // n0},{a % n0})", f"({b // n0},{b % n0})"]
                        for (a, b), ok in orthogonal.items() if not ok]
    rows.append(("coefficient-orthogonality", full_ortho_fails))

    return wba.report(rows)
