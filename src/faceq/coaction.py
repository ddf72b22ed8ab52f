"""Coaction specifications and their verification.

A coaction is stored by its coefficient arrays against fixed bases: one
square array per degree whose entries are degree-matching host elements.
The same array serves either side; only the reading changes
(left: v_j ↦ Σ_k y[j][k] ⊗ v_k, right: v_j ↦ Σ_k v_k ⊗ y[k][j]), which is
exactly what makes a transposed pair a literal array equality.

Multiplicativity of a coaction is the identity that makes Delta
multiplicative, so the comodule-algebra check runs wba.multiplicative_failures,
the one join over nonzero coefficient entries, algebra products and host
products, on the coaction's images with the host leg first.  The
coassociativity and counit rows of one degree's array are computed once
per host and array content, so the two sides of a transposed pair, which
share one coefficient family, and the structure lemmas read one result.
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

    coefficients[d][r][c] is a host degree-d coordinate dict;
    arrow_endpoints[p] gives the (source, target) degree-0 indices of the
    p-th degree-1 basis element, used by the structure-lemma checks.
    """

    def __init__(self, side, algebra, coefficients, arrow_endpoints):
        _require_side(side)
        self.side = side
        self.algebra = algebra
        self.coefficients = [
            [[dict(entry) for entry in row] for row in mat] for mat in coefficients
        ]
        for d, mat in enumerate(self.coefficients):
            n = algebra.dim(d)
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"degree-{d} coefficient array is not {n}x{n}")
        self.arrow_endpoints = list(arrow_endpoints)
        if len(self.coefficients) > 1 and len(self.arrow_endpoints) != algebra.dim(1):
            raise ValueError("arrow endpoint list does not match the degree-1 basis")

    def degrees(self):
        return len(self.coefficients) - 1


def canonical_coactions(q, sides, max_degree):
    """Coactions of the face algebra on the path algebra, on path bases, by side.

    The sides share one kQ presentation and one coefficient family, as a
    transposed pair does.  Degree-0 and degree-1 coefficients are the
    defining ones; every higher degree is their multiplicative consequence,
    which on path bases is again a single face monomial per entry.
    """
    algebra = wba.path_algebra_presentation(q, max_degree)
    coefficients = []
    for d in range(max_degree + 1):
        n = algebra.dim(d)
        mat = [[{r * n + c: _ONE} for c in range(n)] for r in range(n)]
        coefficients.append(mat)
    endpoints = [(a.source, a.target) for a in q.arrows]
    return {side: CoactionSpec(side, algebra, coefficients, endpoints) for side in sides}


def _matrix_failures(host, d, mat):
    """Index pairs (j, l) failing Δ(y_jl) = Σ_k y_jk ⊗ y_kl, and those failing
    ε(y_jl) = δ_jl, on one degree's coefficient array.  The sum visits only
    nonzero entries, flattened to (m, c) tuples once, and drops cancelled
    terms once, before the comparison."""
    entries = [[(k, tuple(ent.items())) for k, ent in enumerate(row) if ent] for row in mat]
    coassoc_fails = []
    counit_fails = []
    for j, row in enumerate(mat):
        rhs = {}
        for k, yjk in entries[j]:
            for l, ykl in entries[k]:
                out = rhs.get(l)
                if out is None:
                    out = rhs[l] = {}
                for m, cm in yjk:
                    for nn, cn in ykl:
                        key = (m, nn)
                        out[key] = out.get(key, 0) + cm * cn
        for l, yjl in enumerate(row):
            out = rhs.get(l, {})
            if not all(out.values()):
                out = {key: c for key, c in out.items() if c}
            if host.delta(d, yjl) != out:
                coassoc_fails.append((j, l))
            if host.eps(d, yjl) != (_ONE if j == l else 0):
                counit_fails.append((j, l))
    return coassoc_fails, counit_fails


def _coalgebra_rows(host, algebra, d, mat):
    """_matrix_failures of one degree's array, as pairs of algebra labels.

    The index pairs are kept in host.coalgebra_rows under the degree and
    the array's content, so an equal array, on either side, is not checked
    again.
    """
    key = (d, tuple(tuple(frozenset(ent.items()) for ent in row) for row in mat))
    found = host.coalgebra_rows.get(key)
    if found is None:
        found = host.coalgebra_rows[key] = _matrix_failures(host, d, mat)
    labels = algebra.labels[d]
    return tuple([[labels[j], labels[l]] for j, l in fails] for fails in found)


def check_comodule_algebra(c, host):
    """Comodule and comodule-algebra axioms for one coaction, exactly.

    Verifies coassociativity and counitality per degree, multiplicativity
    over all algebra basis pairs inside the window, and the unit condition
    (membership of the unit's coefficients in the appropriate counital
    subalgebra).  Multiplicativity is wba.multiplicative_failures of the
    coaction, host leg first, so only nonzero coefficients, algebra
    products and host products are visited.
    """
    algebra = c.algebra
    max_degree = min(host.max_degree, algebra.max_degree, c.degrees())
    y = c.coefficients

    coassoc_fails = []
    counit_fails = []
    for d in range(max_degree + 1):
        coassoc, counit = _coalgebra_rows(host, algebra, d, y[d])
        coassoc_fails += coassoc
        counit_fails += counit

    # images[d][j] is the coaction of v_j as {(h, k): c}, the term c u_h (x) v_k:
    # sum_k y_jk (x) v_k on the left, sum_k y_kj (x) v_k on the right
    left = c.side == "left"
    images = [[{(h, k): ch for k in range(len(mat))
                for h, ch in (mat[j][k] if left else mat[k][j]).items() if ch}
               for j in range(len(mat))] for mat in y[:max_degree + 1]]
    mult_fails = wba.multiplicative_failures(algebra, lambda d, j: images[d][j], host,
                                             algebra, max_degree)

    unit_fails = []
    counital = wba.counital_subalgebra(host, "source" if left else "target")
    for k in range(algebra.dim(0)):
        coeff = mat_vec([row[k] for row in y[0]] if left else y[0][k], algebra.unit)
        if coeff and not counital.contains(coeff):
            unit_fails.append([algebra.label_of(0, k)])

    rows = [
        wba._row("coassociative", coassoc_fails, key="check"),
        wba._row("counital", counit_fails, key="check"),
        wba._row("multiplicative", mult_fails, key="check"),
        wba._row("unit-membership", unit_fails, key="check"),
    ]
    return {"passed": all(r["status"] == "pass" for r in rows), "checks": rows}


def check_transposed(lam, rho):
    """True iff the two coactions share one coefficient family entrywise."""
    if lam.side != "left" or rho.side != "right":
        raise ValueError("expected a (left, right) pair of coactions")
    if lam.algebra.labels != rho.algebra.labels:
        raise ValueError("coactions are over different algebra bases")
    if lam.degrees() != rho.degrees():
        return False
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

    rows = [
        wba._row("algebra-map", algebra_fails, key="check"),
        wba._row("bijective-onto-counital", bijective_fails, key="check"),
        wba._row("intertwines-coaction", intertwine_fails, key="check"),
    ]
    return {"passed": all(r["status"] == "pass" for r in rows), "checks": rows}


def _orthogonal_idempotent_rows(alg, rows):
    for i, u in enumerate(rows):
        for j, v in enumerate(rows):
            prod = alg.multiply(0, u, 0, v)
            want = u if i == j else {}
            if prod != want:
                return False
    return True


def search_base_iso(c, host):
    """Base-isomorphism search over primitive idempotent bijections.

    Requires both the degree-0 algebra basis and the canonical basis of the
    counital subalgebra to consist of orthogonal idempotents, the latter
    with pairwise disjoint supports (true for every split base handled
    here).  Then intertwining splits into one block per pair (k, j) of
    degree-0 basis elements: y0[k][j] (x) psi(e_j) (y0[j][k] on the right)
    against the terms of Delta(psi(e_k)) whose counital leg lies in the
    support of psi(e_j).  Vertices are assigned depth first, each to the
    lowest free counital basis row, so complete candidates come in
    lexicographic order; an assignment is dropped once a block among its
    assigned vertices fails, and verify_base_iso runs on each complete
    survivor.  Returns the first passing candidate with its verify_base_iso
    report, as (candidate, verification), or None.
    """
    algebra = c.algebra
    n0 = algebra.dim(0)
    if not _orthogonal_idempotent_rows(algebra, [{i: _ONE} for i in range(n0)]):
        raise UnsupportedShapeError(
            "degree-0 algebra basis is not a family of orthogonal idempotents")
    left = c.side == "left"
    counital = wba.counital_subalgebra(host, "target" if left else "source")
    basis = [dict(row) for row in counital.basis]
    if not _orthogonal_idempotent_rows(host, basis):
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

    assigned = []

    def extend():
        t = len(assigned)
        if t == n0:
            candidate = [basis[a] for a in assigned]
            verification = verify_base_iso(c, host, candidate)
            return (candidate, verification) if verification["passed"] else None
        for a in range(n0):
            if a in assigned:
                continue
            assigned.append(a)
            if all(block_holds(k, t, b, a) and block_holds(t, k, a, b)
                   for k, b in enumerate(assigned)):
                found = extend()
                if found is not None:
                    return found
            assigned.pop()
        return None

    return extend()


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

    for d in range(min(c.degrees(), 1) + 1):
        comult_fails, counit_fails = _coalgebra_rows(host, algebra, d, c.coefficients[d])
        rows.append(wba._row(f"degree{d}-comultiplicative", comult_fails, key="check"))
        rows.append(wba._row(f"degree{d}-counit", counit_fails, key="check"))

    # orthogonal[(i, j), (k, m)]: whether y_ij y_km = delta_ik delta_jm y_ij,
    # each product taken once for both orthogonality rows
    orthogonal = {((i, j), (k, m)): host.multiply(0, y0[i][j], 0, y0[k][m])
                  == (y0[i][j] if (i, j) == (k, m) else {})
                  for i in range(n0) for j in range(n0) for k in range(n0) for m in range(n0)}
    # left, shared column: y_{i,k} y_{j,k} = delta_{i,j} y_{i,k};
    # right, shared row: y_{k,i} y_{k,j} = delta_{i,j} y_{k,i}
    shared_column = c.side == "left"
    ortho_fails = []
    for k in range(n0):
        for i in range(n0):
            for j in range(n0):
                (a, b), (r, s) = ((i, k), (j, k)) if shared_column else ((k, i), (k, j))
                if not orthogonal[(a, b), (r, s)]:
                    ortho_fails.append([f"({a},{b})", f"({r},{s})"])
    rows.append(wba._row("column-orthogonality" if shared_column else "row-orthogonality",
                         ortho_fails, key="check"))

    absorb_fails = []
    if c.degrees() >= 1:
        y1 = c.coefficients[1]
        n1 = algebra.dim(1)
        for p in range(n1):
            sp, tp = c.arrow_endpoints[p]
            for q in range(n1):
                sq, tq = c.arrow_endpoints[q]
                left = host.multiply(0, y0[sp][sq], 1, y1[p][q])
                if left != y1[p][q]:
                    absorb_fails.append(["source", f"({p},{q})"])
                right = host.multiply(1, y1[p][q], 0, y0[tp][tq])
                if right != y1[p][q]:
                    absorb_fails.append(["target", f"({p},{q})"])
    rows.append(wba._row("endpoint-absorption", absorb_fails, key="check"))

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
    rows.append(wba._row("column-sums-idempotent-in-source", eta_fails, key="check"))
    rows.append(wba._row("row-sums-in-target", theta_fails, key="check"))

    unit_fails = [] if mat_vec(thetas, ones) == host.unit else [["unit decomposition"]]
    rows.append(wba._row("unit-decomposition", unit_fails, key="check"))

    full_ortho_fails = [[f"({i},{j})", f"({k},{m})"]
                        for ((i, j), (k, m)), ok in orthogonal.items() if not ok]
    rows.append(wba._row("coefficient-orthogonality", full_ortho_fails, key="check"))

    return {"passed": all(r["status"] == "pass" for r in rows), "checks": rows}
