"""Degree-truncated presentations of graded algebras and weak bialgebras.

A presentation tabulates structure constants up to a truncation degree:
products landing above the window are simply not stored, and every check
quantifies only over identities whose intermediate terms stay inside the
window, so all verdicts are exact.  The coproducts handled here preserve
degree in both tensor legs (matrix coalgebras per degree), which is what
face algebras and their biideal quotients provide.

In degree d the face algebra's basis element x[a;b] has index i_a*n + i_b,
where i_a and i_b index the n paths of length d in enumeration order.  The
product table stores nonzero products only, and the axiom and counital
checks visit only those, reaching them through indexes (products by left
or right factor, coproduct terms by first leg): they still quantify over
every basis pair.

Two identities are written once, for any degree-preserving map f into a
tensor product of two graded algebras, given by its images f(u_i):
multiplicative_failures checks f(uv) = f(u)f(v), for the coproduct here and
for a coaction in coaction, and project_image computes (pi (x) pi')f(u), for
the biideal check, the quotient's coproduct and the descent of a coaction.
"""

from math import isqrt

from . import quiver as qv
from .errors import VerificationError
from .linalg import Echelon, bump, divided, int_row

_ONE = 1


class GradedAlgebra:
    """Structure constants of a graded algebra, truncated at max_degree.

    product maps (d, i, e, j) to the coordinate dict of u^d_i u^e_j in
    degree d+e; pairs that multiply to zero are absent, and entries are
    read-only (one may be shared by several keys).  unit is a degree-0
    coordinate dict.  The product table must not change once the object
    is built: its index by left factor, products_by_left(), is built on
    the first request and then kept, and so is int_products().
    """

    def __init__(self, max_degree, labels, product, unit):
        self.max_degree = max_degree
        self.labels = [list(row) for row in labels]
        self.product = product
        self.unit = dict(unit)
        self._by_left = None
        self._int_products = None

    def dim(self, d):
        return len(self.labels[d])

    def dims(self):
        return [len(row) for row in self.labels]

    def label_of(self, d, i):
        return self.labels[d][i]

    def product_of(self, d, i, e, j):
        return self.product.get((d, i, e, j), {})

    def multiply(self, d, u, e, v):
        """Product of coordinate dicts u (degree d) and v (degree e)."""
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                entry = self.product.get((d, i, e, j))
                if not entry:
                    continue
                ab = a * b
                for m, c in entry.items():
                    bump(out, m, ab * c)
        return out

    def products_by_left(self):
        """The product table as {(d, e): {i: {j: entry}}}, built once and kept.

        Callers must not change it.
        """
        if self._by_left is None:
            self._by_left = _products_by_left(self.product)
        return self._by_left

    def int_products(self):
        """True iff every product constant is an int; found once and then kept."""
        if self._int_products is None:
            self._int_products = {type(c) for e in self.product.values() for c in e.values()} <= {int}
        return self._int_products


class GradedWBA(GradedAlgebra):
    """A graded algebra plus degree-preserving coproduct and counit tables.

    coproduct maps (d, i) to a dict {(j, k): scalar} describing a sum of
    u^d_j (x) u^d_k; counit maps (d, i) to its scalar value.  Both tables
    store nonzero data only.  The tables must not change once the object
    is built: derived data is computed once and kept, the counital
    subalgebras in counital_subalgebras, the eps(u_i u_j) table behind
    eps_products(), and in coalgebra_rows the coassociativity and counit
    witnesses of coaction coefficient arrays, which the coaction checks
    key by degree and array content.
    """

    def __init__(self, max_degree, labels, product, unit, coproduct, counit):
        super().__init__(max_degree, labels, product, unit)
        self.coproduct = coproduct
        self.counit = counit
        self.counital_subalgebras = {}
        self.coalgebra_rows = {}
        self._eps_products = None

    def coproduct_of(self, d, i):
        return self.coproduct.get((d, i), {})

    def counit_of(self, d, i):
        return self.counit.get((d, i), 0)

    def delta(self, d, u):
        """Coproduct of a coordinate dict, as a read-only {(j, k): scalar}."""
        return image_of(self.coproduct_of, d, u)

    def eps(self, d, u):
        total = 0
        for i, a in u.items():
            e = self.counit.get((d, i))
            if e:
                total += a * e
        return total

    def delta_one(self):
        return self.delta(0, self.unit)

    def eps_products(self):
        """eps(u_i u_j) per degree pair, from one pass over the product table.

        The table is {(d, e): {(i, j): scalar}} with nonzero values only,
        built on the first request and then kept; callers must not change it.
        """
        if self._eps_products is None:
            self._eps_products = _eps_matrices(self)
        return self._eps_products


def path_algebra_presentation(q, max_degree):
    """kQ as a graded algebra on the per-degree path bases, degrees without paths skipped."""
    bases = [qv.enumerate_paths(q, d) for d in range(max_degree + 1)]
    index = [{p: i for i, p in enumerate(b)} for b in bases]
    labels = [[q.path_label(p) for p in b] for b in bases]
    product = {}
    degrees = [d for d in range(max_degree + 1) if bases[d]]
    for d in degrees:
        for e in [e for e in degrees if d + e <= max_degree]:
            tgt = index[d + e]
            for i, p in enumerate(bases[d]):
                for j, r in enumerate(bases[e]):
                    pr = qv.compose_paths(q, p, r)
                    if pr is not None:
                        product[(d, i, e, j)] = {tgt[pr]: _ONE}
    unit = {i: _ONE for i in range(len(bases[0]))}
    return GradedAlgebra(max_degree, labels, product, unit)


def face_algebra(q, max_degree):
    """The face algebra's labels, product and unit on the faceBasis order.

    Index arithmetic on x[a;b] -> i_a*n + i_b over one path-composition table
    per pair of degrees that have paths, so only composable pairs are visited.
    For the coproduct and counit as well, use from_face_algebra.
    """
    paths = [qv.enumerate_paths(q, d) for d in range(max_degree + 1)]
    sizes = [len(p) for p in paths]
    # keys reuse one int object per basis index instead of a fresh int per key
    ids = [list(range(n * n)) for n in sizes]
    # products landing on one basis element share its (read-only) unit vector
    units = [[{i: _ONE} for i in idd] for idd in ids]
    labels = []
    for d in range(max_degree + 1):
        names = [q.path_label(p) for p in paths[d]]
        labels.append([f"x[{a};{b}]" for a in names for b in names])
    product = {}
    degrees = [d for d in range(max_degree + 1) if sizes[d]]
    for d in degrees:
        for e in [e for e in degrees if d + e <= max_degree]:
            nd, ne, nf = sizes[d], sizes[e], sizes[d + e]
            target = {p: i for i, p in enumerate(paths[d + e])}
            # compose[a] lists (c, index of a.c) over the paths c that a composes with
            compose = [[(c, target[ar]) for c, r in enumerate(paths[e])
                        if (ar := qv.compose_paths(q, a, r)) is not None] for a in paths[d]]
            for i in range(nd * nd):
                left, right = compose[i // nd], compose[i % nd]
                for c, ac in left:
                    for k, bk in right:
                        product[(d, ids[d][i], e, ids[e][c * ne + k])] = units[d + e][ac * nf + bk]
    unit = {i: _ONE for i in ids[0]}
    return GradedAlgebra(max_degree, labels, product, unit)


def from_face_algebra(q, max_degree):
    """The face algebra of a quiver as a weak bialgebra.

    face_algebra's labels, product and unit, plus the matrix coproduct
    Delta(x[a;b]) = sum_m x[a;m] (x) x[m;b] and the counit
    eps(x[a;b]) = delta_ab, both by index arithmetic.
    """
    alg = face_algebra(q, max_degree)
    coproduct = {}
    counit = {}
    for d in range(max_degree + 1):
        n = isqrt(alg.dim(d))
        idd = list(range(n * n))  # one int object per basis index, as in face_algebra
        # rows[a] lists x[a;m] and cols[b] lists x[m;b], over m in order
        rows = [idd[a * n:(a + 1) * n] for a in range(n)]
        cols = [idd[b::n] for b in range(n)]
        for a in range(n):
            for b in range(n):
                i = idd[a * n + b]
                coproduct[(d, i)] = dict.fromkeys(zip(rows[a], cols[b]), _ONE)
                if a == b:
                    counit[(d, i)] = _ONE
    return GradedWBA(max_degree, alg.labels, alg.product, alg.unit, coproduct, counit)


def _eps_matrices(w):
    """eps(u_i u_j) per degree pair, stored sparsely from the product table."""
    eps = {}
    for (d, i, e, j), entry in w.product.items():
        val = w.eps(d + e, entry)
        if val:
            eps.setdefault((d, e), {})[(i, j)] = val
    return eps


def _products_by_left(product):
    """A product table as {(d, e): {i: {j: entry}}}."""
    rows = {}
    for (d, i, e, j), entry in product.items():
        rows.setdefault((d, e), {}).setdefault(i, {})[j] = entry
    return rows


def image_of(image, d, u):
    """f(u) for a coordinate dict u of degree d, as a read-only {(p, q): scalar}.

    f maps degree d into a tensor product of two degree-d pieces, and
    image(d, i) is f(u_i) with nonzero terms only.  A lone basis element
    with coefficient 1 gets image(d, i) itself.
    """
    if len(u) == 1:
        (i, a), = u.items()
        if a == 1:
            return image(d, i)
    out = {}
    for i, a in u.items():
        for pair, c in image(d, i).items():
            bump(out, pair, a * c)
    return out


def _flatten(rows):
    """products_by_left rows with each product entry as a tuple of (m, c) pairs."""
    return {p: {r: tuple(entry.items()) for r, entry in row.items()} for p, row in rows.items()}


def multiplicative_failures(src, image, left, right, max_degree):
    """Basis pairs (u_i, u_j) of src with f(u_i u_j) != f(u_i) f(u_j).

    f is a degree-preserving map from src into left (x) right, given by
    image as in image_of: Delta is (w, w.coproduct_of, w, w), a coaction
    is (algebra, its images with the host leg first, host, algebra).
    Visits only nonzero products, in the degrees where src has a basis: per
    degree pair, f(u_i) f(u_j) is built for all j at once, each nonzero
    left-leg product u_p u_r meeting only the terms (r, s) of the images
    f(u_j) whose left leg is r.  Product entries of both legs (of one, when
    right is left) and image terms are flattened to tuples once per degree
    pair, and cancelled terms are dropped before the comparison with
    image_of(f(u_i u_j)).
    """
    src_rows = src.products_by_left()
    left_rows = left.products_by_left()
    right_rows = right.products_by_left()
    fails = []
    degrees = [d for d in range(max_degree + 1) if src.dim(d)]
    for d in degrees:
        terms = [tuple(image(d, i).items()) for i in range(src.dim(d))]
        for e in [e for e in degrees if d + e <= max_degree]:
            f = d + e
            prod = src_rows.get((d, e), {})
            # flat_l[p] maps r to the terms of u_p u_r in left as (m, c) pairs
            flat_l = _flatten(left_rows.get((d, e), {}))
            flat_r = flat_l if right is left else _flatten(right_rows.get((d, e), {}))
            first_legs = {}
            for j in range(src.dim(e)):
                for (r, s), c in image(e, j).items():
                    first_legs.setdefault(r, []).append((j, s, c))
            for i in range(src.dim(d)):
                rhs = {}
                for (p, qq), c1 in terms[i]:
                    left_row = flat_l.get(p)
                    right_row = flat_r.get(qq)
                    if not left_row or not right_row:
                        continue
                    for r, lterms in left_row.items():
                        for j, s, c2 in first_legs.get(r, ()):
                            rterms = right_row.get(s)
                            if not rterms:
                                continue
                            out = rhs.setdefault(j, {})
                            c12 = c1 * c2
                            for m, cm in lterms:
                                c12m = c12 * cm
                                for n, cn in rterms:
                                    key = (m, n)
                                    out[key] = out.get(key, 0) + c12m * cn
                row = prod.get(i, {})
                for j in sorted(row.keys() | rhs.keys()):
                    out = rhs.get(j, {})
                    if not all(out.values()):
                        out = {key: c for key, c in out.items() if c}
                    if image_of(image, f, row.get(j, {})) != out:
                        fails.append([src.label_of(d, i), src.label_of(e, j)])
    return fails


def project_image(image, d, u, left, right):
    """(pi (x) pi')f(u) for a coordinate dict u of degree d, as (table, denom).

    f is given by image as in image_of; left and right are the two legs'
    linalg.Projection objects.  The projection is table / denom, with
    denom the product of the legs' denominators and cancelled terms
    dropped: a zero test reads table alone, in ints when u and the images
    are, and linalg.divided gives the values.  Sums the terms of the images
    term by term, without building f(u).
    """
    left_rows, right_rows = left.rows, right.rows
    out = {}
    for i, a in u.items():
        for (j, k), c in image(d, i).items():
            rj = left_rows[j]
            rk = right_rows[k]
            if not rj or not rk:
                continue
            ac = a * c
            for m, cm in rj.items():
                acm = ac * cm
                for n, cn in rk.items():
                    key = (m, n)
                    out[key] = out.get(key, 0) + acm * cn
    if not all(out.values()):
        out = {key: c for key, c in out.items() if c}
    return out, left.denom * right.denom


def _failures_counit_splits(w):
    eps = w.eps_products()
    by_col = {}
    by_row = {}
    for (d, e), mat in eps.items():
        col = by_col.setdefault((d, e), {})
        row = by_row.setdefault((d, e), {})
        for (i, j), val in mat.items():
            col.setdefault(j, []).append((i, val))
            row.setdefault(i, []).append((j, val))
    # by_right[(d, e)][b] lists (a, u_a u_b) over the nonzero products
    by_right = {}
    for (d, a, e, b), entry in w.product.items():
        by_right.setdefault((d, e), {}).setdefault(b, []).append((a, entry))
    fails12 = []
    fails21 = []
    # a degree with no basis elements has nothing to check at any place of a triple
    degrees = [d for d in range(w.max_degree + 1) if w.dim(d)]
    for d in degrees:
        for e in degrees:
            if d + e > w.max_degree:
                break
            products = by_right.get((d, e), {})
            for f in degrees:
                if d + e + f > w.max_degree:
                    break
                e1col = by_col.get((d, e), {})
                e2row = by_row.get((e, f), {})
                e3row = by_row.get((d + e, f), {})
                for b in range(w.dim(e)):
                    lhs = {}
                    for a, entry in products.get(b, ()):
                        for m, cm in entry.items():
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
                        a, c = _first_mismatch(lhs, rhs12)
                        fails12.append([w.label_of(d, a), w.label_of(e, b), w.label_of(f, c)])
                    if lhs != rhs21:
                        a, c = _first_mismatch(lhs, rhs21)
                        fails21.append([w.label_of(d, a), w.label_of(e, b), w.label_of(f, c)])
    return fails12, fails21


def _first_mismatch(lhs, rhs):
    keys = sorted(set(lhs) | set(rhs))
    for key in keys:
        if lhs.get(key) != rhs.get(key):
            return key
    raise AssertionError("called on equal tables")


def _failures_unit_splits(w):
    d1 = w.delta_one()
    lhs = {}
    for (i, k), c in d1.items():
        for (m, n), cc in w.coproduct_of(0, i).items():
            bump(lhs, (m, n, k), c * cc)
    right_one = [w.multiply(0, {i: _ONE}, 0, w.unit) for i in range(w.dim(0))]
    left_one = [w.multiply(0, w.unit, 0, {i: _ONE}) for i in range(w.dim(0))]

    def _triple(leg1_of, mid_of, leg3_of):
        out = {}
        for (i, j), c1 in d1.items():
            for (k, m), c2 in d1.items():
                c12 = c1 * c2
                leg1 = leg1_of(i)
                leg3 = leg3_of(m)
                for n, cn in mid_of(j, k).items():
                    for a, ca in leg1.items():
                        for b, cb in leg3.items():
                            bump(out, (a, n, b), c12 * cn * ca * cb)
        return out

    # (Delta(1) (x) 1)(1 (x) Delta(1)): legs u_i*1, u_j*u_k, 1*u_m
    split12 = _triple(lambda i: right_one[i],
                      lambda j, k: w.product_of(0, j, 0, k),
                      lambda m: left_one[m])
    # (1 (x) Delta(1))(Delta(1) (x) 1): legs 1*u_i, u_k*u_j, u_m*1
    split21 = _triple(lambda i: left_one[i],
                      lambda j, k: w.product_of(0, k, 0, j),
                      lambda m: right_one[m])
    fails12 = [] if lhs == split12 else [["1"]]
    fails21 = [] if lhs == split21 else [["1"]]
    return fails12, fails21


def check_axioms(w):
    """Weak-bialgebra compatibility report over the truncation window.

    Covers coproduct multiplicativity, the two weak counit identities, and
    the two split forms of coassociativity of the unit.  Failures carry up
    to three witness tuples of basis labels.
    """
    f12, f21 = _failures_counit_splits(w)
    g12, g21 = _failures_unit_splits(w)
    rows = [
        _row("delta-multiplicative",
             multiplicative_failures(w, w.coproduct_of, w, w, w.max_degree)),
        _row("counit-product-split-12", f12),
        _row("counit-product-split-21", f21),
        _row("unit-coproduct-split-12", g12),
        _row("unit-coproduct-split-21", g21),
    ]
    return {"passed": all(r["status"] == "pass" for r in rows), "checks": rows}


def _row(name, failures, key="axiom"):
    return {
        key: name,
        "status": "pass" if not failures else "fail",
        "witnesses": failures[:3],
    }


def counital_subalgebra(w, side):
    """Canonical degree-0 subspace spanned by counital images of all basis elements.

    With Delta(1) = sum c u_i (x) u_j, the source image of u_v is
    sum c eps(u_v u_j) u_i and the target image is sum c eps(u_i u_v) u_j,
    read off w.eps_products().  The first request computes both sides from
    one Delta(1) and keeps them on w.
    """
    if side not in ("source", "target"):
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
    if side not in w.counital_subalgebras:
        split = w.delta_one()
        eps = w.eps_products()
        for source in (True, False):
            ech = Echelon(w.dim(0))
            for d in range(w.max_degree + 1):
                table = eps.get((d, 0) if source else (0, d), {})
                for v in sorted({key[0] if source else key[1] for key in table}):
                    vec = {}
                    for (i, j), c in split.items():
                        val = table.get((v, j) if source else (i, v))
                        if val:
                            bump(vec, i if source else j, c * val)
                    if vec:
                        ech.add(vec)
            w.counital_subalgebras["source" if source else "target"] = ech.finalize()
    return w.counital_subalgebras[side]


class BiidealGens:
    """Homogeneous generators of a prospective biideal inside a host presentation.

    Generators are (degree, coordinate dict) pairs on the host's basis of
    that degree, or ValueError; zero and repeated generators are dropped,
    in first-seen order.  Graded pieces and ranks need only the host's
    product (a GradedAlgebra will do); check_biideal and quotient_wba need
    a GradedWBA, and share the projected coproducts of the coset columns
    (see _coset_coproduct).
    """

    def __init__(self, host, generators):
        self.host = host
        gens = []
        seen = set()
        for d, vec in generators:
            vec = {i: c for i, c in vec.items() if c}
            if not vec:
                continue
            if not (0 <= d <= host.max_degree and all(0 <= i < host.dim(d) for i in vec)):
                raise ValueError(f"generator {vec} is not a degree-{d} coordinate row of the host")
            key = (d, tuple(sorted(vec.items())))
            if key in seen:
                continue
            seen.add(key)
            gens.append((d, vec))
        self.generators = tuple(gens)
        self._pieces = {}
        self._echelons = {}  # forward-reduced pieces not yet finalized
        self._coset_coproducts = {}  # degree -> {coset column m: (pi (x) pi)Delta(u_m)}


def _spread(b, d):
    """The degree-d piece as a forward-reduced Echelon, kept on b until finalized.

    Adds the closure products z g z' of the degree-d generators and spreads
    the finalized degree-(d-1) basis, as biideal_graded_pieces describes.
    Each generator is scaled by int_row first, so on a host with int
    constants every product is an int row and enters by Echelon.add_ints.
    """
    if d in b._echelons:
        return b._echelons[d]
    w = b.host
    if d > w.max_degree:
        raise ValueError(f"degree {d} exceeds the host truncation {w.max_degree}")
    ech = Echelon(w.dim(d))
    add = ech.add_ints if w.int_products() else ech.add
    basis0 = [{z: _ONE} for z in range(w.dim(0))]
    for g in [int_row(vec) for gd, vec in b.generators if gd == d]:
        for z in basis0:
            zg = w.multiply(0, z, d, g)
            if not zg:
                continue
            for z2 in basis0:
                zgz = w.multiply(d, zg, 0, z2)
                if zgz:
                    add(zgz)
    if d >= 1:
        prev = biideal_graded_pieces(b, d - 1)
        for row in map(int_row, prev.basis):
            for a in range(w.dim(1)):
                arrow = {a: _ONE}
                left = w.multiply(1, arrow, d - 1, row)
                if left:
                    add(left)
                right = w.multiply(d - 1, row, 1, arrow)
                if right:
                    add(right)
    b._echelons[d] = ech
    return ech


def biideal_rank(b, d):
    """Dimension of the degree-d piece, from forward elimination alone.

    The Echelon stays on b, so a later biideal_graded_pieces(b, d)
    finalizes it instead of eliminating again.  Degrees below d are
    finalized, since spreading reads their canonical bases.
    """
    if d in b._pieces:
        return b._pieces[d].dim
    return _spread(b, d).rank


def quotient_dims(b, max_degree):
    """dim H_d - dim I_d for d = 0..max_degree, from biideal_rank."""
    return [b.host.dim(d) - biideal_rank(b, d) for d in range(max_degree + 1)]


def biideal_graded_pieces(b, d):
    """Degree-d piece of the two-sided ideal generated by b, as a Subspace.

    The span of H_0 g H_0 over the degree-d generators g, plus one-step
    spanning from the finalized degree-(d-1) basis by all degree-1 basis
    elements on both sides; complete because the hosts here are generated
    in degrees 0 and 1.  The unit lies in H_0, so H_0 g H_0 is the span of
    the products z g z' over the degree-0 basis, taken once each, and it
    contains g.  The spread part H_1 I_{d-1} + I_{d-1} H_1 is already
    H_0-stable, as z(ar) = (za)r and z(ra) = (zr)a with za in H_1 and zr in
    I_{d-1}, and likewise on the right.  Finalizes the Echelon that
    biideal_rank(b, d) left on b, if there is one, and keeps the piece on b.
    """
    if d not in b._pieces:
        b._pieces[d] = _spread(b, d).finalize()
        del b._echelons[d]
    return b._pieces[d]


def _coset_coproduct(b, d, m):
    """(pi (x) pi)Delta(u_m) for a coset column m of the degree-d piece, times D*D.

    D is the piece's projection denominator, and the table is project_image's,
    in ints on an int host.  Projected on the first request and then kept on
    b, so check_biideal and quotient_wba project each coset column once;
    quotient_wba drops a degree's tables once it has divided them.
    """
    memo = b._coset_coproducts.setdefault(d, {})
    table = memo.get(m)
    if table is None:
        proj = biideal_graded_pieces(b, d).projection()
        table = memo[m] = project_image(b.host.coproduct_of, d, {m: _ONE}, proj, proj)[0]
    return table


def check_biideal(b, max_degree):
    """Counit vanishing and coproduct descent for every graded piece ≤ max_degree.

    A canonical row, scaled by int_row to a_p e_p + sum_m a_m e_m with pivot
    p and coset columns m, descends iff a_p P_p = -sum_m a_m P_m, where P_i
    is (pi (x) pi)Delta(u_i) times D*D: an exact comparison of int tables.
    Each P_m comes from _coset_coproduct; P_p is projected here, once, since
    every pivot belongs to one row.
    """
    w = b.host
    if max_degree > w.max_degree:
        raise ValueError(f"cannot check beyond the host truncation {w.max_degree}")
    pieces = [biideal_graded_pieces(b, d) for d in range(max_degree + 1)]
    coset = lambda d, m: _coset_coproduct(b, d, m)
    eps_fails = []
    delta_fails = []
    for d in range(max_degree + 1):
        piece = pieces[d]
        if not piece.dim:
            continue
        proj = piece.projection()
        for r, (p, row) in enumerate(zip(piece.pivots, piece.basis)):
            if w.eps(d, row):
                eps_fails.append(f"degree {d}, piece row {r}")
            rest = int_row(row)
            lead = {p: rest.pop(p)}
            if (project_image(w.coproduct_of, d, lead, proj, proj)[0]
                    != image_of(coset, d, {m: -a for m, a in rest.items()})):
                delta_fails.append(f"degree {d}, piece row {r}")
    rows = [
        _row("counit-vanishes", eps_fails, key="check"),
        _row("coproduct-descends", delta_fails, key="check"),
    ]
    return {"passed": not (eps_fails or delta_fails), "checks": rows}


def quotient_wba(b, report=None):
    """Quotient presentation on the non-pivot coset basis of each graded piece.

    Refuses (with the failing report attached) unless the biideal check
    passes up to the host truncation.  Labels name coset representatives;
    the coproduct divides _coset_coproduct's tables, which the check filled,
    and then drops them from b: with D = 1 they are the quotient's own.
    """
    w = b.host
    if report is None:
        report = check_biideal(b, w.max_degree)
    if not report["passed"]:
        raise VerificationError("biideal verification failed; not a quotient weak bialgebra",
                                report)
    projs = [biideal_graded_pieces(b, d).projection() for d in range(w.max_degree + 1)]
    labels = [[w.labels[d][m] for m in projs[d].cols] for d in range(w.max_degree + 1)]
    product = {}
    for d in range(w.max_degree + 1):
        for e in range(w.max_degree + 1 - d):
            for i, mi in enumerate(projs[d].cols):
                for j, mj in enumerate(projs[e].cols):
                    entry = w.product_of(d, mi, e, mj)
                    if not entry:
                        continue
                    img = projs[d + e].image(entry)
                    if img:
                        product[(d, i, e, j)] = img
    unit = projs[0].image(w.unit)
    coproduct = {}
    counit = {}
    for d in range(w.max_degree + 1):
        denom = projs[d].denom
        for i, mi in enumerate(projs[d].cols):
            entry = divided(_coset_coproduct(b, d, mi), denom * denom)
            if entry:
                coproduct[(d, i)] = entry
            ev = w.counit_of(d, mi)
            if ev:
                counit[(d, i)] = ev
        b._coset_coproducts.pop(d, None)
    return GradedWBA(w.max_degree, labels, product, unit, coproduct, counit)
