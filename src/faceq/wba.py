"""Degree-truncated presentations of graded algebras and weak bialgebras.

A presentation tabulates structure constants up to a truncation degree:
products landing above the window are simply not stored, and every check
quantifies only over identities whose intermediate terms stay inside the
window, so all verdicts are exact.  The coproducts handled here preserve
degree in both tensor legs (matrix coalgebras per degree), which is what
face algebras and their biideal quotients provide.

h(Q) is the Segre square of kQ, the one table built from the quiver's
paths: in degree d, x[a;b] has index i_a*n + i_b over the n paths of
length d in kQ's order, and face_algebra squares kQ's products.  The
product table stores nonzero products only, and the axiom and counital
checks visit only those, reaching them through indexes (products by left
factor, coproduct terms by first or second leg): they still quantify over
every basis pair.

One identity is written once, for any degree-preserving map f into a
tensor product of two graded algebras, given by its images f(u_i):
multiplicative_failures checks f(uv) = f(u)f(v), for the coproduct here and
for a coaction in coaction.  It pre-joins its legs inside each call: every
term of a left-leg product is paired once with the image terms that start
at its right factor, so the inner loop is one membership test per miss.
The algebras here are generated in degrees 0 and 1, so a passing map is
proven on the generator pairs alone (left factors of degree 1, and of
degree 0 with right factors of degree 0 or 1) once two premises hold on
source and targets, computed once per presentation: every degree d >= 2
is spanned by the products of degree 1 and degree d-1, and
(g x) y = g (x y) for every g of degree 1 and (z g) x = z (g x) for every
z of degree 0 and g of degree 1, with x of degree >= 1 (two inductions,
see multiplicative_failures).  This associativity is a premise, not a report
row; when it or the spanning fails, or a generator pair fails, every pair
is checked, so a failing report keeps every witness.
h(Q)'s own Delta needs no join: kQ's paths factor uniquely, which makes
it multiplicative on the whole window (see FaceWBA), so h(Q) is born with
delta_failures = [], while quotients and copies are checked by the join.
Two-leg maps (L (x) R)(t) go through linalg.apply_legs: the weak-counit
splits, which read each basis element's coproduct once, and the projected
coproducts (pi (x) pi)Delta of the biideal check (_descends) and the
quotient.  Every coproduct is read through coproduct_of, which h(Q)
(FaceWBA) serves by index arithmetic, Delta(x[a;b]) = sum_k x[a;k] (x) x[k;b],
with no table.  The weak-unit splits are a join that pairs only terms with
a nonzero product.
"""

from functools import cached_property

from . import quiver as qv
from .errors import VerificationError
from .linalg import Echelon, apply_legs, bump, divided, int_row

_ONE = 1
# witnesses kept per failing report row
WITNESSES = 3


class GradedAlgebra:
    """Structure constants of a graded algebra, truncated at max_degree.

    product maps (d, i, e, j) to the coordinate dict of u^d_i u^e_j in
    degree d+e; pairs that multiply to zero are absent, and entries are
    read-only (one may be shared by several keys).  unit is a degree-0
    coordinate dict.  The product table must not change once the object
    is built, so what is derived from it, its index by left factor
    products_by_left and the flags int_products and generator_reducible,
    are cached properties.
    """

    def __init__(self, max_degree, labels, product, unit):
        self.max_degree = max_degree
        self.labels = [list(row) for row in labels]
        self.product = product
        self.unit = dict(unit)

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

    @cached_property
    def products_by_left(self):
        """The product table as {(d, e): {i: {j: entry}}}; callers must not change it."""
        return _products_by_left(self.product)

    @cached_property
    def int_products(self):
        """True iff every product constant is an int."""
        return {type(c) for e in self.product.values() for c in e.values()} <= {int}

    @cached_property
    def generator_reducible(self):
        """True iff each degree d >= 2 is spanned by the products of degree 1
        and degree d-1, (g x) y = g (x y) for every g of degree 1 and x of
        degree >= 1, and (z g) x = z (g x) for every z of degree 0, g of
        degree 1 and x of degree >= 1.

        Stores only the bool; multiplicative_failures and the comodule
        check read it as the premise of their early exits.
        """
        return _spanned_from_degree_one(self) and _generator_associative(self)


class GradedWBA(GradedAlgebra):
    """A graded algebra plus degree-preserving coproduct and counit tables.

    coproduct maps (d, i) to a dict {(j, k): scalar} describing a sum of
    u^d_j (x) u^d_k, read through coproduct_of alone (which FaceWBA
    computes instead); counit maps (d, i) to its scalar value.  Both tables
    store nonzero data only.  The tables must not change once the object
    is built, so the eps(u_i u_j) table eps_products, the
    counital_subalgebras and the coproduct's multiplicativity failures
    delta_failures are cached properties; coalgebra_rows keeps the
    coassociativity and counit witnesses of coaction coefficient arrays,
    which the coaction checks key by row, degree and array content.
    """

    def __init__(self, max_degree, labels, product, unit, coproduct, counit):
        super().__init__(max_degree, labels, product, unit)
        self.coproduct = coproduct
        self.counit = counit
        self.coalgebra_rows = {}

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

    @cached_property
    def delta_failures(self):
        """The basis pairs where Delta is not multiplicative, as check_axioms reports them."""
        return multiplicative_failures(self, self.coproduct_of, self, self, self.max_degree)

    def delta_known_multiplicative(self):
        """True iff delta_failures has been computed and is empty; never computes it."""
        return self.__dict__.get("delta_failures") == []

    @cached_property
    def eps_products(self):
        """eps(u_i u_j) per degree pair, from one pass over the product table.

        The table is {(d, e): {(i, j): scalar}} with nonzero values only;
        callers must not change it.
        """
        return _eps_matrices(self)

    @cached_property
    def counital_subalgebras(self):
        """{side: canonical degree-0 subspace spanned by the side's counital images}.

        With Delta(1) = sum c u_i (x) u_j, the source image of u_v is
        sum c eps(u_v u_j) u_i and the target image is sum c eps(u_i u_v) u_j,
        read off eps_products; both sides come from one Delta(1).
        """
        split = self.delta_one()
        eps = self.eps_products
        subspaces = {}
        for source in (True, False):
            ech = Echelon(self.dim(0))
            for d in range(self.max_degree + 1):
                table = eps.get((d, 0) if source else (0, d), {})
                for v in sorted({key[0] if source else key[1] for key in table}):
                    vec = {}
                    for (i, j), c in split.items():
                        val = table.get((v, j) if source else (i, v))
                        if val:
                            bump(vec, i if source else j, c * val)
                    if vec:
                        ech.add(vec)
            subspaces["source" if source else "target"] = ech.finalize()
        return subspaces


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


def face_algebra(kq):
    """The face algebra's labels, product and unit: x[a;b] x[c;k] = x[ac;bk],
    by index arithmetic over kq's products by left factor, at kq's truncation.
    For the coproduct and counit as well, use from_face_algebra.
    """
    max_degree = kq.max_degree
    sizes = kq.dims()
    # keys reuse one int object per basis index instead of a fresh int per key
    ids = [list(range(n * n)) for n in sizes]
    # products landing on one basis element share its (read-only) unit vector
    units = [[{i: _ONE} for i in idd] for idd in ids]
    labels = [[f"x[{a};{b}]" for a in names for b in names] for names in kq.labels]
    by_left = kq.products_by_left
    product = {}
    degrees = [d for d in range(max_degree + 1) if sizes[d]]
    for d in degrees:
        for e in [e for e in degrees if d + e <= max_degree]:
            nd, ne, nf = sizes[d], sizes[e], sizes[d + e]
            rows = by_left.get((d, e), {})
            # compose[a] lists (c, index of a.c) over the paths c that a composes with
            compose = [[(c, *entry) for c, entry in rows.get(a, {}).items()] for a in range(nd)]
            for i in range(nd * nd):
                left, right = compose[i // nd], compose[i % nd]
                for c, ac in left:
                    for k, bk in right:
                        product[(d, ids[d][i], e, ids[e][c * ne + k])] = units[d + e][ac * nf + bk]
    unit = {i: _ONE for i in ids[0]}
    return GradedAlgebra(max_degree, labels, product, unit)


def from_face_algebra(kq):
    """The face algebra of a quiver as a weak bialgebra, from its path algebra kq.

    face_algebra's labels, product and unit, plus the matrix coproduct
    Delta(x[a;b]) = sum_m x[a;m] (x) x[m;b] and the counit
    eps(x[a;b]) = delta_ab, both by index arithmetic over kQ's dims, and
    whether kQ's paths factor uniquely (_factors_uniquely), which proves
    Delta multiplicative (see FaceWBA).
    """
    return FaceWBA(face_algebra(kq), kq.dims(), _factors_uniquely(kq))


def _factors_uniquely(kq):
    """True iff for all degrees d, e with a basis and d + e in the window,
    every nonzero product u_i u_j of degrees (d, e) is one basis element
    with coefficient 1, and each degree-(d+e) basis element is the product
    of exactly one such pair (i, j).

    One pass over kq.products_by_left, at most sum n_d n_e entries.  It
    holds on every path algebra: a path of length d + e is its first d
    arrows times its last e, and nothing else.
    """
    rows = kq.products_by_left
    degrees = [d for d in range(kq.max_degree + 1) if kq.dim(d)]
    for d in degrees:
        for e in [e for e in degrees if d + e <= kq.max_degree]:
            hit = [False] * kq.dim(d + e)
            for row in rows.get((d, e), {}).values():
                for entry in row.values():
                    if len(entry) != 1:
                        return False
                    (m, c), = entry.items()
                    if c != 1 or hit[m]:
                        return False
                    hit[m] = True
            if not all(hit):
                return False
    return True


class FaceWBA(GradedWBA):
    """h(Q) as a GradedWBA; path_counts[d] is n_d, kQ's number of paths of length d.

    The counit is a table from the start.  The coproduct is not a table:
    coproduct_of computes Delta(x[a;b]) from the index a n_d + b, and the
    inherited delta reads it there.

    When kQ's paths factor uniquely (factors_uniquely, from
    _factors_uniquely), Delta is multiplicative on the whole window, and
    delta_failures is [] from construction, without the join.  For
    x[a;b] x[c;k] = x[ac;bk], with m, m' over kQ's bases of degrees d, e and
    M, M' over degree d + e,
        Delta(x[a;b]) Delta(x[c;k]) = sum_{m,m'} x[ac;mm'] (x) x[mm';bk]
            = sum_{M,M'} (sum_{m,m'} [mm' = M][mm' = M']) x[ac;M] (x) x[M';bk],
    and unique factorization makes the inner sum delta_{MM'}, which leaves
    sum_M x[ac;M] (x) x[M;bk] = Delta(x[ac;bk]); where ac or bk is zero,
    both sides are.  The proof reads the tables as from_face_algebra built
    them, which a presentation never changes; a copy with its own tables
    (a GradedWBA) is checked by the join, as every quotient is.
    """

    def __init__(self, alg, path_counts, factors_uniquely):
        GradedAlgebra.__init__(self, alg.max_degree, alg.labels, alg.product, alg.unit)
        self.path_counts = path_counts
        self.counit = {(d, a * n + a): _ONE for d, n in enumerate(path_counts) for a in range(n)}
        self.coalgebra_rows = {}
        if factors_uniquely:
            # the cached property's value, proven above
            self.delta_failures = []

    def coproduct_of(self, d, i):
        """Delta(x[a;b]) = sum_m x[a;m] (x) x[m;b] for u^d_i = x[a;b], m in order."""
        n = self.path_counts[d]
        a, b = divmod(i, n)
        return {(a * n + m, m * n + b): _ONE for m in range(n)}


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


def _spanned_from_degree_one(alg):
    """True iff each degree d >= 2 is spanned by the products of degree 1 and degree d-1.

    One Echelon per degree takes the product entries until it reaches full rank.
    """
    rows = alg.products_by_left
    for d in range(2, alg.max_degree + 1):
        n = alg.dim(d)
        ech = Echelon(n)
        for row in rows.get((1, d - 1), {}).values():
            for entry in row.values():
                if ech.rank == n:
                    break
                ech.add(entry)
        if ech.rank < n:
            return False
    return True


def _generator_associative(alg):
    """True iff (g x) y = g (x y) for every basis g, x, y in the window with
    g of degree 1 and x of degree >= 1, or g of degree 0, x of degree 1 and
    y of degree >= 1: the triples multiplicative_failures's inductions use.

    A join over the nonzero products: per degree pair (dx, dy) the terms
    c u_n of the products u_x u_y are indexed by n, the right factor of
    g u_n, so g (x y) visits only the nonzero g u_n, and (g x) y reads
    products_by_left.  The index lives for one degree pair and serves both
    degrees of g.  Per g, both sides go into one difference table, which
    must be zero.
    """
    rows = alg.products_by_left
    top = alg.max_degree
    for dx in range(1, top + 1):
        for dy in range(top + 1 - dx):
            gds = [gd for gd in ((0, 1) if dx == 1 and dy else (1,)) if gd + dx + dy <= top]
            if not gds:
                continue
            # by_right[n] lists (x, y, c) over the terms c u_n of the products u_x u_y
            by_right = {}
            for x, row in rows.get((dx, dy), {}).items():
                for y, entry in row.items():
                    for n, c in entry.items():
                        by_right.setdefault(n, []).append((x, y, c))
            for gd in gds:
                gx_rows = rows.get((gd, dx), {})
                my_rows = rows.get((gd + dx, dy), {})
                gn_rows = rows.get((gd, dx + dy), {})
                for g in range(alg.dim(gd)):
                    # diff[(x, y, k)] is the u_k coefficient of (g x) y - g (x y)
                    diff = {}
                    for x, entry in gx_rows.get(g, {}).items():
                        for m, c in entry.items():
                            for y, my in my_rows.get(m, {}).items():
                                for k, ck in my.items():
                                    key = (x, y, k)
                                    diff[key] = diff.get(key, 0) + c * ck
                    for n, gn in gn_rows.get(g, {}).items():
                        for x, y, c in by_right.get(n, ()):
                            for k, ck in gn.items():
                                key = (x, y, k)
                                diff[key] = diff.get(key, 0) - c * ck
                    if any(diff.values()):
                        return False
    return True


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
    Visits only nonzero products, in the degrees where src has a basis, one
    degree pair (d, e) at a time (see _pair_failures).

    The generator pairs come first: left factors of degree 1, and of
    degree 0 with right factors of degree 0 or 1.  If they give no failure,
    and src, left and right are each generator_reducible, the other pairs
    hold as well and are not visited.  A left factor u of degree >= 2 is a
    sum of c g x with g of degree 1, and by induction on the degree of x
    f(uv) = sum c f(g (x v)) = sum c f(g) (f(x) f(v)) = sum c (f(g) f(x)) f(v)
    = f(u) f(v), by associativity of src on (g, x, v), the checked pair
    (g, xv), associativity of both target legs on the legs of f(g), and the
    checked pair (g, x).  For z of degree 0 and v = sum c g x of degree >= 2,
    f(zv) = sum c f((zg) x) = sum c f(zg) f(x) = sum c (f(z) f(g)) f(x)
    = sum c f(z) f(gx) = f(z) f(v), by the premise (z g) x = z (g x) on
    src, the checked pairs (zg, x), (z, g) and (g, x), and the same premise
    on both target legs.
    Otherwise every pair is visited, so a failing map keeps every witness,
    in (d, e) order.
    """
    degrees = [d for d in range(max_degree + 1) if src.dim(d)]
    pairs = [(d, e) for d in degrees for e in degrees if d + e <= max_degree]
    first = [(d, e) for d, e in pairs if d == 1 or (d == 0 and e <= 1)]
    rest = [pair for pair in pairs if pair not in first]
    rows = (src.products_by_left, left.products_by_left, right.products_by_left)
    fails = {pair: _pair_failures(src, image, rows, *pair) for pair in first}
    if (rest and not any(fails.values())
            and all(alg.generator_reducible for alg in (src, left, right))):
        return []
    fails.update((pair, _pair_failures(src, image, rows, *pair)) for pair in rest)
    return [f for pair in pairs for f in fails[pair]]


def _pair_failures(src, image, rows, d, e):
    """multiplicative_failures on the pairs of degrees (d, e), in (i, j) order.

    rows holds the products_by_left of src and the two target legs.
    f(u_i) f(u_j) is built for all j at once, and the legs are pre-joined
    first: the image terms (r, s) of degree e are indexed by first leg r,
    and each term c u_m of a left-leg product u_p u_r is paired with the
    index's list for r.  So a term c1 of f(u_i) meets each image term
    (r, s) of f(u_j) once per m, c1 c is multiplied once per term rather
    than once per hit, a miss is one membership test on the right-leg
    products of its second leg, and a hit adds to the accumulator of
    f(u_i) f(u_j).  Right-leg product entries are flattened to tuples once,
    and cancelled terms are dropped before the comparison with
    image_of(f(u_i u_j)).  The indexes live for one call.
    """
    src_rows, left_rows, right_rows = rows
    f = d + e
    terms = [tuple(image(d, i).items()) for i in range(src.dim(d))]
    prod = src_rows.get((d, e), {})
    # legs[r] lists (j, s, c) over the terms c u_r (x) u_s of the images f(u_j)
    legs = {}
    for j in range(src.dim(e)):
        for (r, s), c in image(e, j).items():
            legs.setdefault(r, []).append((j, s, c))
    # lrows[p] lists (m, c, legs[r]) over the terms c u_m of the products u_p u_r
    lrows = {p: [(m, c, legs[r]) for r, entry in row.items() if r in legs
                 for m, c in entry.items()]
             for p, row in left_rows.get((d, e), {}).items()}
    flat_r = _flatten(right_rows.get((d, e), {}))
    fails = []
    for i in range(src.dim(d)):
        rhs = {}
        for (p, qq), c1 in terms[i]:
            lrow = lrows.get(p)
            right_row = flat_r.get(qq)
            if not lrow or not right_row:
                continue
            for m, c, leg in lrow:
                c1c = c1 * c
                for j, s, c2 in leg:
                    if s not in right_row:
                        continue
                    out = rhs.get(j)
                    if out is None:
                        out = rhs[j] = {}
                    c12 = c1c * c2
                    for n, cn in right_row[s]:
                        key = (m, n)
                        out[key] = out.get(key, 0) + c12 * cn
        row = prod.get(i, {})
        for j in sorted(row.keys() | rhs.keys()):
            out = rhs.get(j, {})
            if not all(out.values()):
                out = {key: c for key, c in out.items() if c}
            if image_of(image, f, row.get(j, {})) != out:
                fails.append([src.label_of(d, i), src.label_of(e, j)])
    return fails


def _failures_counit_splits(w):
    """Both weak-counit split failure lists, witnesses in (d, e, f, b) order.

    Over basis triples (u_a, u_b, u_c) of degrees (d, e, f), compares
    eps(u_a u_b u_c) with eps(u_a u_j) eps(u_k u_c) (split 12) and with
    eps(u_a u_k) eps(u_j u_c) (split 21), summed over the terms
    u_j (x) u_k of Delta(u_b).  Per degree e one pass over the coproducts
    keeps, for each u_b, the terms whose legs the eps tables read, with the
    legs swapped for split 21.  Each degree triple then takes
    eps(u_a u_b u_c) from products_by_left and each split from
    apply_legs over the eps columns of (d, e) and the eps rows of (e, f),
    and compares only the u_b that have a term on some side.
    """
    eps = w.eps_products
    by_col = {}
    by_row = {}
    # read_right[e] holds the u_j of degree e that some eps(u_a u_j) reads,
    # read_left[e] those that some eps(u_j u_c) reads
    read_right = {}
    read_left = {}
    for (d, e), mat in eps.items():
        col = by_col.setdefault((d, e), {})
        row = by_row.setdefault((d, e), {})
        for (i, j), val in mat.items():
            col.setdefault(j, {})[i] = val
            row.setdefault(i, {})[j] = val
        read_right.setdefault(e, set()).update(col)
        read_left.setdefault(d, set()).update(row)
    by_left = w.products_by_left
    # a degree with no basis elements has nothing to check at any place of a triple
    degrees = [d for d in range(w.max_degree + 1) if w.dim(d)]
    # kept[e][b] is (split 12's terms c u_j (x) u_k of Delta(u_b), split 21's as c u_k (x) u_j)
    kept = {}
    for e in degrees:
        right, left = read_right.get(e, ()), read_left.get(e, ())
        kept_e = kept[e] = {}
        for b in range(w.dim(e)):
            legs12, legs21 = {}, {}
            for (j, k), c in w.coproduct_of(e, b).items():
                if j in right and k in left:
                    legs12[(j, k)] = c
                if k in right and j in left:
                    legs21[(k, j)] = c
            if legs12 or legs21:
                kept_e[b] = (legs12, legs21)
    fails12 = []
    fails21 = []
    for d in degrees:
        for e in degrees:
            if d + e > w.max_degree:
                break
            rows = by_left.get((d, e), {})
            e1col = by_col.get((d, e), {})
            for f in degrees:
                if d + e + f > w.max_degree:
                    break
                e2row = by_row.get((e, f), {})
                e3row = by_row.get((d + e, f), {})
                # lhs[b][(a, c)] = eps(u_a u_b u_c)
                lhs = {}
                for a, row in rows.items():
                    for b, entry in row.items():
                        for m, cm in entry.items():
                            crow = e3row.get(m)
                            if crow:
                                out = lhs.setdefault(b, {})
                                for c, vc in crow.items():
                                    bump(out, (a, c), cm * vc)
                for b in sorted(lhs.keys() | kept[e].keys()):
                    out = lhs.get(b, {})
                    for legs, fails in zip(kept[e].get(b, ({}, {})), (fails12, fails21)):
                        split = apply_legs(legs, e1col, e2row)
                        if out != split:
                            a, c = _first_mismatch(out, split)
                            fails.append([w.label_of(d, a), w.label_of(e, b), w.label_of(f, c)])
    return fails12, fails21


def _first_mismatch(lhs, rhs):
    keys = sorted(set(lhs) | set(rhs))
    for key in keys:
        if lhs.get(key) != rhs.get(key):
            return key
    raise AssertionError("called on equal tables")


def _failures_unit_splits(w):
    """Both weak-unit split failure lists: (Delta (x) id)Delta(1) against
    (Delta(1) (x) 1)(1 (x) Delta(1)) (split 12) and (1 (x) Delta(1))(Delta(1) (x) 1)
    (split 21).  A join: each term of Delta(1) meets, through
    products_by_left, only the terms of the other copy whose middle
    product is nonzero.
    """
    d1 = w.delta_one()
    lhs = {}
    for (i, k), c in d1.items():
        for (m, n), cc in w.coproduct_of(0, i).items():
            bump(lhs, (m, n, k), c * cc)
    right_one = [w.multiply(0, {i: _ONE}, 0, w.unit) for i in range(w.dim(0))]
    left_one = [w.multiply(0, w.unit, 0, {i: _ONE}) for i in range(w.dim(0))]
    rows = w.products_by_left.get((0, 0), {})
    # by_first[k] lists (m, c) over the terms c u_k (x) u_m of Delta(1), by_second[m] (k, c)
    by_first = {}
    by_second = {}
    for (k, m), c in d1.items():
        by_first.setdefault(k, []).append((m, c))
        by_second.setdefault(m, []).append((k, c))

    def add(out, leg1, mid, leg3, c12):
        for n, cn in mid.items():
            for a, ca in leg1.items():
                for b, cb in leg3.items():
                    bump(out, (a, n, b), c12 * cn * ca * cb)

    # (Delta(1) (x) 1)(1 (x) Delta(1)) over the terms c1 u_i (x) u_j and c2 u_k (x) u_m:
    # legs u_i*1, u_j*u_k, 1*u_m
    split12 = {}
    for (i, j), c1 in d1.items():
        for k, mid in rows.get(j, {}).items():
            for m, c2 in by_first.get(k, ()):
                add(split12, right_one[i], mid, left_one[m], c1 * c2)
    # (1 (x) Delta(1))(Delta(1) (x) 1) over the same terms: legs 1*u_i, u_k*u_j, u_m*1
    split21 = {}
    for (k, m), c2 in d1.items():
        for j, mid in rows.get(k, {}).items():
            for i, c1 in by_second.get(j, ()):
                add(split21, left_one[i], mid, right_one[m], c1 * c2)
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
    return report([
        ("delta-multiplicative", w.delta_failures),
        ("counit-product-split-12", f12),
        ("counit-product-split-21", f21),
        ("unit-coproduct-split-12", g12),
        ("unit-coproduct-split-21", g21),
    ], key="axiom")


def report(rows, key="check"):
    """The check report of a list of (name, failures) rows.

    Each row is named under key and keeps the first WITNESSES failures, in
    order, as its witnesses (every failure when WITNESSES is None); the
    report passes iff no row has a failure.
    """
    checks = [{key: name, "status": "fail" if failures else "pass",
               "witnesses": failures[:WITNESSES]} for name, failures in rows]
    return {"passed": not any(failures for _, failures in rows), "checks": checks}


def counital_subalgebra(w, side):
    """w.counital_subalgebras[side], for the side 'source' or 'target'."""
    if side not in ("source", "target"):
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
    return w.counital_subalgebras[side]


class BiidealGens:
    """Homogeneous generators of a prospective biideal inside a host presentation.

    Generators are (degree, coordinate dict) pairs on the host's basis of
    that degree, or ValueError; zero and repeated generators are dropped,
    in first-seen order.  Graded pieces and ranks need only the host's
    product (a GradedAlgebra will do); check_biideal and quotient_wba need
    a GradedWBA.
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


def _closure_products(b, d):
    """The nonzero products z g z' of the degree-d generators g, with z and
    z' over the degree-0 basis, in order; each g is scaled by int_row first."""
    w = b.host
    basis0 = [{z: _ONE} for z in range(w.dim(0))]
    for g in [int_row(vec) for gd, vec in b.generators if gd == d]:
        for z in basis0:
            zg = w.multiply(0, z, d, g)
            if not zg:
                continue
            for z2 in basis0:
                zgz = w.multiply(d, zg, 0, z2)
                if zgz:
                    yield zgz


def _spread(b, d):
    """The degree-d piece as a forward-reduced Echelon, kept on b until finalized.

    Adds the closure products of the degree-d generators (_closure_products)
    and spreads the finalized degree-(d-1) int rows, as
    biideal_graded_pieces describes.  On a host with int constants every
    product is an int row and enters by Echelon.add_ints.
    """
    if d in b._echelons:
        return b._echelons[d]
    w = b.host
    if d > w.max_degree:
        raise ValueError(f"degree {d} exceeds the host truncation {w.max_degree}")
    ech = Echelon(w.dim(d))
    add = ech.add_ints if w.int_products else ech.add
    for zgz in _closure_products(b, d):
        add(zgz)
    if d >= 1:
        prev = biideal_graded_pieces(b, d - 1)
        for row in prev.int_rows:
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


def _descends(w, d, piece, v):
    """True iff (pi (x) pi)Delta(v) = 0 for a degree-d coordinate dict v of
    the host w, pi the projection onto the cosets of piece: apply_legs over
    its int rows, so the test is exact and never divides."""
    rows = piece.projection.rows
    return not apply_legs(w.delta(d, v), rows, rows)


def check_biideal(b, max_degree):
    """Counit vanishing and coproduct descent for every graded piece ≤ max_degree.

    The counit-vanishes row tests eps on every canonical row of every piece.
    Descent is one test, _descends.

    When the host's Delta is known to be multiplicative
    (delta_known_multiplicative, which never computes it), descent is
    first tested on the closure products z g z' of the generators alone
    (_closure_products).  If they all descend, every piece row does, by
    induction on the degree: the degree-d piece I_d is spanned by the
    closure products and by a r and r a with a of degree 1 and r in
    I_{d-1}, and Delta(a r) = Delta(a) Delta(r) lies in
    H_1 I_{d-1} (x) H_d + H_d (x) H_1 I_{d-1}, within I_d (x) H_d + H_d (x) I_d,
    and the same on the right; so no piece row is projected and the
    coproduct-descends row is empty.

    Otherwise (or if some closure product fails) every canonical int row
    of every piece is tested, so a failing report keeps every witness, in
    order.
    """
    w = b.host
    if max_degree > w.max_degree:
        raise ValueError(f"cannot check beyond the host truncation {w.max_degree}")
    pieces = [biideal_graded_pieces(b, d) for d in range(max_degree + 1)]
    eps_fails = [f"degree {d}, piece row {r}" for d, piece in enumerate(pieces)
                 for r, row in enumerate(piece.int_rows) if w.eps(d, row)]
    delta_fails = []
    if not (w.delta_known_multiplicative()
            and all(_descends(w, d, piece, v) for d, piece in enumerate(pieces)
                    for v in _closure_products(b, d))):
        delta_fails = [f"degree {d}, piece row {r}" for d, piece in enumerate(pieces)
                       for r, row in enumerate(piece.int_rows) if not _descends(w, d, piece, row)]
    return report([("counit-vanishes", eps_fails), ("coproduct-descends", delta_fails)])


def quotient_wba(b, report=None):
    """Quotient presentation on the non-pivot coset basis of each graded piece.

    Refuses (with the failing report attached) unless the biideal check
    passes up to the host truncation.  Labels name coset representatives;
    the coproduct of each coset column m is (pi (x) pi)Delta(u_m), projected
    by apply_legs over the piece's int projection rows and divided by D*D
    at once, so no degree's projected tables are held beside the quotient's.
    """
    w = b.host
    if report is None:
        report = check_biideal(b, w.max_degree)
    if not report["passed"]:
        raise VerificationError("biideal verification failed; not a quotient weak bialgebra",
                                report)
    projs = [biideal_graded_pieces(b, d).projection for d in range(w.max_degree + 1)]
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
        rows, denom = projs[d].rows, projs[d].denom
        for i, mi in enumerate(projs[d].cols):
            entry = divided(apply_legs(w.coproduct_of(d, mi), rows, rows), denom * denom)
            if entry:
                coproduct[(d, i)] = entry
            ev = w.counit_of(d, mi)
            if ev:
                counit[(d, i)] = ev
    return GradedWBA(w.max_degree, labels, product, unit, coproduct, counit)
