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
degree 0 with right factors of degree 0 or 1) when source and targets are
generator_reducible: every degree d >= 2 is spanned by the products of
degree 1 and degree d-1, and (g x) y = g (x y) for every g of degree 1
and (z g) x = z (g x) for every z of degree 0 and g of degree 1, with x
of degree >= 1 (two inductions, see multiplicative_failures).  When a
generator pair fails, or a presentation is not known to be
generator_reducible, every pair is checked, so a failing report keeps
every witness.
A presentation knows three facts, generator_reducible, factors_uniquely
and (on a GradedWBA) delta_multiplicative, as plain bools that its
constructor sets when it has proven them; False means unknown.
path_algebra_presentation proves both of kQ's from how its paths
compose.  h(Q)'s Delta is multiplicative because kQ's paths factor
uniquely, and h(Q) is generator_reducible when kQ is, as its Segre square
(see from_face_algebra).  A quotient by a biideal inherits h(Q)'s two
from its host, as the image of an algebra map through which Delta
descends (see quotient_wba).  Copies and hand-made presentations know no
fact, and are checked by the joins.
Two-leg maps (L (x) R)(t) go through linalg.apply_legs: the weak-counit
splits, and the projected coproducts (pi (x) pi)Delta of the biideal
check (_descends) and the quotient.  No coproduct is a table: every one
is the two functions its GradedWBA is built with, coproduct_of(d, i) for
one Delta(u_i), and coproducts_on(d, first, second) for only the terms
whose legs lie in two given index sets, which is all the weak-counit
splits read.  h(Q) computes Delta(x[a;b]) = sum_k x[a;k] (x) x[k;b], and
those terms, by index arithmetic, and a quotient projects its host's on
demand, through projection rows restricted to the kept legs, reading
its host at call time, which is sound because a presentation never
changes.  The weak-unit splits are a join that pairs only terms with a
nonzero product.
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

    labels has one row of basis labels per degree of the window, so
    max_degree is len(labels) - 1.  product maps (d, i, e, j) to the
    coordinate dict of u^d_i u^e_j in degree d+e; pairs that multiply to
    zero are absent, and entries are read-only (one may be shared by
    several keys).  unit is a degree-0 coordinate dict.  The product table
    must not change once the object is built, so what is derived from it,
    its index by left factor products_by_left and the flag int_products,
    are cached properties.

    generator_reducible is a fact, not derived: True when each degree
    d >= 2 is spanned by the products of degree 1 and degree d-1,
    (g x) y = g (x y) for every g of degree 1 and x of degree >= 1, and
    (z g) x = z (g x) for every z of degree 0, g of degree 1 and x of
    degree >= 1.  It is False, meaning unknown, unless the constructor
    proved it: path_algebra_presentation for kQ, from_face_algebra and
    quotient_wba from their argument's.  multiplicative_failures and the
    comodule check read it as the premise of their early exits.

    factors_uniquely, a fact set only by path_algebra_presentation, is
    True when each basis element of degree d + e is u_i u_j for exactly one
    pair (i, j) of degrees (d, e), and every other such product is 0.
    """

    generator_reducible = False
    factors_uniquely = False

    def __init__(self, labels, product, unit):
        self.labels = [list(row) for row in labels]
        self.max_degree = len(self.labels) - 1
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


class GradedWBA(GradedAlgebra):
    """A graded algebra plus a degree-preserving coproduct and a counit table.

    coproduct_of(d, i) gives Delta(u^d_i) as a read-only dict
    {(j, k): scalar} describing a sum of u^d_j (x) u^d_k, nonzero terms
    only; coproducts_on(d, first, second) gives, for sets of degree-d
    indices, {i: the terms of coproduct_of(d, i) with j in first and k in
    second} over the i with such a term, computed without the other terms;
    counit maps (d, i) to its nonzero scalar value.  None may change once
    the object is built, so the eps(u_i u_j) table eps_products and the
    counital_subalgebras are cached properties.

    delta_multiplicative is a fact: True when Delta is proven
    multiplicative on the whole window, set by from_face_algebra and
    quotient_wba; False means unknown, and check_axioms runs the join.
    """

    delta_multiplicative = False

    def __init__(self, labels, product, unit, coproduct_of, coproducts_on, counit):
        super().__init__(labels, product, unit)
        self.coproduct_of = coproduct_of
        self.coproducts_on = coproducts_on
        self.counit = counit

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
    """kQ as a graded algebra on the per-degree path bases, degrees without paths skipped.

    kQ is born generator_reducible and factors_uniquely.  Every path of
    length d >= 2 is an arrow times a path of length d-1, so the products
    of degree 1 and degree d-1 span degree d; concatenation is
    associative, so both associativity premises hold on every triple of
    paths; and a path of length d + e is, with coefficient 1, its first d
    arrows times its last e, and nothing else.
    """
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
    kq = GradedAlgebra(labels, product, unit)
    kq.generator_reducible = True
    kq.factors_uniquely = True
    return kq


def face_algebra(kq):
    """The face algebra's labels, product and unit: x[a;b] x[c;k] = x[ac;bk],
    by index arithmetic over kq's products by left factor, over kq's window.
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
    return GradedAlgebra(labels, product, unit)


def from_face_algebra(kq):
    """The face algebra of a quiver as a weak bialgebra, from its path algebra kq.

    face_algebra's labels, product and unit, plus the matrix coproduct
    Delta(x[a;b]) = sum_m x[a;m] (x) x[m;b], computed from the index
    a n_d + b of x[a;b] (n_d paths of length d) on every call, and the
    counit table eps(x[a;b]) = delta_ab.  coproducts_on(d, first, second)
    finds the terms x[a;m] (x) x[m;b] with both legs kept by the same
    arithmetic: it indexes second by middle path m once and pairs each
    x[a;m] in first with the x[m;b] of that index, in
    O(|first| + |second| + terms kept).  Two facts of kQ become facts of
    h(Q), set here.

    When kQ's paths factor uniquely (kq.factors_uniquely, born on every
    path algebra), Delta is multiplicative on the whole window, and
    delta_multiplicative is True from construction, without the join.
    For x[a;b] x[c;k] = x[ac;bk], with m, m' over kQ's bases of degrees
    d, e and M, M' over degree d + e,
        Delta(x[a;b]) Delta(x[c;k]) = sum_{m,m'} x[ac;mm'] (x) x[mm';bk]
            = sum_{M,M'} (sum_{m,m'} [mm' = M][mm' = M']) x[ac;M] (x) x[M';bk],
    and unique factorization makes the inner sum delta_{MM'}, which leaves
    sum_M x[ac;M] (x) x[M;bk] = Delta(x[ac;bk]); where ac or bk is zero,
    both sides are.

    h(Q) is generator_reducible when kq is, and copies kq's value.
    h(Q)_d is kQ_d (x) kQ_d and x[a;b] x[c;k] = x[ac;bk] multiplies each
    component in kQ: the products x[g;g'] x[x;x'] with g, g' of degree 1
    and x, x' of degree d-1 span
    kQ_1 kQ_{d-1} (x) kQ_1 kQ_{d-1}, which is h(Q)_d when kQ_d is spanned
    by kQ_1 kQ_{d-1}; and (x[g;g'] x[a;a']) x[c;c'] is x[(ga)c;(g'a')c']
    while x[g;g'] (x[a;a'] x[c;c']) is x[g(ac);g'(a'c')], so the two
    associativity premises, whose triples have the same degrees in both
    components, hold on h(Q)'s basis when they hold on kQ's.

    Both facts are kq's own, set when kq was built; h(Q) does not store
    kQ.  A hand-made table knows neither fact, so its h(Q) is checked by
    the joins.
    """
    alg = face_algebra(kq)
    sizes = kq.dims()

    def coproduct_of(d, i):
        n = sizes[d]
        a, b = divmod(i, n)
        return {(a * n + m, m * n + b): _ONE for m in range(n)}

    def coproducts_on(d, first, second):
        n = sizes[d]
        # ends[m] lists (b, index of x[m;b]) over the x[m;b] in second
        ends = {}
        for k in second:
            m, b = divmod(k, n)
            ends.setdefault(m, []).append((b, k))
        out = {}
        for j in first:
            a, m = divmod(j, n)
            for b, k in ends.get(m, ()):
                out.setdefault(a * n + b, {})[(j, k)] = _ONE
        return out

    counit = {(d, a * n + a): _ONE for d, n in enumerate(sizes) for a in range(n)}
    h = GradedWBA(alg.labels, alg.product, alg.unit, coproduct_of, coproducts_on, counit)
    h.generator_reducible = kq.generator_reducible
    h.delta_multiplicative = kq.factors_uniquely
    return h


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


def multiplicative_failures(src, image, left, right):
    """Basis pairs (u_i, u_j) of src with f(u_i u_j) != f(u_i) f(u_j).

    f is a degree-preserving map from src into left (x) right, given by
    image as in image_of: Delta is (w, w.coproduct_of, w, w), a coaction
    is (algebra, its images with the host leg first, host, algebra).
    Visits only nonzero products, in the degrees of src's window where it
    has a basis, one degree pair (d, e) at a time (see _pair_failures).

    The generator pairs come first: left factors of degree 1, and of
    degree 0 with right factors of degree 0 or 1.  If they give no failure,
    and src, left and right each know they are generator_reducible (a
    fact set at construction, see GradedAlgebra), the other pairs hold as
    well and are not visited.  A left factor u of degree >= 2 is a
    sum of c g x with g of degree 1, and by induction on the degree of x
    f(uv) = sum c f(g (x v)) = sum c f(g) (f(x) f(v)) = sum c (f(g) f(x)) f(v)
    = f(u) f(v), by associativity of src on (g, x, v), the checked pair
    (g, xv), associativity of both target legs on the legs of f(g), and the
    checked pair (g, x).  For z of degree 0 and v = sum c g x of degree >= 2,
    f(zv) = sum c f((zg) x) = sum c f(zg) f(x) = sum c (f(z) f(g)) f(x)
    = sum c f(z) f(gx) = f(z) f(v), by the premise (z g) x = z (g x) on
    src, the checked pairs (zg, x), (z, g) and (g, x), and the same premise
    on both target legs.
    Otherwise, a generator pair failing or a premise not known, every
    pair is visited, so a failing map keeps every witness, in (d, e) order.
    """
    degrees = [d for d in range(src.max_degree + 1) if src.dim(d)]
    pairs = [(d, e) for d in degrees for e in degrees if d + e <= src.max_degree]
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
    u_j (x) u_k of Delta(u_b).  Per degree e two coproducts_on calls ask
    only for the terms whose legs the eps tables read, u_j of some
    eps(u_a u_j) and u_k of some eps(u_k u_c), the second with the legs
    in the other order and swapped back for split 21; no other term of any
    Delta(u_b) is computed.  Each degree triple then takes
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
    # kept[e] is ({b: split 12's terms c u_j (x) u_k of Delta(u_b)}, {b: split 21's, c u_k (x) u_j})
    kept = {}
    for e in degrees:
        right, left = read_right.get(e, set()), read_left.get(e, set())
        swapped = w.coproducts_on(e, left, right)
        kept[e] = (w.coproducts_on(e, right, left),
                   {b: {(k, j): c for (j, k), c in terms.items()} for b, terms in swapped.items()})
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
                legs12, legs21 = kept[e]
                for b in sorted(lhs.keys() | legs12.keys() | legs21.keys()):
                    out = lhs.get(b, {})
                    for legs, fails in ((legs12, fails12), (legs21, fails21)):
                        split = apply_legs(legs.get(b, {}), e1col, e2row)
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
    to three witness tuples of basis labels.  Multiplicativity is [] when
    w.delta_multiplicative, proven at construction, and the join otherwise.
    """
    f12, f21 = _failures_counit_splits(w)
    g12, g21 = _failures_unit_splits(w)
    delta_fails = [] if w.delta_multiplicative else multiplicative_failures(
        w, w.coproduct_of, w, w)
    return report([
        ("delta-multiplicative", delta_fails),
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
    in first-seen order.  Graded pieces and quotient dimensions need only
    the host's product (a GradedAlgebra will do); check_biideal and
    quotient_wba need a GradedWBA.  Each graded piece is computed once, by
    biideal_graded_pieces, and kept finalized on the object.
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


def biideal_graded_pieces(b, d):
    """Degree-d piece of the two-sided ideal generated by b, as a Subspace.

    The span of H_0 g H_0 over the degree-d generators g, plus one-step
    spanning from the finalized degree-(d-1) basis by all degree-1 basis
    elements on both sides; complete because the hosts here are generated
    in degrees 0 and 1.  The unit lies in H_0, so H_0 g H_0 is the span of
    the products z g z' over the degree-0 basis, taken once each, and it
    contains g.  The spread part H_1 I_{d-1} + I_{d-1} H_1 is already
    H_0-stable, as z(ar) = (za)r and z(ra) = (zr)a with za in H_1 and zr in
    I_{d-1}, and likewise on the right.  On a host with int constants every
    product is an int row and enters by Echelon.add_ints.  The piece is
    finalized and kept on b; ValueError above the host truncation.
    """
    if d in b._pieces:
        return b._pieces[d]
    w = b.host
    if d > w.max_degree:
        raise ValueError(f"degree {d} exceeds the host truncation {w.max_degree}")
    ech = Echelon(w.dim(d))
    add = ech.add_ints if w.int_products else ech.add
    for zgz in _closure_products(b, d):
        add(zgz)
    if d >= 1:
        for row in biideal_graded_pieces(b, d - 1).int_rows:
            for a in range(w.dim(1)):
                arrow = {a: _ONE}
                left = w.multiply(1, arrow, d - 1, row)
                if left:
                    add(left)
                right = w.multiply(d - 1, row, 1, arrow)
                if right:
                    add(right)
    piece = b._pieces[d] = ech.finalize()
    return piece


def quotient_dims(b):
    """dim H_d - dim I_d over the host's window, from the finalized pieces."""
    return [b.host.dim(d) - biideal_graded_pieces(b, d).dim for d in range(b.host.max_degree + 1)]


def _descends(w, d, piece, v):
    """True iff (pi (x) pi)Delta(v) = 0 for a degree-d coordinate dict v of
    the host w, pi the projection onto the cosets of piece: apply_legs over
    its int rows, so the test is exact and never divides."""
    rows = piece.projection.rows
    return not apply_legs(w.delta(d, v), rows, rows)


def check_biideal(b):
    """Counit vanishing and coproduct descent for every graded piece of the host's window.

    The counit-vanishes row tests eps on every canonical row of every piece.
    Descent is one test, _descends.

    When the host's Delta is known to be multiplicative (its
    delta_multiplicative, set at construction), descent is first tested
    on the closure products z g z' of the generators alone
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
    pieces = [biideal_graded_pieces(b, d) for d in range(w.max_degree + 1)]
    eps_fails = [f"degree {d}, piece row {r}" for d, piece in enumerate(pieces)
                 for r, row in enumerate(piece.int_rows) if w.eps(d, row)]
    delta_fails = []
    if not (w.delta_multiplicative
            and all(_descends(w, d, piece, v) for d, piece in enumerate(pieces)
                    for v in _closure_products(b, d))):
        delta_fails = [f"degree {d}, piece row {r}" for d, piece in enumerate(pieces)
                       for r, row in enumerate(piece.int_rows) if not _descends(w, d, piece, row)]
    return report([("counit-vanishes", eps_fails), ("coproduct-descends", delta_fails)])


def quotient_wba(b, report=None):
    """Quotient presentation on the non-pivot coset basis of each graded piece.

    Refuses (with the failing report attached) unless the biideal check
    passes up to the host truncation.  Labels name coset representatives.
    The coproduct is not a table: coproduct_of(d, i) computes
    Delta'(u_i) = (pi (x) pi)Delta(u_m) for the i-th coset column m on
    every call, by apply_legs over the piece's int projection rows, divided
    by D*D at once.  coproducts_on(d, first, second) restricts the
    projection rows to the first and second coset columns inside the call,
    asks the host's coproducts_on for the host legs the restricted rows
    reach, and divides once per kept key: the term at (j, k) of
    (pi (x) pi)Delta(u_m) reads only column j of its first legs' rows and
    column k of its second legs', so the result is exact, and no other term
    is computed.  Both read the host at call time, which is sound because
    a presentation never changes, so building the quotient reads no host
    coproduct.

    The quotient copies the host's generator_reducible, and its
    delta_multiplicative is True when the host knows both facts, as h(Q)
    does.  The host, h(Q) or a quotient of it, is an associative algebra
    generated in degrees 0 and 1, so the spread makes I a two-sided ideal
    (biideal_graded_pieces), and pi: H -> H/I, onto the coset basis, is a
    surjective algebra map.
    Spanning passes through pi, as pi(H_d) = pi(H_1) pi(H_{d-1}), and so
    does each associativity premise, as ((pi g)(pi x))(pi y) = pi((g x) y)
    = pi(g (x y)) = (pi g)((pi x)(pi y)).  Descent, which the check passed,
    gives Delta'(pi x) = (pi (x) pi)Delta(x) for every x, so
    Delta'(pi x pi y) = (pi (x) pi)(Delta(x) Delta(y))
    = Delta'(pi x) Delta'(pi y), as pi (x) pi is an algebra map too.  A
    host whose facts are not known (a copy, a hand-made presentation)
    gives a quotient that knows neither, and is checked by the joins.
    """
    w = b.host
    if report is None:
        report = check_biideal(b)
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
    counit = {(d, i): ev for d in range(w.max_degree + 1)
              for i, m in enumerate(projs[d].cols) if (ev := w.counit_of(d, m))}

    def coproduct_of(d, i):
        p = projs[d]
        return divided(apply_legs(w.coproduct_of(d, p.cols[i]), p.rows, p.rows), p.denom * p.denom)

    def coproducts_on(d, first, second):
        p = projs[d]
        left, right = ({m: kept for m, row in p.rows.items()
                        if (kept := {k: c for k, c in row.items() if k in legs})}
                       for legs in (first, second))
        host = w.coproducts_on(d, left.keys(), right.keys())
        out = {}
        for i, m in enumerate(p.cols):
            if m in host and (terms := apply_legs(host[m], left, right)):
                out[i] = divided(terms, p.denom * p.denom)
        return out

    quotient = GradedWBA(labels, product, unit, coproduct_of, coproducts_on, counit)
    quotient.generator_reducible = w.generator_reducible
    quotient.delta_multiplicative = w.generator_reducible and w.delta_multiplicative
    return quotient
