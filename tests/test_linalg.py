"""Exact sparse linear algebra: echelon forms, kernels, canonical subspaces."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from faceq import pathalg as pa
from faceq.linalg import Echelon, Subspace, subspace_equal

from conftest import null_space_oracle


def dense(rows):
    """Sparse row dicts of a dense integer matrix."""
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def row_lists(sub):
    return [[row.get(j, 0) for j in range(sub.ambient_dim)] for row in sub.basis]


def kernel(cols, rows):
    """Basis of {v : r . v = 0 for every row r}, as the quadratic dual reads it."""
    return pa.quadratic_dual_rows(Subspace.from_rows(cols, rows))


def test_reduced_echelon_diagonal():
    sub = Subspace.from_rows(2, dense([[2, 0], [0, 3]]))
    assert row_lists(sub) == [[1, 0], [0, 1]]
    assert sub.pivots == (0, 1)


def test_reduced_echelon_rank_one():
    sub = Subspace.from_rows(2, dense([[1, 1], [1, 1]]))
    assert row_lists(sub) == [[1, 1]]
    assert sub.pivots == (0,)


def test_reduced_echelon_zero_matrix():
    sub = Subspace.from_rows(2, dense([[0, 0]]))
    assert row_lists(sub) == []
    assert sub.pivots == ()


def test_null_space_identity():
    assert kernel(3, dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == ()


def test_null_space_one_equation():
    assert kernel(2, dense([[1, 1]])) == ({0: 1, 1: -1},)


def test_null_space_two_by_three():
    assert kernel(3, dense([[1, -1, 0], [0, 1, -1]])) == ({0: 1, 1: 1, 2: 1},)


def test_span_contains_scaled_vector():
    s = Subspace.from_rows(2, [{0: Fraction(1)}])
    assert s.contains({0: 2})
    assert not s.contains({1: 1})


def test_span_contains_full_space():
    s = Subspace.from_rows(2, [{0: Fraction(1), 1: Fraction(1)},
                               {0: Fraction(1), 1: Fraction(-1)}])
    assert s.contains({0: 3, 1: 7})
    assert s.contains({0: -1, 1: 5})


def test_subspace_equal_different_spanning_sets():
    a = Subspace.from_rows(2, [{0: Fraction(1)}, {1: Fraction(1)}])
    b = Subspace.from_rows(2, [{0: Fraction(1), 1: Fraction(1)},
                               {0: Fraction(1), 1: Fraction(-1)}])
    assert subspace_equal(a, b)


def test_subspace_equal_distinguishes_lines():
    a = Subspace.from_rows(2, [{0: Fraction(1)}])
    b = Subspace.from_rows(2, [{1: Fraction(1)}])
    assert not subspace_equal(a, b)


def test_subspace_equal_zero():
    assert subspace_equal(Subspace.from_rows(3, []), Subspace.from_rows(3, []))


def test_subspace_equal_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_equal(Subspace.from_rows(2, []), Subspace.from_rows(3, []))


def test_empty_ambient_dimension():
    assert kernel(0, []) == ()
    assert Echelon(0).finalize().dim == 0


small_entries = st.integers(min_value=-5, max_value=5)


def matrices(max_rows=5, max_cols=5):
    """(cols, sparse rows) of small dense integer matrices."""
    return st.integers(min_value=1, max_value=max_cols).flatmap(
        lambda cols: st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=1, max_size=max_rows,
        ).map(lambda rows: (cols, dense(rows)))
    )


@given(matrices())
def test_rank_nullity(m):
    cols, rows = m
    assert Subspace.from_rows(cols, rows).dim + len(kernel(cols, rows)) == cols


@given(matrices())
def test_null_space_vectors_annihilate(m):
    cols, rows = m
    for v in kernel(cols, rows):
        for row in rows:
            assert sum((row.get(j, 0) * c for j, c in v.items()), Fraction(0)) == 0


@given(matrices())
def test_reduced_echelon_idempotent(m):
    cols, rows = m
    sub = Subspace.from_rows(cols, rows)
    again = Subspace.from_rows(cols, sub.basis)
    assert row_lists(again) == row_lists(sub)
    assert again.pivots == sub.pivots


@given(matrices(), st.randoms(use_true_random=False))
def test_echelon_canonical_under_row_operations(m, rng):
    cols, rows = m
    mixed = [dict(r) for r in rows]
    for _ in range(3):
        i = rng.randrange(len(mixed))
        j = rng.randrange(len(mixed))
        if i == j:
            continue
        scale = Fraction(rng.randint(-3, 3))
        for col, val in list(mixed[j].items()):
            s = mixed[i].get(col, Fraction(0)) + scale * val
            if s:
                mixed[i][col] = s
            else:
                mixed[i].pop(col, None)
    rng.shuffle(mixed)
    a = Subspace.from_rows(cols, rows)
    b = Subspace.from_rows(cols, mixed)
    assert a.contains(next(iter(mixed), {})) or not mixed
    assert b.dim <= a.dim
    for row in mixed:
        assert a.contains(row)


@given(matrices())
def test_span_contains_row_combinations(m):
    cols, rows = m
    s = Subspace.from_rows(cols, rows)
    combo = {}
    for k, row in enumerate(rows):
        for j, v in row.items():
            combo[j] = combo.get(j, Fraction(0)) + (k + 1) * v
    combo = {j: v for j, v in combo.items() if v}
    assert s.contains(combo)


@given(st.fractions(), st.fractions())
def test_fraction_arithmetic_round_trips(a, b):
    assert (a + b) - b == a


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def rational_rows_and_vector(draw, max_cols=6, max_rows=6):
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    entries = st.dictionaries(st.integers(min_value=0, max_value=cols - 1), rationals)
    return cols, draw(st.lists(entries, max_size=max_rows)), draw(entries)


def pivot_scan_reduce(sub, vec):
    """Reference reduction: subtract a multiple of each pivot row in turn."""
    work = {c: x for c, x in vec.items() if x}
    for p, row in zip(sub.pivots, sub.basis):
        coeff = work.get(p)
        if coeff:
            for c, x in row.items():
                s = work.get(c, 0) - coeff * x
                if s:
                    work[c] = s
                else:
                    work.pop(c, None)
    return work


@given(rational_rows_and_vector())
def test_residue_table_reduce_matches_pivot_scan(case):
    cols, rows, vec = case
    sub = Subspace.from_rows(cols, rows)
    assert sub.reduce(vec) == pivot_scan_reduce(sub, vec)
    for j in range(cols):
        assert sub.reduce({j: 1}) == pivot_scan_reduce(sub, {j: 1})
    assert not set(sub.reduce(vec)) & set(sub.pivots)


@given(rational_rows_and_vector())
def test_finalize_keeps_ints_where_integral(case):
    cols, rows, _ = case
    for row in Subspace.from_rows(cols, rows).basis:
        for x in row.values():
            assert type(x) in (int, Fraction)
            assert (type(x) is int) == (x.denominator == 1)


def _int_combine(a, row, b, piv):
    """a*row - b*piv over ints, divided by the gcd of its entries."""
    out = {c: a * v for c, v in row.items()}
    for c, v in piv.items():
        w = out.get(c, 0) - b * v
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    g = gcd(*out.values()) if out else 0
    return {c: v // g for c, v in out.items()} if g > 1 else out


def ascending_gauss_jordan(ech):
    """Reference back-substitution: every (p, q) pivot pair in ascending
    order, clearing column p from row q with row p as it stands, then pivots
    normalized to 1.  Returns (basis, pivots) as finalize() should."""
    pivots = sorted(ech.pivot_rows)
    rows = dict(ech.pivot_rows)
    for p in pivots:
        piv = rows[p]
        for q in pivots:
            if q != p and p in rows[q]:
                rows[q] = _int_combine(piv[p], rows[q], rows[q][p], piv)
    basis = []
    for p in pivots:
        lead = rows[p][p]
        basis.append({c: v // lead if v % lead == 0 else Fraction(v, lead)
                      for c, v in rows[p].items()})
    return tuple(basis), tuple(pivots)


def entry_types(basis):
    return [{c: type(x) for c, x in row.items()} for row in basis]


int_or_fraction = st.one_of(st.integers(min_value=-6, max_value=6),
                            st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def echelon_inputs(draw, max_cols=10, max_rows=8):
    """Sparse int and Fraction rows, rows dense from some column on (they carry
    many later pivot columns), and dependent rows combined from earlier ones."""
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    sparse = st.dictionaries(st.integers(min_value=0, max_value=cols - 1),
                             int_or_fraction, max_size=4)
    tail = st.integers(min_value=0, max_value=cols - 1).flatmap(
        lambda start: st.lists(int_or_fraction, min_size=cols - start,
                               max_size=cols - start).map(
            lambda vals: {start + k: v for k, v in enumerate(vals)}))
    rows = draw(st.lists(st.one_of(sparse, tail), max_size=max_rows))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        picks = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=len(rows) - 1),
                                        int_or_fraction), min_size=1, max_size=3))
        combo = {}
        for i, s in picks:
            for c, x in rows[i].items():
                combo[c] = combo.get(c, 0) + s * x
        rows.append(combo)
    return cols, rows


def _finalize_against_oracle(cols, rows):
    ech = Echelon(cols)
    for row in rows:
        ech.add(row)
    basis, pivots = ascending_gauss_jordan(ech)
    sub = ech.finalize()
    assert sub.pivots == pivots
    assert sub.basis == basis
    assert entry_types(sub.basis) == entry_types(basis)


@settings(max_examples=150, deadline=None)
@given(echelon_inputs())
def test_finalize_matches_ascending_gauss_jordan(case):
    _finalize_against_oracle(*case)


def test_finalize_matches_oracle_when_rows_hold_every_later_pivot():
    n = 9
    rows = [{j: Fraction(j + 1, i + 2) if (i + j) % 3 else j - i + 1 for j in range(i, n)}
            for i in range(n)]
    _finalize_against_oracle(n, rows)
    wide = [{**row, **{n + k: k - i for k in range(3)}} for i, row in enumerate(rows)]
    _finalize_against_oracle(n + 3, wide)


@settings(max_examples=150, deadline=None)
@given(echelon_inputs())
def test_null_space_matches_oracle(case):
    """Reading the kernel off the residue table gives the oracle's basis,
    pivots and entry types, on int and Fraction rows alike."""
    cols, rows = case
    oracle = null_space_oracle(cols, rows)
    basis = kernel(cols, rows)
    assert basis == oracle.basis
    assert Subspace.from_rows(cols, basis).pivots == oracle.pivots
    assert entry_types(basis) == entry_types(oracle.basis)
