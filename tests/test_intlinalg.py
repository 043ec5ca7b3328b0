from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import assert_each_raise_reached, raised_at
from oracles import (
    adjugate,
    det_loop,
    hermite_with_transform,
    inverse_by_fractions,
    inverse_unimodular,
    invariant_factors,
    kernel_basis,
    matmul,
    smith_normal_form,
    solve_integer,
    solve_rational,
)
from torcrep import intlinalg
from torcrep.divisors import _smith_rows
from torcrep.intlinalg import IntMatrix, clearing, hermite_normal_form, solve, xgcd


def small_matrices(max_dim=4, max_entry=9):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == a * x + b * y
    assert g >= 0


def test_hnf_identity():
    m = IntMatrix.identity(3)
    h, u = hermite_with_transform(m)
    assert h == m
    assert u == m


def test_hnf_already_diagonal():
    h = hermite_normal_form([(2, 0), (0, 3)])
    assert h == [(2, 0), (0, 3)]


def test_hnf_order6_lattice_determinant():
    cols = [(6, 0, 0), (0, 6, 0), (0, 0, 6), (1, 2, 3)]
    m = IntMatrix(zip(*cols))
    h, u = hermite_with_transform(m)
    assert h == matmul(m, u)
    assert abs(u.det()) == 1
    basis = IntMatrix([row[:3] for row in h.data])
    assert abs(basis.det()) == 36
    # residue oracle: the span of the columns mod 6 has 6^3 / 36 cosets
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        nxt = []
        for base in frontier:
            for c in cols:
                cand = tuple((a + b) % 6 for a, b in zip(base, c))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    assert 6**3 // len(seen) == 36


@given(small_matrices())
def test_hnf_round_trip(data):
    m = IntMatrix(data)
    h, u = hermite_with_transform(m)
    assert h == matmul(m, u)
    assert abs(u.det()) == 1


@st.composite
def matrices_with_zero_columns(draw):
    """1-5 by 1-6 matrices with entries in [-20, 20], some columns zeroed."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    zero = draw(st.lists(st.booleans(), min_size=ncols, max_size=ncols))
    entries = st.integers(-20, 20)
    return IntMatrix([[0 if z else draw(entries) for z in zero] for _ in range(nrows)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices_with_zero_columns())
@example(IntMatrix([[0, 0, 0]]))
@example(IntMatrix([[0, 4, 0, -6], [0, 1, 0, 1]]))
def test_hnf_matches_transform_oracle(m):
    # dropping the transform leaves the form itself unchanged
    # the kernel takes and returns columns, the oracle an IntMatrix
    assert hermite_normal_form(list(zip(*m.data))) == list(zip(*hermite_with_transform(m)[0].data))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-100, 100).filter(bool), st.integers(-100, 100))
@example(4, 6)
@example(-3, 9)
def test_clearing_is_unimodular_and_clears(a, b):
    x, y, c, d = clearing(a, b)
    assert x * d - y * c == 1
    assert c * a + d * b == 0


def test_snf_zero():
    s, p, q = smith_normal_form(IntMatrix([[0] * 3] * 2))
    assert s.data == ((0, 0, 0), (0, 0, 0))
    assert abs(p.det()) == 1 and abs(q.det()) == 1


def test_snf_diag46():
    m = IntMatrix([[4, 0], [0, 6]])
    s, p, q = smith_normal_form(m)
    assert s.data == ((2, 0), (0, 12))
    assert matmul(p, m, q) == s


def test_snf_order5_divisor_matrix():
    # ray-pairing matrix of the 5-ray resolution in the transformed basis
    m = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 2, 0], [3, -1, -1]])
    assert invariant_factors(m) == (1, 1, 1)
    # cokernel rank = rays - rank
    assert m.rows - len(invariant_factors(m)) == 2


@given(small_matrices())
def test_snf_round_trip(data):
    m = IntMatrix(data)
    s, p, q = smith_normal_form(m)
    assert matmul(p, m, q) == s
    assert abs(p.det()) == 1 and abs(q.det()) == 1
    diag = [s.data[i][i] for i in range(min(s.rows, s.cols))]
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s.data[i][j] == 0


@given(small_matrices())
@example([[0, 0, 0], [0, 0, 0]])
@example([[4, -6, 10]])
@example([[2, 4, 6, 8], [3, 5, 7, 9]])
def test_smith_rows_match_dense_smith_form(data):
    # the class group's sparse elimination keeps p's rows and the diagonal
    # of the dense form, and stops at the first zero pivot
    s, p, _ = smith_normal_form(IntMatrix(data))
    diag, rows = _smith_rows([list(row) for row in data])
    bound = min(s.rows, s.cols)
    assert diag + [0] * (bound - len(diag)) == [s.data[i][i] for i in range(bound)]
    assert rows == [{j: v for j, v in enumerate(row) if v} for row in p.data]


def test_solve_integer():
    m = IntMatrix(zip(*[(2, 0), (0, 3)]))
    assert solve_integer(m, (4, 6)) == (2, 2)
    assert solve_integer(m, (1, 0)) is None


def test_solve_rational_inconsistent():
    rows = list(zip(*[(1, 0, 0), (0, 1, 0)]))
    assert solve(rows, [(0, 0, 1)]) is None
    (nums,), d = solve(rows, [(3, 4, 0)])
    assert tuple(Fraction(v, d) for v in nums) == (3, 4)


def test_kernel_basis():
    m = IntMatrix([[1, 2, 3]])
    ker = kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        assert sum(a * b for a, b in zip((1, 2, 3), v)) == 0


def test_inverse_unimodular():
    m = IntMatrix([[2, 1], [1, 1]])
    inv = inverse_unimodular(m)
    assert matmul(m, inv) == IntMatrix.identity(2)


@pytest.mark.parametrize("data", [[[1.7, 0], [0, 1]], [[True, 0], [0, 1]]])
def test_matrix_rejects_non_integer_entries(data):
    with pytest.raises(TypeError):
        IntMatrix(data)


# one case per raise in intlinalg.py, each reached by its input: the call, the
# exception and its message
INTLINALG_RAISES = {
    "float entry": (lambda: IntMatrix([[1.0, 0], [0, 1]]), TypeError,
                    "matrix entries must be integers"),
    "no rows": (lambda: IntMatrix([]), ValueError, "matrix dimensions must be positive"),
    "ragged rows": (lambda: IntMatrix([[1, 2], [3]]), ValueError, "rows have unequal lengths"),
    "assignment": (lambda: setattr(IntMatrix.identity(2), "cols", 3), AttributeError,
                   "cannot assign to or delete field 'cols'"),
    "short vector": (lambda: IntMatrix.identity(2).mul_vec((1,)), ValueError,
                     "dimension mismatch in matrix-vector product"),
    "non-square determinant": (lambda: IntMatrix([[1, 2]]).det(), ValueError,
                               "determinant of a non-square matrix"),
    "short right-hand side": (lambda: solve(((1, 0), (0, 1)), [(1,)]), ValueError,
                              "dimension mismatch"),
    "dependent columns": (lambda: solve(((1, 2), (2, 4)), [(1, 2)]), ValueError,
                          "columns are linearly dependent"),
}


def _raise(case):
    call, exc_type, _ = INTLINALG_RAISES[case]
    return raised_at(intlinalg, {}, call, exc_type)


@pytest.mark.parametrize("case", INTLINALG_RAISES)
def test_intlinalg_raise_fires(case):
    assert _raise(case)[0] == INTLINALG_RAISES[case][2]


def test_every_intlinalg_raise_has_a_case():
    assert_each_raise_reached(intlinalg, [_raise(case)[1] for case in INTLINALG_RAISES])


@st.composite
def linear_systems(draw):
    """Square, tall and wide matrices, some with a dependent column, plus
    right-hand sides that are either images ``m * x`` or arbitrary."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, nrows + 1))
    entries = st.integers(-9, 9)
    data = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if ncols > 1 and draw(st.booleans()):
        a, b = draw(entries), draw(entries)
        for row in data:
            row[-1] = a * row[0] + b * row[1]
    m = IntMatrix(data)
    rhs = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            x = draw(st.lists(entries, min_size=ncols, max_size=ncols))
            rhs.append(m.mul_vec(x))
        else:
            rhs.append(tuple(draw(st.lists(entries, min_size=nrows, max_size=nrows))))
    return m, rhs


def square_matrices(max_dim=5, max_entry=9):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ).map(IntMatrix)


@given(linear_systems())
def test_solve_matches_fraction_oracle(system):
    m, rhs = system
    try:
        expected = [solve_rational(m, b) for b in rhs]
    except ValueError:
        with pytest.raises(ValueError):
            solve(m.data, rhs)
        return
    got = solve(m.data, rhs)
    if any(sol is None for sol in expected):
        assert got is None
        return
    nums, d = got
    assert d > 0
    if m.rows == m.cols:
        assert d == abs(det_loop(m))
    for num, b, sol in zip(nums, rhs, expected):
        assert m.mul_vec(num) == tuple(d * v for v in b)
        assert tuple(Fraction(v, d) for v in num) == sol


@given(linear_systems())
def test_det_matches_loop(system):
    m, _ = system
    if m.rows == m.cols:
        assert m.det() == det_loop(m)


@given(square_matrices())
def test_adjugate_from_solve(m):
    # psi_lattice_points reads sign(det) * adjugate off solve(x, I)
    det = det_loop(m)
    if det == 0:
        with pytest.raises(ValueError):
            solve(m.data, IntMatrix.identity(m.rows).data)
        return
    cols, d = solve(m.data, IntMatrix.identity(m.rows).data)
    assert d == abs(det)
    sign = 1 if det > 0 else -1
    expected = [[sign * v for v in row] for row in adjugate(m)]
    assert IntMatrix(zip(*cols)) == IntMatrix(expected)


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.integers(-3, 3), st.booleans()), max_size=12),
    )
))
def test_inverse_unimodular_matches_oracle(spec):
    n, ops = spec
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, f, swap in ops:
        if swap:
            rows[i], rows[j] = rows[j], rows[i]
        elif i != j:
            rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
    m = IntMatrix(rows)
    inv = inverse_unimodular(m)
    assert inv == inverse_by_fractions(m)
    assert matmul(m, inv) == IntMatrix.identity(n)


@given(square_matrices(max_dim=4, max_entry=3))
def test_inverse_unimodular_rejects_like_oracle(m):
    try:
        expected = inverse_by_fractions(m)
    except ValueError:
        with pytest.raises(ValueError):
            inverse_unimodular(m)
        return
    assert inverse_unimodular(m) == expected
