import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagorbits.flags import Composition, Flag
from flagorbits.linalg import (GF, Matrix, QQ, gf, integer_dual,
                               integer_kernel, integer_rank,
                               parse_matrix_literal)

from conftest import (bareiss_rank, complete_to_invertible, dual,
                      gf2_minor_rank, inverse, is_invertible)


def rand_matrix(field, rows, cols, rng, lo=-4, hi=4):
    if field is QQ:
        data = [[Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3]))
                 for _ in range(cols)] for _ in range(rows)]
    else:
        data = [[rng.randrange(field.p) for _ in range(cols)]
                for _ in range(rows)]
    return Matrix.from_rows(field, data)


def test_field_basics():
    assert QQ.coerce(3) == Fraction(3)
    f5 = gf(5)
    assert f5.coerce(-1) == 4
    assert f5.inv(2) == 3
    assert f5.coerce(Fraction(1, 2)) == 3
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


def test_rank_identity():
    assert Matrix.identity(QQ, 2).rank() == 2


def test_rank_row_selected_block():
    # the 4x2 matrix with columns (1,2,0,0), (1,0,1,0) restricted to rows {1,4}
    m = Matrix.from_rows(QQ, [[1, 1], [2, 0], [0, 1], [0, 0]])
    assert m.row_submatrix([0, 3]).rank() == 1
    assert m.rank() == 2


def test_rank_matches_fraction_free_oracle():
    rng = random.Random(11)
    for _ in range(50):
        m = rand_matrix(QQ, 5, 3, rng)
        assert m.rank() == bareiss_rank(m.data)
        assert m.rank() == m.transpose().rank()


def test_rank_gf2_matches_minor_expansion():
    import itertools
    f2 = gf(2)
    # exhaustive through 3x3, randomized at 4x4
    for rows in range(1, 4):
        for cols in range(1, 4):
            for bits in itertools.product((0, 1), repeat=rows * cols):
                data = [list(bits[r * cols:(r + 1) * cols])
                        for r in range(rows)]
                m = Matrix.from_rows(f2, data)
                assert m.rank() == gf2_minor_rank(data)
    rng = random.Random(5)
    for _ in range(200):
        m = rand_matrix(f2, 4, 4, rng)
        assert m.rank() == gf2_minor_rank([list(r) for r in m.data])


def test_reduced_column_echelon_of_example_block():
    # the displayed pair of equal representatives spans the same plane
    m = Matrix.from_rows(QQ, [[1, 1], [2, 0], [0, 1], [0, 0]])
    alt = Matrix.from_rows(QQ, [[1, 0], [2, -2], [0, 1], [0, 0]])
    plane = Composition.of(2, 2)
    assert Flag.from_matrix(plane, m) == Flag.from_matrix(plane, alt)
    assert Matrix.from_columns(QQ, m.columns() + alt.columns(), 4).rank() == 2


def test_completion_inverse_rows_annihilate_the_columns():
    # the fact dual reads off g^-1: with g the completion of A, the rows
    # of g^-1 from A's column count on span the annihilator of A's columns
    rng = random.Random(17)
    for fld in (QQ, gf(2), gf(3)):
        for k in range(5):
            for _ in range(6):
                a = rand_matrix(fld, 4, k, rng)
                while a.rank() != k:
                    a = rand_matrix(fld, 4, k, rng)
                rest = inverse(complete_to_invertible(a)).row_submatrix(
                    range(k, 4))
                assert rest * a == Matrix.zero(fld, 4 - k, k)
                assert rest.rank() == 4 - k


def test_completion_rejects_dependent_columns():
    for cols in ([[1, 2, 0], [2, 4, 0]], [[0, 0, 0]], [[1, 0, 1], [1, 0, 1]]):
        with pytest.raises(ValueError, match="not independent"):
            complete_to_invertible(Matrix.from_columns(QQ, cols, 3))
    with pytest.raises(ValueError, match="not independent"):
        complete_to_invertible(Matrix.from_columns(gf(2), [[1, 1], [1, 1]], 2))


def test_inverse_rejects_singular_matrices():
    # a zero first column makes the reduction of (A | I) pivot inside I
    singular = [(QQ, [[0, 1], [0, 1]]), (QQ, [[0, 1, 2], [0, 3, 4], [0, 5, 6]]),
                (QQ, [[1, 2], [2, 4]]), (gf(2), [[1, 1], [1, 1]]),
                (gf(3), [[1, 2], [2, 1]])]
    for fld, rows in singular:
        with pytest.raises(ValueError, match="singular"):
            inverse(Matrix.from_rows(fld, rows))
    with pytest.raises(ValueError, match="non-square"):
        inverse(Matrix.zero(QQ, 2, 3))


def test_solve_substitute_exactness():
    # rational arithmetic stays exact: inverse times original is identity
    rng = random.Random(31)
    for _ in range(20):
        m = rand_matrix(QQ, 4, 4, rng)
        if not is_invertible(m):
            continue
        assert m * inverse(m) == Matrix.identity(QQ, 4)


def _low_rank_integer_matrix(rng, rows, cols):
    k = rng.randint(0, min(rows, cols))
    left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
    return [[sum(left[i][t] * right[t][j] for t in range(k))
             for j in range(cols)] for i in range(rows)]


def _special_integer_matrices(rng):
    """Shapes and entries that random small matrices seldom reach."""
    big = 2**64
    yield [()]
    yield [(), (), ()]
    yield [[0, 0, 0], [0, 0, 0]]
    yield [[1, 2, 3]] * 3
    yield [[2, -4, 6], [0, 0, 0], [1, -2, 3], [2, -4, 6]]
    yield [[2, 0, 1], [0, 2, 1]]
    for _ in range(6):
        yield [[rng.randint(-3, 3) for _ in range(3)] for _ in range(9)]
        yield [[rng.randint(-3, 3) for _ in range(9)] for _ in range(2)]
        yield [[-rng.randint(1, 9) for _ in range(4)] for _ in range(3)]
        yield [[rng.randint(-big * 8, big * 8) for _ in range(4)]
               for _ in range(3)]
        yield [[big * x + rng.choice([0, 1]) * x for x in row]
               for row in _low_rank_integer_matrix(rng, 4, 5)]
        row = [rng.randint(-5, 5) * big for _ in range(5)]
        yield [row, [3 * x for x in row], [-x for x in row]]


def test_integer_rank_agrees():
    rng = random.Random(41)
    for _ in range(40):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(5)]
        assert integer_rank(rows) == bareiss_rank(rows)
    for rows in _special_integer_matrices(rng):
        assert integer_rank(rows) == bareiss_rank(rows)


def _check_kernel(a):
    cols = len(a[0])
    basis = integer_kernel(a)
    assert len(basis) == cols - bareiss_rank(a)
    for y in basis:
        assert len(y) == cols
        assert all(isinstance(x, int) for x in y)
        assert math.gcd(*y) == 1
        assert all(sum(p * q for p, q in zip(row, y)) == 0 for row in a)
    assert bareiss_rank(basis) == len(basis)


def test_integer_kernel_annihilates_with_full_dimension():
    rng = random.Random(43)
    for trial in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        if trial % 3:
            a = _low_rank_integer_matrix(rng, rows, cols)
        else:
            a = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(cols)]
                 for _ in range(rows)]
        _check_kernel(a)
    for a in _special_integer_matrices(rng):
        _check_kernel(a)


def test_integer_kernel_edge_cases():
    assert integer_kernel([[0, 0, 0]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert integer_kernel([[2, 0], [0, 3]]) == []
    assert integer_kernel([[2, 4]]) in ([[-2, 1]], [[2, -1]])
    assert integer_kernel([()]) == []
    assert integer_rank([()]) == integer_rank([]) == 0
    assert integer_kernel([[1, 1], [1, 1]]) in ([[-1, 1]], [[1, -1]])
    assert integer_kernel([[2**65, -2**66]]) in ([[2, 1]], [[-2, -1]])
    # both pivots are 2, so the vector is primitive only after division
    assert integer_kernel([[2, 0, 1], [0, 2, 1]]) in ([[-1, -1, 2]],
                                                      [[1, 1, -2]])
    with pytest.raises(ValueError):
        integer_kernel([])


def test_integer_dual_matches_reference_dual_on_nested_types():
    # three and four column blocks take the echelon pass past the largest
    # cut, which the two-block dual patterns never reach
    rng = random.Random(59)
    checked = {3: 0, 4: 0}
    for trial in range(160):
        l = 3 + trial % 2
        n = rng.randint(l, 7)
        cuts = sorted(rng.sample(range(1, n), l - 1))
        parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        entries = (0, 0, 1, -1, 2) if trial % 3 else range(-3, 4)
        rows = [[rng.choice(entries) for _ in range(cuts[-1])]
                for _ in range(n)]
        if integer_rank(rows) < cuts[-1]:
            continue
        f = Flag.from_matrix(Composition(parts), Matrix.from_rows(QQ, rows))
        d = integer_dual(rows, parts)
        assert all(isinstance(x, int) for row in d for x in row)
        assert Flag.from_matrix(Composition(parts[::-1]),
                                Matrix.from_rows(QQ, d)) == dual(f)
        checked[l] += 1
    assert min(checked.values()) >= 40, checked


def test_matrix_literal_round_trip():
    m = Matrix.from_rows(QQ, [[Fraction(1, 2), 3], [0, -1]])
    back = parse_matrix_literal(m.to_literal())
    assert back == m
    f3 = parse_matrix_literal("2 2 F3\n1 2\n0 1")
    assert f3.field == gf(3)
    assert f3[0, 1] == 2


def test_matrix_literal_with_a_negative_size_is_rejected():
    # rows * cols = 2 entries would otherwise parse to a 0 x 0 matrix
    with pytest.raises(ValueError, match="negative size.*'-1 -2 Q'"):
        parse_matrix_literal("-1 -2 Q 1 1")


def test_finite_field_entries_may_be_fractions():
    # a/b is a times the inverse of b mod p, as GF.coerce reduces it
    F5 = gf(5)
    assert F5.parse("1/2") == 3 and F5.parse("-3/4") == 3
    assert F5.parse("7") == 2 and F5.parse("6/3") == 2
    m = parse_matrix_literal("2 2 F5\n1/2 0\n2/3 -1/4")
    assert m.data == ((3, 0), (4, 1))
    assert m == Matrix.from_rows(F5, [[Fraction(1, 2), 0],
                                      [Fraction(2, 3), Fraction(-1, 4)]])


@pytest.mark.parametrize("token", ["1/5", "3/10", "1/0"])
def test_finite_field_entry_with_a_denominator_divisible_by_p(token):
    with pytest.raises(ValueError, match=f"'{token}'.*divisible by 5"):
        parse_matrix_literal(f"1 1 F5 {token}")


@pytest.mark.parametrize("field", [QQ, gf(5)])
@pytest.mark.parametrize("token", ["0.5", ".5", "1.", "1e3", "1E0", "1_0",
                                   "\u0663", "1/2.0", "1/-2", "+-1", "nan"])
def test_entry_tokens_are_integers_or_fractions_only(field, token):
    # Fraction() alone reads the first seven (the last an Arabic-Indic 3)
    with pytest.raises(ValueError, match=re.escape(
            f"entry {token!r} is not an integer or a fraction")):
        field.parse(token)
    with pytest.raises(ValueError, match=re.escape(repr(token))):
        parse_matrix_literal(f"1 2 {field.name} 1 {token}")


@pytest.mark.parametrize("field", [QQ, gf(5)])
def test_entry_tokens_with_signs(field):
    assert field.parse("+3") == field.parse("3") == field.coerce(3)
    assert field.parse("-1/2") == field.coerce(Fraction(-1, 2))
    assert field.parse("+007/2") == field.coerce(Fraction(7, 2))


@pytest.mark.parametrize("text,match", [
    ("2 x Q 1 1", "column count 'x' in matrix literal header '2 x Q'"),
    ("y 1 F5 1", "row count 'y' in matrix literal header 'y 1 F5'"),
    ("2 1 F 1 1", "field tag 'F' in matrix literal header '2 1 F'"),
    ("2 1 Fx 1 1", "field tag 'Fx' in matrix literal header '2 1 Fx'"),
    ("2 1 F4 1 1", "field tag 'F4' in matrix literal header '2 1 F4'"),
    ("2 1 R 1 1", "field tag 'R' in matrix literal header '2 1 R'"),
])
def test_malformed_matrix_literal_header_names_it(text, match):
    with pytest.raises(ValueError, match=match) as info:
        parse_matrix_literal(text)
    assert "\n" not in str(info.value)
    assert "invalid literal for int()" not in str(info.value)


def test_matrix_literal_with_no_rows_keeps_its_columns():
    m = parse_matrix_literal("0 3 Q")
    assert (m.rows, m.cols) == (0, 3)
    assert m == Matrix.zero(QQ, 0, 3)
    assert parse_matrix_literal(m.to_literal()) == m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.integers(-2, 4), cols=st.integers(-2, 4),
       count=st.integers(0, 20), field=st.sampled_from(["Q", "F5"]))
def test_matrix_literal_has_its_declared_shape_or_raises(rows, cols, count,
                                                         field):
    text = f"{rows} {cols} {field}\n" + " ".join(["1"] * count)
    try:
        m = parse_matrix_literal(text)
    except ValueError:
        return
    assert (m.rows, m.cols) == (rows, cols)
    assert len(m.data) == rows and all(len(row) == cols for row in m.data)


def test_mixed_field_rejected():
    with pytest.raises(ValueError):
        Matrix.identity(QQ, 2) * Matrix.identity(gf(2), 2)


def test_from_columns_of_length_zero_keeps_the_column_count():
    m = Matrix.from_columns(QQ, [[], []], 0)
    assert (m.rows, m.cols) == (0, 2)
    assert m == Matrix.zero(QQ, 0, 2)
    m = Matrix.from_columns(gf(3), [[1, 2], [0, 4]], 2)
    assert m.data == ((1, 0), (2, 1))
    assert Matrix.from_columns(QQ, [], 3) == Matrix.zero(QQ, 3, 0)
