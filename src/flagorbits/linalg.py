"""Exact dense linear algebra over the rationals and prime fields.

Everything downstream (flags, rank invariants, orbit catalogs, the
finite-field oracle) rests on exact rank computations, so this module
offers two scalar domains and nothing else:

* ``QQ`` -- arbitrary-precision rationals via :class:`fractions.Fraction`,
* ``GF(p)`` -- canonical residues ``0..p-1`` for a prime ``p < 2**31``,
  with inverses by Fermat's little theorem.

Matrices are immutable row-major tuples.  Elimination over a field has
two callers, ``Matrix`` row reduction and the canonical flag form, and
both run on two elementary operations on a list of columns, defined
here once.  Integer matrices over Q need no ``Fraction``:
``echelon_extend`` adds one integer row to an echelon basis by
cross-multiplication and content division, and ``integer_rank`` and
``integer_kernel`` are folds of it.  ``integer_dual`` builds the rows of a
dual flag from the kernels of its column prefixes, with no completion and
no inverse.  No floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

# an entry of a matrix literal: an integer or a fraction, ASCII digits only
_ENTRY = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _parse_entry(token: str) -> Fraction:
    """The value of an entry token ``[+-]?digits`` or
    ``[+-]?digits/digits``.  Anything else (a decimal, an exponent, an
    underscore) raises ``ValueError`` naming the token; a zero denominator
    raises ``ZeroDivisionError``."""
    if not _ENTRY.fullmatch(token):
        raise ValueError(f"entry {token!r} is not an integer or a fraction "
                         f"a/b")
    return Fraction(token)


def _is_digits(token: str) -> bool:
    """Whether ``token`` is nonempty ASCII digits: ``int`` also reads
    ``1_0``, surrounding whitespace and non-ASCII digits."""
    return token.isascii() and token.isdigit()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Scalar domain tag: the rationals or a prime field."""

    name: str

    def coerce(self, x) -> Scalar:
        raise NotImplementedError

    def inv(self, x: Scalar) -> Scalar:
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    @property
    def zero(self) -> Scalar:
        raise NotImplementedError

    @property
    def one(self) -> Scalar:
        raise NotImplementedError

    def parse(self, token: str) -> Scalar:
        raise NotImplementedError

    def format(self, x: Scalar) -> str:
        return str(x)


class _RationalField(Field):
    name = "Q"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def parse(self, token):
        try:
            return _parse_entry(token)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {token!r}") from None

    def format(self, x):
        return str(Fraction(x))

    def __repr__(self):
        return "QQ"


class GF(Field):
    """Prime field GF(p); elements are canonical residues in [0, p)."""

    def __init__(self, p: int):
        if p >= 2**31 or not _is_prime(p):
            raise ValueError(f"GF({p}): p must be a prime below 2**31")
        self.p = p
        self.name = f"F{p}"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def inv(self, x):
        x %= self.p
        if x == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(x, self.p - 2, self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def parse(self, token):
        """An integer or ``a/b`` fraction token, reduced mod p."""
        try:
            return self.coerce(_parse_entry(token))
        except ZeroDivisionError:
            raise ValueError(f"{token!r} has a denominator divisible by "
                             f"{self.p}") from None

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = _RationalField()

_FIELD_CACHE: dict[int, GF] = {}


def gf(p: int) -> GF:
    if p not in _FIELD_CACHE:
        _FIELD_CACHE[p] = GF(p)
    return _FIELD_CACHE[p]


def field_by_name(name: str) -> Field:
    """``QQ`` for the tag ``Q``, ``GF(p)`` for ``Fp``."""
    if name == "Q":
        return QQ
    digits = name[1:]
    if name.startswith("F") and _is_digits(digits):
        return gf(int(digits))
    raise ValueError("expected Q or Fp for a prime p")


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with a uniform scalar field."""

    field: Field
    rows: int
    cols: int
    data: tuple  # row-major tuple of row tuples

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence]) -> "Matrix":
        coerced = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        ncols = len(coerced[0]) if coerced else 0
        if any(len(r) != ncols for r in coerced):
            raise ValueError("ragged rows")
        return Matrix(field, len(coerced), ncols, coerced)

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return Matrix(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix(
            field, n, n,
            tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
        )

    @staticmethod
    def from_columns(field: Field, cols: Sequence[Sequence],
                     rows: int) -> "Matrix":
        """The ``rows`` x ``len(cols)`` matrix with these columns; either
        count may be 0."""
        return Matrix(field, rows, len(cols),
                      tuple(tuple(field.coerce(c[i]) for c in cols)
                            for i in range(rows)))

    # -- basic shape ops ----------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def columns(self) -> list[tuple]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field, self.cols, self.rows,
            tuple(tuple(self.data[i][j] for i in range(self.rows))
                  for j in range(self.cols)),
        )

    def row_submatrix(self, rows: Iterable[int]) -> "Matrix":
        rows = list(rows)
        return Matrix(self.field, len(rows), self.cols,
                      tuple(self.data[i] for i in rows))

    def col_submatrix(self, cols: Iterable[int]) -> "Matrix":
        cols = list(cols)
        return Matrix(self.field, self.rows, len(cols),
                      tuple(tuple(row[j] for j in cols) for row in self.data))

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("mixed-field product")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        F = self.field
        ot = other.transpose().data
        out = tuple(
            tuple(_dot(F, row, col) for col in ot) for row in self.data
        )
        return Matrix(F, self.rows, other.cols, out)

    # -- rank ----------------------------------------------------------

    def rank(self) -> int:
        return len(_row_reduce([list(r) for r in self.data], self.field)[1])

    # -- serialization ---------------------------------------------------

    def to_literal(self) -> str:
        F = self.field
        head = f"{self.rows} {self.cols} {F.name}"
        body = "\n".join(" ".join(F.format(a) for a in row) for row in self.data)
        return head + "\n" + body if self.rows and self.cols else head

    def __str__(self):
        return self.to_literal()


def _dot(F: Field, u, v):
    acc = F.zero
    for a, b in zip(u, v):
        if a != F.zero and b != F.zero:
            acc = F.add(acc, F.mul(a, b))
    return acc


# -- elementary operations on a matrix held as a list of columns --------------


def _col_axpy(F: Field, cols: list[list], dst: int, src: int, c) -> None:
    """Column ``dst`` += c * column ``src``; zero entries of ``src`` leave
    ``dst`` as it is."""
    z = F.zero
    cols[dst] = [x if y == z else F.add(x, F.mul(c, y))
                 for x, y in zip(cols[dst], cols[src])]


def _col_scale(F: Field, cols: list[list], j: int, c) -> None:
    cols[j] = [F.mul(c, x) for x in cols[j]]


def _row_reduce(rows: list[list], F: Field):
    """In-place RREF with first-nonzero pivots; returns (rows, pivot
    columns), the rank being the number of pivots.  A column is a pivot
    exactly when it is independent of the columns before it.  The rows
    are the "columns" of ``_col_scale`` and ``_col_axpy``.
    """
    pivots: list[int] = []
    z = F.zero
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != z),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        if rows[rank][col] != F.one:
            _col_scale(F, rows, rank, F.inv(rows[rank][col]))
        for r in range(len(rows)):
            if r != rank and rows[r][col] != z:
                _col_axpy(F, rows, r, rank, F.sub(z, rows[r][col]))
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def echelon_extend(basis, row):
    """Add one integer row to an echelon basis of (pivot, row) pairs sorted
    by pivot; the basis comes back unchanged when the row depends on it.

    The row is reduced against each basis row in pivot order by integer
    cross-multiplication, then divided by its content; its pivot is its
    first nonzero column.  Each basis row is zero left of its pivot and
    the pivots are distinct, so the number of pivots left of c is the
    rank of the first c columns.  This is the library's one exact
    elimination over Q: ``integer_rank``, ``integer_kernel`` and
    ``invariants.rank_table`` are folds of it.
    """
    v = row
    for pivot, b in basis:
        c = v[pivot]
        if c:
            a = b[pivot]
            v = [a * x - c * y for x, y in zip(v, b)]
    for lead, x in enumerate(v):
        if x:
            g = math.gcd(*v)
            reduced = tuple([y // g for y in v])
            return tuple(sorted(basis + ((lead, reduced),)))
    return basis


def _echelon_basis(rows: Sequence[Sequence[int]], basis=()):
    """``basis`` extended by each of ``rows`` in turn with
    ``echelon_extend``; it stops once the basis spans every column."""
    for row in rows:
        basis = echelon_extend(basis, row)
        if len(basis) == len(row):
            break
    return basis


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix: the size of the echelon basis
    ``echelon_extend`` folds from its rows.  All arithmetic is on ints,
    which is much faster than ``Fraction``s on 0/1 normal forms."""
    return len(_echelon_basis(rows))


def integer_kernel(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer basis of the right null space {y : A y = 0} of an integer
    matrix: ``_basis_kernel`` of the echelon basis of its rows.  ``rows``
    must be nonempty, since the width is read from them.
    """
    if not rows:
        raise ValueError("integer_kernel needs at least one row")
    return _basis_kernel(_echelon_basis(rows), len(rows[0]))


def _basis_kernel(basis, width: int) -> list[list[int]]:
    """Integer basis of the right null space of the ``width``-column rows
    an echelon ``basis`` spans, one vector per free column.

    For a free column f, y starts as the unit vector at f; then, for each
    basis row b with pivot p < f, from the last such pivot to the first,
    y is scaled by b[p] and y[p] is set to minus b's product with the
    old y, which makes b.y = 0 and keeps the later rows' products zero.
    Each vector is divided by its content.  A caller that keeps the basis
    of a matrix's first rows reads the kernel of a longer prefix from
    that basis extended by the rows after it, as ``orbits`` does for
    column prefixes.
    """
    pivots = {p for p, _ in basis}
    kernel = []
    for free in range(width):
        if free in pivots:
            continue
        y = [0] * width
        y[free] = 1
        for p, b in reversed(basis):
            if p < free:
                dot = sum(map(operator.mul, b, y))
                y = [b[p] * x for x in y]
                y[p] = -dot
        g = math.gcd(*y)
        kernel.append([x // g for x in y])
    return kernel


def integer_dual(rows: Sequence[Sequence[int]],
                 parts: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Integer rows of the dual flag, of type m_l..m_1: the annihilators,
    under the standard dot product, of the column prefixes of ``rows``, an
    integer flag of type ``parts`` = (m_1..m_l), l >= 2, with its
    m_1+...+m_{l-1} stored columns.

    For s from l - 1 down to 1, each vector of ``integer_kernel`` of the
    first m_1+...+m_s columns that grows an ``echelon_extend`` basis is
    appended; the largest cut's kernel is independent, so the echelon
    pass runs only when a smaller cut follows.

    Modulo a prime p the rows are exact when they stay independent (and
    ``rows`` keeps full column rank): each annihilates its prefix over the
    integers.  ``Flag.from_matrix`` raises on rows that fall dependent.
    """
    cols = list(zip(*rows))
    kept = integer_kernel(cols)
    if len(parts) > 2:
        basis = _echelon_basis(kept)
        for cut in reversed(list(itertools.accumulate(parts[:-2]))):
            for y in integer_kernel(cols[:cut]):
                grown = echelon_extend(basis, y)
                if len(grown) > len(basis):
                    basis = grown
                    kept.append(y)
    return tuple(zip(*kept))


def parse_matrix_literal(text: str) -> Matrix:
    """Parse the plain-text matrix format: ``rows cols field`` then entries.

    The field tag is ``Q`` or ``Fp`` (e.g. ``F5``); entries are integers or
    ``a/b`` fractions of ASCII digits with an optional sign, whitespace-
    separated, with ``|`` separators ignored.
    Over ``Fp`` an entry a/b is a times the inverse of b mod p.  The result
    has the declared shape, a 0 x c literal keeping its c columns.  A
    negative or non-integer size, a field tag that names no field, an
    entry of another form (``0.5``, ``1e3``, ``1_0``) and a denominator
    that is 0 (or divisible by p over ``Fp``) raise ``ValueError`` with a
    one-line message naming the header or the entry.
    """
    tokens = text.replace("|", " ").split()
    if len(tokens) < 3:
        raise ValueError("matrix literal needs a 'rows cols field' header")
    header = f"matrix literal header {' '.join(tokens[:3])!r}"

    def size(token: str, role: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"{role} {token!r} in {header} is not an "
                             f"integer") from None

    rows, cols = size(tokens[0], "row count"), size(tokens[1], "column count")
    if rows < 0 or cols < 0:
        raise ValueError(f"negative size in {header}")
    try:
        F = field_by_name(tokens[2])
    except ValueError as exc:
        raise ValueError(f"field tag {tokens[2]!r} in {header}: {exc}") \
            from None
    entries = tokens[3:]
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    return Matrix(F, rows, cols,
                  tuple(tuple(F.parse(entries[i * cols + j])
                              for j in range(cols)) for i in range(rows)))
