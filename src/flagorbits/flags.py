"""Compositions, flags with canonical representatives, and related groups.

A flag of type ``(m_1, ..., m_l)`` in n-space is stored as an
``n x (m_1 + ... + m_{l-1})`` full-column-rank matrix, the last block
being redundant.  Two matrices describe the same flag exactly when they
differ by the right action of the block-upper-triangular group, so every
:class:`Flag` holds the unique canonical representative and flag equality
is entry-wise equality.

``_canonical_rep`` states the convention that picks the canonical
representative.  Dual flags are built on integer rows, by
``linalg.integer_dual``, and realized over a field only then.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .linalg import (Field, Matrix, _col_axpy, _col_scale, _is_digits, gf,
                     parse_matrix_literal)


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of positive integers; indexes block structures."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError(f"invalid composition {self.parts}")

    @staticmethod
    def of(*parts: int) -> "Composition":
        return Composition(tuple(parts))

    @staticmethod
    def parse(text: str) -> "Composition":
        """Parts of ASCII digits separated by commas or whitespace; an
        empty comma field (``2,,1``, ``2,``, ``,2``) or a part of another
        form (``1_0``, ``1.5``, a full-width digit) raises ``ValueError``
        naming the text."""
        fields = text.split(",")
        if len(fields) > 1 and not all(f.strip() for f in fields):
            raise ValueError(f"empty part in composition {text!r}")
        parts = [t for f in fields for t in f.split()]
        for t in parts:
            if not _is_digits(t):
                raise ValueError(f"part {t!r} of composition {text!r} is "
                                 f"not a whole number")
        return Composition(tuple(map(int, parts)))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def prefix_sums(self) -> list[int]:
        """[0, p_1, p_1+p_2, ..., n]"""
        acc = [0]
        for p in self.parts:
            acc.append(acc[-1] + p)
        return acc

    def block_range(self, j: int) -> range:
        """Zero-based row/column range of block j (zero-based)."""
        ps = self.prefix_sums()
        return range(ps[j], ps[j + 1])

    def block_of(self, index: int) -> int:
        """Zero-based block containing zero-based position ``index``."""
        ps = self.prefix_sums()
        for j in range(len(self.parts)):
            if ps[j] <= index < ps[j + 1]:
                return j
        raise IndexError(index)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def _canonical_rep(mat: Matrix, boundaries: Sequence[int]) -> Matrix:
    """Canonical representative modulo the right block-upper action.

    ``boundaries`` are the column indices where blocks start (ascending,
    first entry 0).  Left to right, each column is cleared at the earlier
    columns' pivot rows, pivots at its first nonzero row not yet a pivot
    row, is scaled to 1 there and clears that row from the earlier columns
    of its block; then each block's columns are ordered by pivot row.
    ``oracle.canonicalize_batch`` follows this convention on GF(q) stacks.
    Raises ``ValueError`` on rank deficiency.
    """
    F, z = mat.field, mat.field.zero
    cols = [list(col) for col in mat.columns()]
    start = [max(b for b in boundaries if b <= c) for c in range(mat.cols)]
    pivots: list[int] = []      # pivot row per processed column
    for c in range(mat.cols):
        for pc, r in enumerate(pivots):
            if cols[c][r] != z:
                _col_axpy(F, cols, c, pc, F.sub(z, cols[c][r]))
        pivot = next((i for i, x in enumerate(cols[c])
                      if x != z and i not in pivots), None)
        if pivot is None:
            raise ValueError("flag representative is rank deficient")
        if cols[c][pivot] != F.one:
            _col_scale(F, cols, c, F.inv(cols[c][pivot]))
        for pc in range(start[c], c):
            if cols[pc][pivot] != z:
                _col_axpy(F, cols, pc, c, F.sub(z, cols[pc][pivot]))
        pivots.append(pivot)
    order = sorted(range(mat.cols), key=lambda c: (start[c], pivots[c]))
    return Matrix.from_columns(F, [cols[c] for c in order], mat.rows)


@dataclass(frozen=True)
class Flag:
    """A flag of type ``typ`` holding its canonical representative."""

    typ: Composition
    rep: Matrix  # canonical, n x (n - m_l), full column rank

    @staticmethod
    def from_matrix(typ: Composition, mat: Matrix) -> "Flag":
        stored = typ.n - typ.parts[-1]
        if mat.rows != typ.n or mat.cols != stored:
            raise ValueError(
                f"flag of type {typ} needs a {typ.n}x{stored} representative, "
                f"got {mat.rows}x{mat.cols}")
        if len(typ) == 1:
            return Flag(typ, mat)
        canon = _canonical_rep(mat, typ.prefix_sums()[: len(typ) - 1])
        return Flag(typ, canon)

    @property
    def field(self) -> Field:
        return self.rep.field

    @property
    def n(self) -> int:
        return self.typ.n

    def prefix_columns(self, s: int) -> Matrix:
        """Columns spanning the s-th subspace (first m_1+...+m_s columns)."""
        return self.rep.col_submatrix(range(self.typ.prefix_sums()[s]))

    def to_literal(self) -> str:
        return f"m: {self.typ} of n={self.n}\n{self.rep.to_literal()}"

    def __str__(self):
        return self.to_literal()


def parse_flag_literal(text: str) -> Flag:
    """Parse ``m: <type> of n=<n>`` followed by a matrix literal.

    Every malformed text raises ``ValueError`` with a one-line message.
    """
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("empty flag literal")
    head = lines[0].strip()
    if not head.startswith("m:") or " of n=" not in head:
        raise ValueError("flag literal must start with 'm: ... of n=...'")
    comp_text, n_text = head[2:].split(" of n=")
    typ = Composition.parse(comp_text.strip())
    n_text = n_text.strip()
    if not _is_digits(n_text):
        raise ValueError(f"n={n_text!r} in the flag header is not a whole "
                         f"number")
    if typ.n != int(n_text):
        raise ValueError("composition does not sum to the declared n")
    mat = parse_matrix_literal("\n".join(lines[1:]))
    return Flag.from_matrix(typ, mat)


# -- group elements ----------------------------------------------------------


def _primitive_root(q: int) -> int:
    if q == 2:
        return 1
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise ValueError(f"no primitive root mod {q}")


def group_generators(nn: Composition, q: int) -> list[Matrix]:
    """Generators of the block Borel over GF(q): one torus scaling per row
    (omitted for q = 2) and one superdiagonal unipotent per adjacent pair
    inside each block."""
    fld = gf(q)
    n = nn.n
    gens = []
    gamma = _primitive_root(q)
    for b in range(len(nn)):
        rows = list(nn.block_range(b))
        if q > 2:
            for i in rows:
                m = [[1 if a == c else 0 for c in range(n)] for a in range(n)]
                m[i][i] = gamma
                gens.append(Matrix.from_rows(fld, m))
        for i in rows[:-1]:
            m = [[1 if a == c else 0 for c in range(n)] for a in range(n)]
            m[i][i + 1] = 1
            gens.append(Matrix.from_rows(fld, m))
    if not gens:  # trivial group over GF(2) with all blocks of size 1
        gens.append(Matrix.identity(fld, n))
    return gens


def act(g: Matrix, f: Flag) -> Flag:
    """Left action on flags: the canonical flag of ``g @ rep``."""
    if g.rows != f.n or g.cols != f.n:
        raise ValueError("acting matrix has the wrong size")
    if f.rep.cols == 0:
        return f
    return Flag.from_matrix(f.typ, g * f.rep)


# -- maximal parabolics over B' and P ---------------------------------------


@dataclass(frozen=True)
class ParabolicSpec:
    """Parabolic ``M_perm P_shape M_perm^{-1}``; perm is 1-based one-line."""

    shape: Composition
    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, self.shape.n + 1)):
            raise ValueError("perm is not a permutation")


def invariant_row_sets(nn: Composition) -> list[tuple[int, ...]]:
    """All nonempty row sets J fixed by B': unions of per-block suffixes.

    A row set is B'-stable exactly when its complement is spanned by an
    initial run of each block, i.e. J meets every block in a suffix.
    Sorted deterministically.
    """
    suffix_choices = []
    ps = nn.prefix_sums()
    for b, size in enumerate(nn.parts):
        opts = [()]  # empty suffix
        for start in range(size, 0, -1):
            opts.append(tuple(range(ps[b] + start, ps[b] + size + 1)))
        suffix_choices.append(opts)
    out = set()
    for combo in itertools.product(*suffix_choices):
        J = tuple(sorted(i for part in combo for i in part))
        if J:
            out.add(J)
    return sorted(out, key=lambda J: (len(J), J))


def qfamily(kind: str, comp: Composition) -> list[ParabolicSpec]:
    """Maximal parabolics containing B' (kind='Bprime') or P (kind='P').

    For B' the family is derived from the invariant row sets: one
    parabolic per proper nonempty J, namely the stabilizer of the span of
    the standard vectors outside J.  (A folklore count of 2n-2 for two
    blocks holds only when one block has size 1; the derived family is
    what the rank invariants actually use.)
    """
    n = comp.n
    if kind == "P":
        ps = comp.prefix_sums()
        return [ParabolicSpec(Composition.of(ps[s], n - ps[s]),
                              tuple(range(1, n + 1)))
                for s in range(1, len(comp))]
    if kind != "Bprime":
        raise ValueError("kind must be 'Bprime' or 'P'")
    specs = []
    for J in invariant_row_sets(comp):
        if len(J) == n:
            continue  # the full row set stabilizes everything
        comp_rows = [i for i in range(1, n + 1) if i not in J]
        perm_positions = comp_rows + list(J)
        perm = [0] * n
        for pos, row in enumerate(perm_positions):
            perm[pos] = row
        specs.append(ParabolicSpec(Composition.of(n - len(J), len(J)),
                                   tuple(perm)))
    return specs

