"""Rank invariants separating double cosets.

``rank_js(f, J, s)`` is the rank of the row-J submatrix of the s-th
prefix of a flag representative.  It is invariant under the left action
of the block Borel exactly when J meets every row block in a suffix;
``invariant_family`` enumerates that family, and ``signature`` evaluates
all of it at once.  ``rank_table`` computes the same values from integer
rows without building a flag, for catalog builds that rank many
candidates and keep few.  The corner counts ``bruhat_rij`` are the
classical baseline on permutation matrices.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .flags import Composition, Flag, invariant_row_sets
from .linalg import QQ, echelon_extend, integer_rank


@dataclass(frozen=True)
class JFamily:
    """Ordered family of (s, J) pairs whose rank maps are B'-invariant."""

    nn: Composition
    mm: Composition
    entries: tuple[tuple[int, tuple[int, ...]], ...]  # (s, rows J), sorted

    def index(self):
        return {e: i for i, e in enumerate(self.entries)}

    @cached_property
    def line_heads(self) -> tuple[str, ...]:
        """The ``s=... J={...} r=`` head of each entry's signature line,
        built once per family."""
        return tuple(f"s={s} J={{{','.join(map(str, J))}}} r="
                     for s, J in self.entries)

    @cached_property
    def rank_plan(self):
        """``rank_table``'s order of work, built once per family."""
        slots, extend = {(): 0}, []

        def slot(J):
            if J not in slots:
                extend.append((slot(J[1:]), J[0] - 1))
                slots[J] = len(extend)
            return slots[J]

        cuts = self.mm.prefix_sums()
        entries = tuple((slot(J), cuts[s]) for s, J in self.entries)
        return tuple(extend), entries


@dataclass(frozen=True)
class Signature:
    """Values of every invariant rank map on one flag."""

    family: JFamily
    values: tuple[int, ...]

    def serialize(self) -> str:
        return "\n".join([head + str(v) for head, v in
                          zip(self.family.line_heads, self.values)])

    def hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:12]


def rank_js(f: Flag, J: Sequence[int], s: int) -> int:
    """Rank of the row-J submatrix of the s-th prefix (J is 1-based)."""
    if not 1 <= s <= len(f.typ) - 1:
        raise ValueError(f"s={s} out of range for type {f.typ}")
    rows = sorted(set(J))
    if not rows or rows[0] < 1 or rows[-1] > f.n:
        raise ValueError(f"row set {J} out of range")
    prefix = f.prefix_columns(s)
    sub = prefix.row_submatrix([r - 1 for r in rows])
    if f.field is QQ:
        if all(x.denominator == 1 for row in sub.data for x in row):
            return integer_rank([[int(x) for x in row] for row in sub.data])
    return sub.rank()


def invariant_family(nn: Composition, mm: Composition) -> JFamily:
    """The family of all (s, J) with a B'-invariant rank map.

    J ranges over nonempty unions of per-block row suffixes (the exact
    stability condition for the block Borel), s over the proper prefixes
    of ``mm``.  Entries are sorted by (s, |J|, J) so signatures serialize
    canonically.
    """
    if nn.n != mm.n:
        raise ValueError("compositions of different integers")
    js = invariant_row_sets(nn)
    entries = []
    for s in range(1, len(mm)):
        for J in js:
            entries.append((s, J))
    entries.sort(key=lambda e: (e[0], len(e[1]), e[1]))
    return JFamily(nn, mm, tuple(entries))


def signature(f: Flag, fam: JFamily) -> Signature:
    if f.n != fam.nn.n or f.typ != fam.mm:
        raise ValueError("family does not match the flag")
    values = tuple(rank_js(f, J, s) for s, J in fam.entries)
    return Signature(fam, values)


def rank_table(rows: Sequence[Sequence[int]], fam: JFamily,
               steps: dict | None = None) -> tuple[int, ...]:
    """Signature values, in ``fam.entries`` order, of the flag spanned by
    the columns of an integer matrix.

    ``rows`` may be any integer matrix whose first ``m_1 + ... + m_s``
    columns span the s-th subspace of the flag.  The result equals
    ``signature(f, fam).values``: ``rank_{J,s}`` depends only on these
    spans, so neither another basis nor a nonzero scaling of a column
    changes it.

    ``fam.rank_plan`` lists every row set J as (slot of J[1:], index of
    the row J[0]), each after its J[1:], slot 0 being the empty set, then
    one (slot of J, m_1 + ... + m_s) per entry.  J's echelon basis is that
    of J[1:] extended by the row J[0] through ``linalg.echelon_extend``,
    with no ``Fraction``, so the rank of the first c columns of the J rows
    is the number of pivots left of c.  Each basis is kept as
    (id, basis, that count for every c): an entry's value is one lookup.

    ``steps`` maps (basis id, row) to the extended basis.  The step is a
    pure function, so one dict may be shared by every call of a catalog
    build.
    """
    extend, entries = fam.rank_plan
    rows = [tuple(r) for r in rows]
    steps = {} if steps is None else steps
    bases = [(0, (), (0,) * (len(rows[0]) + 1))]
    for slot, i in extend:
        parent, row = bases[slot], rows[i]
        known = steps.get((parent[0], row))
        if known is None:
            basis = echelon_extend(parent[1], row)
            ranks = tuple(sum(p < c for p, _ in basis)
                          for c in range(len(row) + 1))
            known = steps[parent[0], row] = parent if basis is parent[1] \
                else (len(steps) + 1, basis, ranks)
        bases.append(known)
    return tuple(bases[slot][2][cut] for slot, cut in entries)


def verify_family_invariance(fam: JFamily) -> None:
    """Raise ``AssertionError`` unless every entry's rank map is constant
    on B'-orbits: exactly when its row set J meets every row block of
    ``fam.nn`` in a suffix, since B' adds later rows of a block to earlier
    ones and scales rows.  Checked at the start of every catalog
    enumeration."""
    cuts = fam.nn.prefix_sums()
    for s, J in fam.entries:
        for lo, hi in zip(cuts, cuts[1:]):
            part = sorted(i for i in J if lo < i <= hi)
            if part != list(range(hi - len(part) + 1, hi + 1)):
                raise AssertionError(
                    f"rank map (s={s}, J={J}) is not B'-invariant for {fam.nn}")


def bruhat_rij(perm: Sequence[int], i: int, j: int) -> int:
    """Count of s <= j with perm(s) >= n-i+1 (perm is 1-based one-line).

    Equals the rank of the lower-left i x j corner of the permutation
    matrix.
    """
    n = len(perm)
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        raise ValueError("corner indices must lie in 1..n-1")
    return sum(1 for s in range(1, j + 1) if perm[s - 1] >= n - i + 1)


def bruhat_vector(perm: Sequence[int]) -> tuple[int, ...]:
    n = len(perm)
    return tuple(bruhat_rij(perm, i, j)
                 for i in range(1, n) for j in range(1, n))
