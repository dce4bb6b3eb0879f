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
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .flags import Composition, Flag, invariant_row_sets, random_borel_prime, act
from .linalg import QQ, integer_rank, gf


@dataclass(frozen=True)
class JFamily:
    """Ordered family of (s, J) pairs whose rank maps are B'-invariant."""

    nn: Composition
    mm: Composition
    entries: tuple[tuple[int, tuple[int, ...]], ...]  # (s, rows J), sorted

    def __len__(self):
        return len(self.entries)

    def index(self):
        return {e: i for i, e in enumerate(self.entries)}


@dataclass(frozen=True)
class Signature:
    """Values of every invariant rank map on one flag."""

    family: JFamily
    values: tuple[int, ...]

    def serialize(self) -> str:
        lines = []
        for (s, J), v in zip(self.family.entries, self.values):
            jtxt = "{" + ",".join(str(j) for j in J) + "}"
            lines.append(f"s={s} J={jtxt} r={v}")
        return "\n".join(lines)

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

    Row sets are handled in one exact pass without ``Fraction``s.  The
    echelon basis of J is the memoized basis of J minus its first row,
    extended by that row through integer cross-multiplication; J minus
    its first row is again a union of per-block suffixes.  Each basis row
    is divided by its content and has its pivot at its first nonzero
    column, all pivots distinct, so the rank of the first c columns of
    the J rows is the number of pivots left of c.

    ``steps`` memoizes ``_echelon_extend`` on its (basis, row) arguments.
    The step is a pure function, so one dict may be shared by every call
    of a catalog build, whose candidates repeat the same few steps.
    """
    cuts = fam.mm.prefix_sums()
    rows = [tuple(r) for r in rows]
    steps = {} if steps is None else steps
    bases: dict[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]] = {
        (): ()}

    def basis(J: tuple[int, ...]):
        known = bases.get(J)
        if known is None:
            step = (basis(J[1:]), rows[J[0] - 1])
            known = steps.get(step)
            if known is None:
                known = steps[step] = _echelon_extend(*step)
            bases[J] = known
        return known

    return tuple(sum(1 for pivot, _ in basis(J) if pivot < cuts[s])
                 for s, J in fam.entries)


def _echelon_extend(basis, row):
    """Add one integer row to an echelon basis of (pivot, row) pairs sorted
    by pivot; the basis comes back unchanged when the row depends on it."""
    v = tuple(row)
    for pivot, b in basis:
        c = v[pivot]
        if c:
            a = b[pivot]
            v = tuple(a * x - c * y for x, y in zip(v, b))
    lead = next((j for j, x in enumerate(v) if x), None)
    if lead is None:
        return basis
    g = math.gcd(*v)
    return tuple(sorted(basis + ((lead, tuple(x // g for x in v)),)))


INVARIANCE_TRIALS = 4


def verify_family_invariance(fam: JFamily) -> None:
    """Randomized guard: every family entry must be constant on B'-orbits.

    Probes ``INVARIANCE_TRIALS`` random flags and random B' elements over
    GF(3), seeded by the pair, so a pair always gets the same probes;
    raises ``AssertionError`` on any violation.  Cheap enough to run at
    the start of every catalog enumeration.
    """
    from .flags import random_flag  # local import to avoid cycle noise

    rng = random.Random(hash((fam.nn.parts, fam.mm.parts)) & 0xFFFF)
    F = gf(3)
    for _ in range(INVARIANCE_TRIALS):
        f = random_flag(fam.mm, F, rng)
        g = random_borel_prime(fam.nn, F, rng)
        moved = act(g, f)
        for s, J in fam.entries:
            if rank_js(f, J, s) != rank_js(moved, J, s):
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
