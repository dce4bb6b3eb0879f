"""Orbit catalogs: enumeration, counting, dimensions, closures, Hasse data.

A catalog lists one entry per orbit of the block Borel on the flag
variety of the pair: the normal form, its full rank signature and the
orbit dimension, all taken from the form's own integer rows, whose
column prefixes span its flag, and the form's serialized key, which the
build computes once and the catalog text and DOT print; its rational
flag is realized only when read.  The dimension is the codimension in b'
of the Lie-algebra stabilizer: X stabilizes the flag when y^T X u = 0
for every column u of each block t and every y annihilating the t-th
subspace, and the rank of these integer conditions is the dimension.
Forms share column prefixes, so a build keeps one memo of these
conditions, dropped when the build ends: it maps (entry for the blocks
before t, columns of block t) to the echelon bases of the conditions and
of the columns of blocks 1..t, so a miss reduces only the block's own
columns, and it stores nothing for the last block with conditions, whose
prefixes are almost all distinct (its measured size is in the README's
catalogs bullet).  ``orbit_dimension`` computes the dimension the same
way for one rational flag, with a memo of its own for that call, after
scaling each column of its representative to integers; the g^{-1} X g
formulation is kept in ``tests/conftest.py`` as the reference the tests
compare against.  Closed orbits are the fixed points: dimension 0.
The candidate partial order is entry-wise signature dominance, which rank
semicontinuity makes a necessary condition for closure; its transitive
reduction is emitted as a DOT digraph but never claimed to be the closure
order itself.  Its covers come from bitsets over the entries: ANDing, over
the signature coordinates, the set of entries whose value there is at
least an entry's own gives the entries that dominate it, and its covers
are the minimal ones among those; each coordinate's sets are read off
one bit text filled value by value, from the largest down.  A catalog
computes them on the first read of its ``covers`` and keeps them, so
``enumerate`` and ``hasse`` in one process reduce the order once.
Entries are slotted objects whose ``__dict__`` is made only when their
``flag`` is first read: after the build of ``(1,5)/(1^6)``, 4,051
entries, ``tracemalloc`` counts 1,109 bytes kept per entry, against
1,198 when entries were frozen dataclasses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .flags import Composition, Flag
from .invariants import (JFamily, Signature, invariant_family, rank_table,
                         verify_family_invariance)
from .linalg import (QQ, Matrix, _Value, _basis_kernel, _echelon_basis,
                     _set, echelon_extend)
from .normalforms import (CaseTag, InfinitePairError, NonInjectiveError,
                          NormalForm, UnsupportedCaseError,
                          case0_normal_forms, case3prime_normal_forms,
                          classify_pair, has_catalog, pattern_candidates,
                          counterexample_pair)


class CatalogEntry(_Value):
    # ``__dict__`` holds the realized flag
    __slots__ = ("nf", "sig", "dim", "key", "__dict__")

    def __init__(self, nf: NormalForm, sig: Signature, dim: int, key: str):
        _set(self, "nf", nf)
        _set(self, "sig", sig)
        _set(self, "dim", dim)
        _set(self, "key", key)  # nf.serialize(), computed once by the build

    @property
    def closed(self) -> bool:
        """Closed orbits are the fixed points of B': dimension 0."""
        return self.dim == 0

    @cached_property
    def flag(self) -> Flag:
        """The rational representative, realized on first read."""
        return self.nf.realize(QQ)


class OrbitCatalog(_Value):
    # ``__dict__`` holds the cached properties
    __slots__ = ("case", "nn", "mm", "family", "entries", "__dict__")

    def __init__(self, case: CaseTag, nn: Composition, mm: Composition,
                 family: JFamily, entries: tuple[CatalogEntry, ...]):
        _set(self, "case", case)
        _set(self, "nn", nn)
        _set(self, "mm", mm)
        _set(self, "family", family)
        _set(self, "entries", entries)

    @cached_property
    def by_values(self) -> dict[tuple[int, ...], CatalogEntry]:
        """Entries keyed by signature values; it holds fewer than
        ``entries`` only when two entries share a signature."""
        return {e.sig.values: e for e in self.entries}

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The covers of signature dominance, ``hasse_candidate(self)``,
        computed on first read and kept with the catalog.  The call goes
        through this module's global, so a wrapper bound there (the
        benchmark's tracer, a test's counter) sees each computation."""
        return hasse_candidate(self)


@lru_cache(maxsize=None)
def enumerate_orbits(nn: Composition, mm: Composition) -> OrbitCatalog:
    """Orbit catalog of the pair, sorted by (dimension, normal form).

    Built once per pair and cached for the life of the process.  Its
    dominance covers are computed on first read of ``covers`` and kept
    with it, so the verbs of one process that print them pay for them
    once.
    """
    tag = classify_pair(nn, mm)
    if tag is None:
        raise InfinitePairError(
            f"pair (nn={nn} | mm={mm}) has infinitely many orbits")
    if not tag.injective:
        witnesses = None
        try:
            witnesses = counterexample_pair(nn, mm)
        except (UnsupportedCaseError, ValueError):
            pass
        raise NonInjectiveError(
            f"case {tag} of (nn={nn} | mm={mm}) is not separated by signatures; "
            "enumeration refused", witnesses=witnesses)
    if not has_catalog(tag):
        raise UnsupportedCaseError(
            f"case {tag} of (nn={nn} | mm={mm}) is separable but has no "
            "classification; enumeration unavailable")

    fam = invariant_family(nn, mm)
    verify_family_invariance(fam)

    if tag.label == "0":
        forms = case0_normal_forms(nn, mm)
    elif tag.label == "III'":
        forms = case3prime_normal_forms(nn, mm)
    else:
        forms = pattern_candidates(tag, nn, mm)

    # Echelon steps repeat across candidates, so they are shared within
    # this build.  A dual pattern computes its rows on every read, so the
    # rows ranked are kept for the dimension.
    steps: dict = {}
    by_sig: dict[tuple[int, ...], tuple[str, NormalForm, tuple]] = {}
    for nf in forms:
        rows = nf.rows
        values = rank_table(rows, fam, steps)
        key = nf.serialize()
        known = by_sig.get(values)
        if known is None or key < known[0]:
            by_sig[values] = (key, nf, rows)

    if tag.label in ("0", "III'") and len(by_sig) != len(forms):
        raise AssertionError(
            f"normal forms of case {tag} are not signature-separated: "
            f"{len(forms)} forms, {len(by_sig)} signatures")

    # Forms share column prefixes, so the dimension conditions of each
    # prefix are computed once within this build.
    memo: dict = {}
    ranked = sorted((_annihilator_dimension(rows, nn, mm, memo), key,
                     values, nf)
                    for values, (key, nf, rows) in by_sig.items())
    # Each kept key is copied: the key was allocated among the rank steps,
    # which are freed when the build ends, and a kept string would hold
    # their memory in place (the process holds 121 MiB after the
    # (6,1)/(1^7) build and a collection, 80 MiB with the copies).
    entries = tuple(CatalogEntry(nf, Signature(fam, values), dim,
                                 key.encode().decode())
                    for dim, key, values, nf in ranked)
    return OrbitCatalog(tag, nn, mm, fam, entries)


@lru_cache(maxsize=None)
def _bprime_rows(nn: Composition) -> tuple[tuple, int]:
    """For each row a, the pairs (k, b) with X_ab the k-th coordinate of
    b' (a <= b inside one row block, numbered row by row), and the number
    of coordinates; built once per ``nn``."""
    rows, k = [], 0
    for blk in range(len(nn)):
        stop = nn.block_range(blk).stop
        for a in nn.block_range(blk):
            rows.append(tuple(enumerate(range(a, stop), k)))
            k += stop - a
    return tuple(rows), k


def _annihilator_dimension(rows: Sequence[Sequence[int]], nn: Composition,
                           mm: Composition, memo: dict | None = None) -> int:
    """Orbit dimension of the flag whose column prefixes ``rows`` span.

    X in b' stabilizes the flag exactly when X u lies in U_t for every
    column u of block t, U_t being the span of the columns of blocks
    1..t (the last block's conditions are empty, since U_l is everything).
    That holds when y^T X u = 0 for every y in an integer basis of the
    annihilator of U_t, a condition linear in the coordinates X_ab of b'
    with coefficient y_a * u[b].  The orbit dimension is the rank of these
    conditions, all integers: no completion, no inverse, no ``Fraction``.
    Each condition is built from the nonzero entries of y and u alone,
    and one with no nonzero coefficient is skipped.  The conditions of
    blocks 1..t are folded into one echelon basis with
    ``linalg.echelon_extend``, block after block, and the rank is its
    size.  The annihilator of U_t is read off the echelon basis of its
    columns, which extends that of U_{t-1} by the columns of block t.

    ``memo`` shares these bases between the forms of one catalog build,
    which creates it and drops it when it ends; a call given none uses a
    fresh one.  Its key for block t is (id of the entry for the blocks
    before t, the columns of block t), so a key names a whole column
    prefix; its value is (entry id, echelon basis of the conditions of
    blocks 1..t, echelon basis of the columns of blocks 1..t).  The last
    block with conditions is not stored, since its prefixes are almost
    all distinct.  The README's catalogs bullet gives its measured size.
    """
    memo = {} if memo is None else memo
    table, size = _bprime_rows(nn)
    cols = list(zip(*rows))
    cuts = mm.prefix_sums()
    last = len(mm) - 2
    entry, basis, span = 0, (), ()
    for t in range(last + 1):
        block = tuple(cols[cuts[t]:cuts[t + 1]])
        stored = t < last
        if stored:
            key = (entry, block)
            known = memo.get(key)
            if known is not None:
                entry, basis, span = known
                continue
        span = _echelon_basis(block, span)
        for y in _basis_kernel(span, len(rows)):
            nonzero = [(table[a], x) for a, x in enumerate(y) if x]
            for u in block:
                row = None
                for coords, x in nonzero:
                    for k, b in coords:
                        if u[b]:
                            if row is None:
                                row = [0] * size
                            row[k] = x * u[b]
                if row is not None:
                    basis = echelon_extend(basis, row)
        if stored:
            entry = len(memo) + 1
            memo[key] = (entry, basis, span)
    return len(basis)


def enumeration_count(nn: Composition, mm: Composition) -> int:
    """Number of orbits by direct normal-form generation.

    For the exactly-classified cases (two blocks on both sides, or one
    row block of size one) this counts the combinatorial normal forms
    without realizing them; other cases fall back to the full catalog.
    """
    tag = classify_pair(nn, mm)
    if tag is None:
        raise InfinitePairError(f"pair ({nn}, {mm}) is infinite")
    if tag.label == "0":
        return len(case0_normal_forms(nn, mm))
    if tag.label == "III'":
        return len(case3prime_normal_forms(nn, mm))
    return len(enumerate_orbits(nn, mm).entries)


def count_multiplicity_free(n: int, mm: Composition) -> int:
    """Closed-form orbit count for the pair with row blocks ``(n-1, 1)``.

    ``(1/n) * multinomial(n; m) * sum_k sigma_k(m) / (k-1)!`` with sigma_k
    the elementary symmetric functions of the column block sizes; the
    result is always integral, and a non-integral value signals misuse.
    """
    if mm.n != n:
        raise ValueError("mm must be a composition of n")
    parts = mm.parts
    multinom = math.factorial(n)
    for p in parts:
        multinom //= math.factorial(p)
    # elementary symmetric values via prod (1 + m_j x)
    coeffs = [1]
    for p in parts:
        coeffs = [a + p * b for a, b in
                  zip(coeffs + [0], [0] + coeffs)]
    total = Fraction(0)
    for k in range(1, len(parts) + 1):
        total += Fraction(coeffs[k], math.factorial(k - 1))
    value = Fraction(multinom, n) * total
    if value.denominator != 1:
        raise ValueError(f"count formula returned non-integer {value}")
    return int(value)


# ---------------------------------------------------------------------------
# dimension and closedness
# ---------------------------------------------------------------------------


def _integer_rows(rep: Matrix) -> list[list[int]]:
    """Rows of a rational ``rep`` after scaling each column by the lcm of
    its entries' denominators."""
    scales = [math.lcm(*(x.denominator for x in col)) for col in rep.columns()]
    return [[int(x * k) for x, k in zip(row, scales)] for row in rep.data]


def orbit_dimension(f: Flag, nn: Composition) -> int:
    """dim of the block-Borel orbit through ``f`` (rational Lie algebra).

    Scaling a column by a nonzero number changes no subspace of the flag,
    so the representative's integer rows (``_integer_rows``) give the
    dimension through ``_annihilator_dimension``, the computation catalogs
    use.  ``tests/conftest.py`` keeps the g^{-1} X g formulation, with g
    the completion of the representative, as the reference.
    """
    if f.field is not QQ:
        raise ValueError("orbit dimensions are computed over Q")
    return _annihilator_dimension(_integer_rows(f.rep), nn, f.typ)


def is_closed_flag(f: Flag, nn: Composition) -> bool:
    """Closedness = being a fixed point of the block Borel.

    Catalogs take closedness from the orbit dimension; this per-flag test
    is the reference the tests check them against.  A flag is fixed
    exactly when each of its subspaces is spanned by standard basis
    vectors whose indices form a prefix of every row block
    (torus-invariance forces coordinate spans, triangularity forces
    prefixes).
    """
    F = f.field
    rep = f.rep
    one, zero = F.one, F.zero
    col_rows = []
    for j in range(rep.cols):
        col = rep.column(j)
        support = [i for i, x in enumerate(col) if x != zero]
        if len(support) != 1 or col[support[0]] != one:
            return False
        col_rows.append(support[0])
    ps = f.typ.prefix_sums()
    for t in range(1, len(f.typ)):
        occupied = set(col_rows[:ps[t]])
        for b in range(len(nn)):
            rows = list(nn.block_range(b))
            hit = [i for i, r in enumerate(rows) if r in occupied]
            if hit and hit != list(range(len(hit))):
                return False
    return True


# ---------------------------------------------------------------------------
# dominance order
# ---------------------------------------------------------------------------


class DominanceDimensionError(RuntimeError):
    """A dominance cover fails to increase the orbit dimension."""


def hasse_candidate(cat: OrbitCatalog) -> tuple[tuple[int, int], ...]:
    """Sorted (lower, upper) covers of signature dominance over the catalog.

    ``up[a]`` is the bitset of entries whose every signature value is at
    least a's, a included: the AND over coordinates k of the bitset of
    entries whose k-th value is at least a's.  The covers of a are the
    minimal entries of ``up[a]`` minus a (Aho, Garey and Ullman, SIAM J.
    Comput. 1(2), 1972).  Bits are numbered by signature sum, which
    strictly increases along dominance, so the lowest bit left is always
    minimal: take it as a cover, clear its ``up``, repeat.  Index order
    and ``dim`` play no part.  A coordinate's bitsets take one pass: one
    bit text, all ``0``, gains a ``1`` for each entry, value by value from
    the largest down, and is parsed once per distinct value.  This needs
    catalog signatures to be pairwise distinct, so that dominance is a
    partial order; ``enumerate_orbits`` keeps one entry per signature.

    Guard: every cover must strictly increase the orbit dimension (a
    consequence of closures being unions of smaller orbits); violations
    are reported, never repaired.
    """
    sigs = [e.sig.values for e in cat.entries]
    n = len(sigs)
    order = sorted(range(n), key=lambda i: sum(sigs[i]))
    up = [(1 << n) - 1] * n
    for column in zip(*sigs):
        # character n - 1 - pos of the text is bit pos
        chars: dict[int, list[int]] = {}
        for pos, a in enumerate(order):
            chars.setdefault(column[a], []).append(n - 1 - pos)
        bits = bytearray(b"0" * n)
        at_least = {}
        for v in sorted(chars, reverse=True):
            for i in chars[v]:
                bits[i] = 49  # ord("1")
            at_least[v] = int(bits, 2)
        for a, v in enumerate(column):
            up[a] &= at_least[v]
    edges = []
    for pos, a in enumerate(order):
        rest = up[a] & ~(1 << pos)
        while rest:
            b = order[(rest & -rest).bit_length() - 1]
            edges.append((a, b))
            rest &= ~up[b]
    edges.sort()
    offenders = [(a, b) for a, b in edges
                 if cat.entries[a].dim >= cat.entries[b].dim]
    if offenders:
        raise DominanceDimensionError(
            f"covers without dimension increase: {offenders}")
    return tuple(edges)


def emit_dot(covers: Sequence[tuple[int, int]], cat: OrbitCatalog) -> str:
    """Deterministic DOT digraph of the catalog, ranked by orbit dimension.

    ``covers`` is the dominance transitive reduction ``hasse_candidate``
    returns; whether it equals the true closure order is not certified.
    """
    lines = [
        "// orbit poset candidate: signature-dominance transitive reduction",
        "// (dominance is necessary for closure; equality is not certified)",
        "digraph orbits {",
        "  rankdir=BT;",
        "  node [shape=box];",
    ]
    by_dim: dict[int, list[int]] = {}
    for i, e in enumerate(cat.entries):
        by_dim.setdefault(e.dim, []).append(i)
    for d in sorted(by_dim):
        ids = " ".join(f"n{i};" for i in sorted(by_dim[d]))
        lines.append(f"  {{ rank=same; {ids} }}")
    for i, e in enumerate(cat.entries):
        label = e.key.replace('"', r'\"')
        lines.append(f'  n{i} [label="dim={e.dim} {label}"];')
    for a, b in covers:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# catalog text format
# ---------------------------------------------------------------------------


def catalog_to_text(cat: OrbitCatalog) -> str:
    lines = [f"case={cat.case.label} nn={cat.nn} mm={cat.mm} "
             f"count={len(cat.entries)}"]
    for i, e in enumerate(cat.entries):
        lines.append(f"entry {i} dim={e.dim} closed={int(e.closed)} "
                     f"sig={e.sig.hash()} nf={e.key}")
    for a, b in cat.covers:
        lines.append(f"cover {a} {b}")
    return "\n".join(lines) + "\n"
