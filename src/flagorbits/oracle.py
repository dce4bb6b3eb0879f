"""Ground-truth brute force over GF(q).

Enumerates every flag of a type as a canonical representative, partitions
them into orbits of the block Borel, and cross-validates catalogs against
the partition.  The heavy lifting is vectorized: all representatives
live in one array of residues in ``np.min_scalar_type(q - 1)`` (one byte
for q <= 256), and the canonical-form pass processes every matrix in
lock step (same pivot convention as :mod:`flagorbits.flags`, verified by
tests).  The orbits are the connected components of the graph with an
edge F -- g·F for every group element g sent to a flag F, and each
generator is sent only to the flags it has to, by its shape:

1. a torus generator (diagonal, no zero on the diagonal) goes to one flag
   per current class, since torus generators are taken first and commute:
   g·(h·F) = h·(g·F).  After them the classes are the orbits of the torus
   T they generate.  When their product is a scalar matrix, as for every
   q > 2 with ``group_generators``, the last one is skipped: scalars fix
   every flag, so it moves flags as the others' inverses do.  Its images
   are index arithmetic on the enumeration, taken in its own order;
2. a root element G = I + c·e_i e_jᵀ (i != j) sends G, G², ..., G^(q-1)
   to one flag per T-orbit, the roots as step 1 left them: for d in T,
   G·(d·F) = d·(G^k·F) with k = d_j/d_i, since d⁻¹Gd = G^k.  No such
   edge depends on another, so all powers of all root elements go out in
   one batched sweep.

Any other generator, an n x n matrix of another shape or a matrix of
another size, is refused before the first sweep.  Only the root powers'
images are canonicalized.  Signature vectors follow the family's rank
plan, as catalog builds do: one batched GF(q) echelon step per distinct
(subspace, row) pair, and each entry a count of pivots
(``_signature_vectors``).  Cross-validation realizes no catalog entry as
a flag: every entry's integer rows are reduced mod q, canonicalized in
one batch and found with one key search.
Arithmetic is integer-only throughout, and numpy is the only dependency.

Memory: partitioning N flags of n x C stored entries, s bytes each (the
storage dtype), peaks below (n*C*s + 81)*N + max(24*n*C, 80)*CHUNK +
2**20 bytes of allocations, plus index tables of G*(D*q + q**(D//2) +
q**(D - D//2)) items of at most n*C*s + 8 bytes, for G groups of at most
D cells (``_half_tables``).  The flags exist once, enumerated and checked
CHUNK at a time.  A sorted key index takes 16 bytes per flag and the
component forest 8; a torus sweep's sources and images 8 each, and
hooking at most N edges two gathers and a mask, then four index arrays
over the joining edges and the mask, and in pointer jumping one more
forest and a mask: 33 bytes per flag at most.  Then the snapshot of the
T-orbits' roots takes 8, and the batched sweep's two buffers of pending
edges 16.  So the torus sweeps hold 73 bytes per flag and the root sweep
81.  The rest is one chunk of working arrays (80 bytes per flag of it in
a torus sweep) and small objects.

The signature vectors of N flags then peak below
(E + 8*L + 3*C*C*s + 64)*N + 8*C*(C + 2)*w*CHUNK + 2**20 bytes, for E
family entries, L the most slots of the rank plan alive at once and w
bytes per working residue: the uint8 vectors (E bytes per flag) and one
8-byte state per live slot; in a step, a key per flag and a sort's
copies of it (57 bytes per flag at most), then, for each distinct
(subspace, row) pair, at most one per flag, its new basis (C*C*s bytes)
and that basis's key with a sort's copies (at most 65 bytes, or
2*C*C*s + 41 when the keys are records).  The echelon step works on
CHUNK pairs at a time.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .flags import Composition, Flag, group_generators
from .invariants import invariant_family, signature
from .linalg import gf
from .normalforms import WitnessPair
from .orbits import OrbitCatalog

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    pass


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def flag_count(n: int, mm: Composition, q: int) -> int:
    total = 1
    rest = n
    for p in mm.parts:
        total *= gaussian_binomial(rest, p, q)
        rest -= p
    return total


def check_budget(n: int, mm: Composition, q: int, budget: int) -> int:
    """Number of flags of the type, or ``BudgetExceededError`` above budget."""
    total = flag_count(n, mm, q)
    if total > budget:
        raise BudgetExceededError(
            f"{total} flags of type {mm} over GF({q}) exceed budget {budget}")
    return total


# ---------------------------------------------------------------------------
# vectorized canonical representatives
# ---------------------------------------------------------------------------

# Flags per step of the batch kernels and of a generator sweep: the
# working arrays of one step are O(CHUNK * n * C), whatever N is.
CHUNK = 1 << 13


def _storage_dtype(p: int) -> np.dtype:
    """The dtype that stores residues mod p: one byte for p <= 256."""
    return np.min_scalar_type(p - 1)


def _work_dtype(p: int) -> type:
    """The dtype of the batch kernels' arithmetic.  Every value they form
    is x*y, x - y*z or x + y*z with residues x, y, z in [0, p), so its
    magnitude stays below (p-1)**2 + (p-1): int32 is exact while that
    bound is below 2**31 (p <= 46337 among primes), int64 for every
    p < 2**31."""
    bound = (p - 1) ** 2 + (p - 1)
    if bound < 2**31:
        return np.int32
    if bound < 2**63:
        return np.int64
    raise ValueError(f"GF({p}): residue products overflow int64")


def _planes(A: np.ndarray, p: int) -> np.ndarray:
    """``A mod p`` for a stack of shape (K, rows, cols) of any integer
    dtype, in the working dtype and laid out (cols, rows, K): every column
    of the stack is one contiguous (rows, K) plane."""
    work = _work_dtype(p)
    if not np.can_cast(A.dtype, work):
        A = np.mod(A, p, dtype=np.int64)    # reduce before narrowing
    W = np.ascontiguousarray(A.transpose(2, 1, 0), dtype=work)
    W %= p
    return W


def _inverses(x: np.ndarray, p: int) -> np.ndarray:
    """x**(p-2) mod p elementwise: the inverse of every nonzero residue
    (Fermat), by square-and-multiply within the working-dtype bound."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def canonicalize_batch(A: np.ndarray, p: int,
                       boundaries: Sequence[int]) -> np.ndarray:
    """Canonical flag representatives for a stack of matrices.

    ``A`` has shape (N, n, C) and any integer dtype; ``boundaries`` lists
    the starting column of every stored block.  The result holds residues
    in the storage dtype.  The convention is ``flags._canonical_rep``'s,
    which handles one flag over any field; tests compare the two.
    """
    N, n, C = A.shape
    out = np.empty(A.shape, dtype=_storage_dtype(p))
    if C == 0:
        return out
    bounds = list(boundaries) + [C]
    starts = [max(b for b in boundaries if b <= c) for c in range(C)]
    for lo in range(0, N, CHUNK):
        W = _planes(A[lo:lo + CHUNK], p)
        ar = np.arange(W.shape[2])
        used = np.zeros(W.shape[1:], dtype=bool)
        prow = np.zeros((C, W.shape[2]), dtype=np.intp)
        for c in range(C):
            col = W[c]
            for pc in range(c):
                factor = col[prow[pc], ar]
                if factor.any():
                    col -= factor * W[pc]
                    col %= p
            cand = (col != 0) & ~used
            if not cand.any(axis=0).all():
                raise ValueError("rank-deficient representative in batch")
            piv = cand.argmax(axis=0)
            col *= _inverses(col[piv, ar], p)
            col %= p
            for pc in range(starts[c], c):
                factor = W[pc][piv, ar]
                if factor.any():
                    W[pc] -= factor * col
                    W[pc] %= p
            used[piv, ar] = True
            prow[c] = piv
        # order the columns of each block by pivot row
        for b0, b1 in zip(bounds, bounds[1:]):
            if b1 - b0 > 1:
                order = np.argsort(prow[b0:b1], axis=0, kind="stable")
                W[b0:b1] = np.take_along_axis(W[b0:b1], order[:, None, :],
                                              axis=0)
        out[lo:lo + CHUNK] = W.transpose(2, 1, 0)
    return out


# ---------------------------------------------------------------------------
# flag enumeration
# ---------------------------------------------------------------------------


def _pivot_paths(rows: list[int], widths: Sequence[int]):
    """Every choice of new pivot rows, block by block, from the free
    ``rows``: tuples of one sorted tuple per block, in lexicographic
    order."""
    if not widths:
        yield ()
        return
    for newpiv in itertools.combinations(rows, widths[0]):
        rest = [r for r in rows if r not in newpiv]
        for tail in _pivot_paths(rest, widths[1:]):
            yield (newpiv,) + tail


@functools.lru_cache(maxsize=8)
def _enumeration_table(n: int, mm: Composition, q: int):
    """The G groups of ``enumerate_flag_array(n, mm, q)``, one per choice
    of pivot rows (``_pivot_paths``): the first index of each, and N last;
    the (row, column) of each cell, least significant first, as (G, D)
    arrays padded with cells that are 0 in all the group's flags (a group
    of k cells has n*C - C - k >= D - k); and the (G, C) pivot rows.
    Flag i of group g has as cell digits those of i - offsets[g] in base q.
    """
    C, groups = n - mm.parts[-1], []
    for path in _pivot_paths(list(range(n)), mm.parts[:-1]):
        pivots, cells, col, used = [], [], 0, set()
        for newpiv in path:
            used.update(newpiv)
            cells = [(rr, col + k) for k, pk in enumerate(newpiv)
                     for rr in range(pk + 1, n) if rr not in used] + cells
            pivots += [(pk, col + k) for k, pk in enumerate(newpiv)]
            col += len(newpiv)
        groups.append((pivots, cells))
    D = max(len(cells) for _, cells in groups)
    rows, cols = np.empty((2, len(groups), D), dtype=np.intp)
    pivots = np.empty((len(groups), C), dtype=np.intp)
    for g, (piv, cells) in enumerate(groups):
        zeros = sorted(set(itertools.product(range(n), range(C)))
                       - set(piv + cells))
        rows[g], cols[g] = np.array(cells + zeros[:D - len(cells)],
                                    dtype=np.intp).reshape(D, 2).T
        pivots[g] = [r for r, _ in piv]
    offsets = np.cumsum([0] + [q ** len(cells) for _, cells in groups])
    for shared in (offsets, rows, cols, pivots):   # cached: read-only
        shared.flags.writeable = False
    return offsets, rows, cols, pivots


def _half_tables(values: np.ndarray, q: int) -> list[np.ndarray]:
    """Two tables that sum ``values[g, e, x]`` (shape (G, D, q) plus an
    item shape), what digit e adds to a flag of group g when it is x, over
    the low h = D // 2 digits (G * q**h items) and the rest (G * q**(D-h)
    items), indexed by group and digits (``_halves``)."""
    G, D, item = values.shape[0], values.shape[1], values.shape[3:]
    tables = []
    for lo, hi in ((0, D // 2), (D // 2, D)):
        table = np.zeros((G,) + (q,) * (hi - lo) + item, dtype=values.dtype)
        for e in range(lo, hi):
            # the most significant digit is the first axis after the group
            table += values[:, e].reshape(
                (G,) + (1,) * (hi - 1 - e) + (q,) + (1,) * (e - lo) + item)
        tables.append(table.reshape((G * q ** (hi - lo),) + item))
    return tables


def _halves(offsets: np.ndarray, D: int, q: int,
            at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The items of the flags at the ascending indices ``at`` in the low
    and the high table of ``_half_tables``."""
    width = q ** (D // 2)
    g = np.repeat(np.arange(len(offsets) - 1),
                  np.diff(np.searchsorted(at, offsets)))
    local = at - offsets[g]
    high = local // width
    return g * width + local - high * width, g * q ** (D - D // 2) + high


def _enumeration_chunks(n: int, mm: Composition, q: int):
    """``enumerate_flag_array(n, mm, q)`` as (first index, CHUNK flags)
    pairs, each flag the sum of its rows in two ``_half_tables``."""
    offsets, rows, cols, pivots = _enumeration_table(n, mm, q)
    (G, D), C, N = rows.shape, pivots.shape[1], int(offsets[-1])
    # digit x at its cell; a group with a cell holds q flags or more
    x = np.arange(min(q, N), dtype=_storage_dtype(q))[:, None]
    low, high = _half_tables(
        x * ((rows * C + cols)[:, :, None, None] == np.arange(n * C)), q)
    low.reshape(G, q ** (D // 2), n * C)[np.arange(G)[:, None], :,
                                         pivots * C + np.arange(C)] = 1
    for lo in range(0, N, CHUNK):
        a, b = _halves(offsets, D, q, np.arange(lo, min(lo + CHUNK, N)))
        yield lo, (np.take(low, a, 0) + np.take(high, b, 0)).reshape(
            len(a), n, C)


def enumerate_flag_array(n: int, mm: Composition, q: int,
                         budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All flags of the type as one canonical array of shape (N, n, C),
    residues in the storage dtype.

    The flags come in groups, one per choice of pivot rows block by block
    (``_pivot_paths`` order).  Column k of a block has a 1 at its pivot
    row and a free residue in every later row that is no pivot of this or
    an earlier block.  Inside a group the free cells count in base q: the
    first block's cells are the most significant digits, and inside a
    block a cell is more significant than those of earlier columns and,
    in its column, of earlier rows.  The flags are built CHUNK at a time
    (``_enumeration_chunks``) into one preallocated array, so they exist
    once.
    """
    out = np.empty((check_budget(n, mm, q, budget), n, n - mm.parts[-1]),
                   dtype=_storage_dtype(q))
    for lo, flags in _enumeration_chunks(n, mm, q):
        out[lo:lo + CHUNK] = flags
    return out


def _encode_keys(A: np.ndarray, p: int):
    """One sort key per matrix of a stack of residues.  While p**digits
    <= 2**63 the key is the int64 whose base-p digits are the entries,
    built digit by digit (Horner); beyond, the entries themselves as one
    structured record."""
    N, n, C = A.shape
    digits = n * C
    flat = A.reshape(N, digits)
    if p ** digits <= 2**63:
        keys = np.zeros(N, dtype=np.int64)
        for d in range(digits - 1, -1, -1):
            keys *= p
            keys += flat[:, d]
        return keys
    dtype = _storage_dtype(p)
    flat = np.ascontiguousarray(flat, dtype=dtype)
    return flat.view([("", dtype)] * digits).reshape(N)


# ---------------------------------------------------------------------------
# orbit partition
# ---------------------------------------------------------------------------


@dataclass
class OrbitPartition:
    q: int
    nn: Composition
    mm: Composition
    reps: np.ndarray            # (N, n, C) canonical representatives
    labels: np.ndarray          # (N,) class ids, by first appearance

    def __post_init__(self):
        keys = _encode_keys(self.reps, self.q)
        self._sort_idx = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._sort_idx]

    @property
    def size(self) -> int:
        return int(self.reps.shape[0])

    @property
    def class_count(self) -> int:
        return int(self.labels.max()) + 1 if self.size else 0

    @functools.cached_property
    def first_index(self) -> np.ndarray:
        """Index of the first flag of every class, in class order."""
        return np.unique(self.labels, return_index=True)[1]

    def class_sizes(self) -> list[int]:
        return np.bincount(self.labels, minlength=self.class_count).tolist()

    def _search(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate indices of a stack of matrices in the enumeration, and
        whether each candidate is the matrix itself: one key search."""
        keys = _encode_keys(A, self.q)
        pos = np.minimum(np.searchsorted(self._sorted_keys, keys),
                         self.size - 1)
        return self._sort_idx[pos], self._sorted_keys[pos] == keys

    def locate(self, A: np.ndarray) -> np.ndarray:
        """Indices of a stack of canonical matrices in the enumeration;
        ``KeyError`` if one of them is not enumerated."""
        idx, found = self._search(A)
        if not found.all():
            raise KeyError("flag is not in the enumerated variety")
        return idx

    def class_of_flag(self, f: Flag) -> int:
        _, n, C = self.reps.shape
        if f.typ != self.mm or f.n != n:
            raise KeyError(f"flag of type {f.typ} does not belong to the "
                           f"enumerated variety of type {self.mm}")
        if f.field != gf(self.q):
            raise KeyError(f"flag over {f.field} does not belong to the "
                           f"variety enumerated over GF({self.q})")
        mat = np.array([[int(x) for x in row] for row in f.rep.data],
                       dtype=np.int64).reshape(1, n, C)
        return int(self.labels[self.locate(mat)[0]])


def _classify(G: np.ndarray, n: int, q: int,
              pos: int) -> np.ndarray | tuple[int, int, int]:
    """Generator ``pos`` of a partition, reduced mod q: the diagonal d of
    a torus element diag(d) (no zero on it), or (i, j, c) for a root
    element I + c·e_i e_jᵀ (i != j, c != 0).  ``ValueError`` for anything
    else, an n x n matrix of another shape or a matrix of another size."""
    G = np.mod(G, q, dtype=np.int64)
    if G.shape == (n, n):
        d = np.diag(G)
        off = np.argwhere(G != np.diag(d))
        if not len(off) and d.all():
            return d
        if len(off) == 1 and (d == 1).all():
            i, j = off[0].tolist()
            return i, j, int(G[i, j])
    raise ValueError(f"generator {pos} is not a {n}x{n} torus or root "
                     f"element mod {q}")


def _torus_image(part: OrbitPartition, d: np.ndarray,
                 src: np.ndarray) -> np.ndarray:
    """Index of diag(d)·F for every enumerated flag F at the ascending
    indices ``src``, for nonzero residues d.  diag(d) keeps F in its group
    and turns the digit x of cell (r, c) into x·d_r/d_p mod q, for p the
    pivot row of column c: the image is F's index plus two items of
    ``_half_tables``."""
    q = part.q
    offsets, rows, cols, pivots = _enumeration_table(part.mm.n, part.mm, q)
    x, D = np.arange(min(q, part.size)), rows.shape[1]
    gamma = d[rows] * _inverses(d[np.take_along_axis(pivots, cols, 1)], q) % q
    low, high = _half_tables(
        (gamma[:, :, None] * x % q - x) * q ** np.arange(D)[:, None], q)
    img = np.empty(len(src), dtype=np.intp)
    for lo in range(0, len(src), CHUNK):
        a, b = _halves(offsets, D, q, src[lo:lo + CHUNK])
        img[lo:lo + CHUNK] = (src[lo:lo + CHUNK] + np.take(low, a)
                              + np.take(high, b))
    return img


def _hook(root: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """Join the trees of src[k] and dst[k] in the forest ``root`` for
    every k, in place.

    Hooking plus pointer jumping (Shiloach and Vishkin, J. Algorithms 3,
    1982): ``root`` points every index at its tree's root, and pointers
    only go to smaller indices.  Each edge joining two trees hooks the
    larger root under the smaller, then pointer jumping points every index
    at its root again; the edges are swept until none joins two trees.  So
    each tree's root is its smallest index.
    """
    while True:
        split = root[src] != root[dst]
        if not split.any():
            return
        a, b = root[src[split]], root[dst[split]]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root[:] = jumped


def _root_sweep(part: OrbitPartition, root: np.ndarray,
                moves: Sequence[tuple[int, int, int]], sources: np.ndarray,
                boundaries: Sequence[int]) -> None:
    """Join F and G·F in the forest ``root`` for every root element
    G = I + e·e_i e_jᵀ, given as (i, j, e) in ``moves``, and every flag F
    at the indices ``sources``: one sweep over the virtual list of
    (move, source) pairs.  Each CHUNK of pairs gets row i plus e times
    row j, one slice per run of pairs with one move, and is canonicalized
    and located in one batch; the edges wait in two preallocated buffers
    of max(N, CHUNK), hooked before they overflow."""
    q, reps, N, S = part.q, part.reps, part.size, len(sources)
    work, size, pending = _work_dtype(q), max(N, CHUNK), 0
    count = len(moves) * S
    src_buf, dst_buf = np.empty((2, size), np.intp)
    for lo in range(0, count, CHUNK):
        # pair p is (move p // S, source p % S): one run per move
        hi = min(lo + CHUNK, count)
        runs = range(lo // S, (hi - 1) // S + 1)
        src = np.concatenate([sources[max(lo - m * S, 0):hi - m * S]
                              for m in runs])
        A = reps[src]
        for m in runs:
            i, j, e = moves[m]
            run = A[max(m * S - lo, 0):(m + 1) * S - lo]
            run[:, i] = (run[:, i] + e * run[:, j].astype(work)) % q
        dst = part.locate(canonicalize_batch(A, q, boundaries))
        if pending + len(dst) > size:
            _hook(root, src_buf[:pending], dst_buf[:pending])
            pending = 0
        src_buf[pending:pending + len(dst)] = src
        dst_buf[pending:pending + len(dst)] = dst
        pending += len(dst)
    _hook(root, src_buf[:pending], dst_buf[:pending])


def orbit_partition_from_arrays(reps: np.ndarray, gen_mats: list[np.ndarray],
                                nn: Composition, mm: Composition,
                                q: int) -> OrbitPartition:
    """Split the flags of ``enumerate_flag_array(n, mm, q)`` in its order
    (shape (N, n, C), residues in any integer dtype; ``ValueError`` for
    any other ``reps``) into the orbits of the group the matrices
    ``gen_mats`` generate: the components of the graph with an edge
    F -- g·F for every group element g sent to F.  Classes are numbered by
    their smallest index, which is first appearance.

    Each generator goes only to the flags it has to, by its shape:

    1. Torus generators (diagonal, no zero on the diagonal; T is the group
       they generate) come first, each sent to one flag per current class.
       They commute, so g·(hF) = h·(gF) lies in the class of g·F.  After
       them the classes are the T-orbits.  When the product of all of
       them is a scalar matrix, which fixes every flag, the last one
       moves flags as the product of the others' inverses does and is
       not sent at all; ``group_generators`` has this shape for every
       q > 2.  A torus generator's images are index arithmetic on the
       enumeration (``_torus_image``).
    2. A root element G = I + c·e_i e_jᵀ (i != j) sends its powers G^k
       (entry k·c) for k = 1..q-1 to one flag per T-orbit: the roots as
       step 1 left them, not as later merges leave them, since only a
       T-orbit's flags are all d·R for its root R and d in T.  Then
       G·(d·R) = d·(d⁻¹Gd)·R and d⁻¹Gd = G^k with k = d_j/d_i, so
       G·(d·R) lies in the T-orbit of G^k·R.  These edges do not depend
       on one another, so every power of every root element goes out in
       one batched sweep (``_root_sweep``).

    Any other generator, an n x n matrix of another shape or a matrix of
    another size, raises ``ValueError`` before the first sweep.  Over
    GF(2) T is trivial, so every root power goes to every flag.
    """
    N, n, C = reps.shape
    if (n, C, N) != (mm.n, n - mm.parts[-1], flag_count(n, mm, q)) or any(
            not np.array_equal(flags, reps[lo:lo + CHUNK])
            for lo, flags in _enumeration_chunks(n, mm, q)):
        raise ValueError(f"the flags are not the enumeration of type {mm} "
                         f"over GF({q}) in its order")
    kinds = [_classify(G, n, q, pos) for pos, G in enumerate(gen_mats)]
    torus = [d for d in kinds if isinstance(d, np.ndarray)]
    roots = [e for e in kinds if isinstance(e, tuple)]
    moves = [(i, j, k * c % q) for i, j, c in roots for k in range(1, q)]
    part = OrbitPartition(q, nn, mm, reps, np.zeros(0, dtype=np.int64))
    root = np.arange(N)

    def class_roots() -> np.ndarray:
        return np.flatnonzero(root == np.arange(N))

    # the diagonal of the torus generators' product; each int64 step
    # multiplies two residues, below q**2 < 2**62
    scale = functools.reduce(lambda x, y: x * y % q, torus, 1)
    if torus and (scale == scale[0]).all():
        torus.pop()
    for d in torus:
        src = class_roots()
        _hook(root, src, _torus_image(part, d, src))
    _root_sweep(part, root, moves, class_roots(),
                mm.prefix_sums()[: max(len(mm) - 1, 0)])
    part.labels = (np.cumsum(root == np.arange(N)) - 1)[root]
    return part


def oracle_partition(nn: Composition, mm: Composition, q: int,
                     budget: int = DEFAULT_BUDGET) -> OrbitPartition:
    """Enumerate the variety and split it into block-Borel orbits; the
    enumeration is already canonical, so it is partitioned as it is."""
    arr = enumerate_flag_array(nn.n, mm, q, budget)
    gen_mats = [np.array(g.data, dtype=np.int64)
                for g in group_generators(nn, q)]
    return orbit_partition_from_arrays(arr, gen_mats, nn, mm, q)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    nn: Composition
    mm: Composition
    q: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"oracle-report nn={self.nn} mm={self.mm} q={self.q} "
                 f"ok={int(self.ok)}"]
        for c in self.checks:
            status = "pass" if c.passed else "fail"
            lines.append(f"check={c.name} status={status} detail={c.detail}")
        return "\n".join(lines) + "\n"


EXHAUSTIVE_LIMIT = 25_000


def cross_validate(part: OrbitPartition, cat: OrbitCatalog,
                   exhaustive: Optional[bool] = None) -> ValidationReport:
    """Compare a brute-force partition with an analytic catalog.

    Checks: equal class counts; one normal form per class (a bijection):
    the integer rows of every entry, reduced mod q and canonicalized in
    one batch, are looked up in the enumeration with one key search;
    signature separation, with representative signatures matching the
    catalog; and, when exhaustive, that signature level sets coincide
    with the classes.
    """
    checks = []
    q = part.q
    n_classes = part.class_count
    n_entries = len(cat.entries)
    checks.append(CheckResult(
        "class-count", n_classes == n_entries,
        f"oracle={n_classes} catalog={n_entries}"))

    _, n, C = part.reps.shape
    rows = np.array([e.nf.rows for e in cat.entries],
                    dtype=np.int64).reshape(n_entries, n, C)
    idx, found = part._search(canonicalize_batch(
        rows, q, cat.mm.prefix_sums()[:len(cat.mm) - 1]))
    seen: dict[int, int] = {}
    collisions = []
    missing = []
    for i, (at, ok) in enumerate(zip(idx.tolist(), found.tolist())):
        if not ok:
            missing.append(i)
            continue
        cid = int(part.labels[at])
        if cid in seen:
            collisions.append((seen[cid], i, cid))
        seen[cid] = i
    ok_b = not collisions and not missing and len(seen) == n_classes == n_entries
    detail_b = f"matched={len(seen)}"
    if collisions:
        detail_b += f" collisions={collisions[:3]}"
    if missing:
        detail_b += f" unrealizable={missing[:3]}"
    checks.append(CheckResult("one-form-per-class", ok_b, detail_b))

    fam = cat.family
    duplicate_sigs = len(cat.by_values) != n_entries
    if exhaustive is None:
        exhaustive = part.size <= EXHAUSTIVE_LIMIT
    vectors = _signature_vectors(part, fam) if exhaustive else None
    mismatches = []
    if ok_b:
        first = part.first_index
        rep_vectors = (vectors[first] if exhaustive
                       else _signature_vectors(part, fam, first))
        for cid, vals in enumerate(rep_vectors.tolist()):
            if tuple(vals) != cat.entries[seen[cid]].sig.values:
                mismatches.append(cid)
    ok_c = not duplicate_sigs and not mismatches and ok_b
    checks.append(CheckResult(
        "signatures-separate", ok_c,
        f"duplicates={int(duplicate_sigs)} rep-mismatch={mismatches[:3]}"))

    if exhaustive:
        level = _signature_labels(part, fam, vectors)
        agree = _partitions_equal(level, part.labels)
        checks.append(CheckResult(
            "level-sets-are-orbits", agree,
            f"flags={part.size}"))
    return ValidationReport(part.nn, part.mm, q, tuple(checks))


def validate_witnesses(part: OrbitPartition,
                       pair: WitnessPair) -> ValidationReport:
    """Same-signature different-class verdict for one witness pair."""
    from .normalforms import witness_pair_over

    q = part.q
    d1, d2 = witness_pair_over(pair.nn, pair.mm, q)
    fam = invariant_family(pair.nn, pair.mm)
    same_sig = signature(d1, fam).values == signature(d2, fam).values
    c1 = part.class_of_flag(d1)
    c2 = part.class_of_flag(d2)
    checks = (
        CheckResult("witness-same-signature", same_sig, ""),
        CheckResult("witness-distinct-classes", c1 != c2,
                    f"class1={c1} class2={c2}"),
    )
    return ValidationReport(pair.nn, pair.mm, q, checks)


def _signature_vectors(part: OrbitPartition, fam,
                       idx: Optional[np.ndarray] = None) -> np.ndarray:
    """Signature values, in ``fam.entries`` order, as one uint8 row per
    flag: of the flags at ``idx``, or of all of them.

    Follows ``fam.rank_plan``, as ``invariants.rank_table`` does, batched
    over the flags and over GF(q): each step gives a row set J the echelon
    basis of J[1:] (its parent slot) extended by the one row J[0], and an
    entry's value is the number of pivots of J's basis left of its cut.
    Flags share subspaces, so each slot keeps its distinct reduced echelon
    bases, unique per subspace, in a table, and every flag's state there:
    the id of its basis.  A step keys each flag by (parent state, row),
    runs ``_echelon_step`` once per distinct key and numbers the new bases
    by their entries (``_extend_states``); an entry's values are one
    gather from the slot's pivot counts.  A slot's states and table are
    freed as soon as no later step extends it.
    """
    reps = part.reps if idx is None else part.reps[idx]
    N, n, C = reps.shape
    extend, entries = fam.rank_plan
    out = np.empty((N, len(entries)), dtype=np.uint8)
    by_slot: dict[int, list[tuple[int, int]]] = {}
    for k, (slot, cut) in enumerate(entries):
        by_slot.setdefault(slot, []).append((k, cut))
    last_use = list(range(len(extend) + 1))
    for step, (parent, _) in enumerate(extend, 1):
        last_use[parent] = step
    q, diag = part.q, np.arange(C)
    slots = {0: (np.zeros(N, dtype=np.intp),
                 np.zeros((1, C, C), dtype=_storage_dtype(q)))}
    for step in range(len(extend) + 1):
        if step:
            parent, r = extend[step - 1]
            slots[step] = _extend_states(*slots[parent], reps[:, r:r + 1], q)
        if step in by_slot:
            states, table = slots[step]
            counts = np.cumsum(table[:, diag, diag] != 0, axis=1,
                               dtype=np.uint8)
            for k, cut in by_slot[step]:
                out[:, k] = counts[:, cut - 1][states]
        for slot in [s for s in slots if last_use[s] <= step]:
            del slots[slot]
    return out


def _extend_states(states: np.ndarray, table: np.ndarray, row: np.ndarray,
                   q: int) -> tuple[np.ndarray, np.ndarray]:
    """Extend every flag's subspace by one of its rows: the states and
    table of the new slot from those of its parent.

    ``states`` (shape (N,)) holds each flag's id in ``table`` (shape
    (S, C, C)), the parent's distinct reduced echelon bases, and ``row``
    (shape (N, 1, C)) the flags' rows.  A flag's key is state * q**C + the
    row's code (``_encode_keys``), below S * q**C, and that bound is
    checked against 2**63.  It holds while the type has M < 2**31 flags:
    ids are below M, and a type with C stored columns (m_last >= 1) has
    at least q**C flags, so keys stay below M**2.  Distinct keys are
    numbered by direct address while the key space is at most N, else by
    a sort, and only they go through ``_echelon_step``, CHUNK at a time;
    the new bases are numbered by their entries, so equal subspaces share
    one id.
    """
    N, C = len(states), table.shape[1]
    width = q ** C
    space = len(table) * width
    if space > 2**63:
        raise ValueError(f"GF({q}): {len(table)} subspaces times {width} "
                         f"rows overflow int64 keys")
    keys = _encode_keys(row, q)
    keys += states * width
    if space <= N:
        seen = np.zeros(space, dtype=bool)
        seen[keys] = True
        pairs = np.flatnonzero(seen)
        number = np.cumsum(seen)
        number -= 1
        inverse = number[keys]
        del seen, number
    else:
        # with return_inverse, np.unique never imports numpy.ma
        pairs, inverse = np.unique(keys, return_inverse=True)
    del keys
    grown = np.empty((len(pairs), C, C), dtype=table.dtype)
    for lo in range(0, len(pairs), CHUNK):
        codes = pairs[lo:lo + CHUNK] % width
        v = np.empty((C, len(codes)), dtype=_work_dtype(q))
        for c in range(C):
            v[c] = codes % q
            codes //= q
        basis = table[pairs[lo:lo + CHUNK] // width].transpose(1, 2, 0)
        grown[lo:lo + CHUNK] = _echelon_step(basis, v, q).transpose(2, 0, 1)
    del pairs
    _, first, ids = np.unique(_encode_keys(grown, q), return_index=True,
                              return_inverse=True)
    return ids[inverse], grown[first]


def _echelon_step(basis: np.ndarray, v: np.ndarray, q: int) -> np.ndarray:
    """Extend a stack of reduced echelon bases over GF(q) by one row each,
    and return the reduced echelon bases of the results.

    ``basis`` has shape (C, C, K): row c of basis k is its row pivoting at
    column c, 1 there and 0 left of it and in every other row's pivot
    column, or all zero when no row pivots at c.  ``v`` (shape (C, K),
    working dtype) is reduced against the rows in column order; where
    something is left, it is scaled to 1 at its first nonzero column,
    that column is cleared from the other rows, and it becomes the row
    pivoting there.  The reduced echelon basis is unique to its subspace.
    """
    v = v.copy()
    for c in range(v.shape[0]):
        if v[c].any():
            v[c:] -= v[c] * basis[c, c:]
            v[c:] %= q
    nonzero = v != 0
    k = np.flatnonzero(nonzero.any(axis=0))
    lead = nonzero.argmax(axis=0)[k]
    new = v[:, k] * _inverses(v[lead, k], q) % q
    out = basis.copy()
    # rows below the pivot, and the empty row at it, are 0 in its column
    above = basis[:, lead, k].astype(v.dtype)
    out[:, :, k] = (basis[:, :, k] - above[:, None, :] * new) % q
    out[lead, :, k] = new.T
    return out


def _signature_labels(part: OrbitPartition, fam,
                      vectors: Optional[np.ndarray] = None) -> np.ndarray:
    """One id per signature level set: flags with equal rank vectors
    share one.  An entry is a rank of at most C, so each vector is keyed
    by ``_encode_keys`` in base C + 1: an int64 while (C+1)**E <= 2**63
    for E entries, a record beyond."""
    if vectors is None:
        vectors = _signature_vectors(part, fam)
    if vectors.shape[1] == 0:
        return np.zeros(vectors.shape[0], dtype=np.int64)
    keys = _encode_keys(vectors[:, None, :], part.reps.shape[2] + 1)
    # with return_inverse, np.unique never imports numpy.ma
    return np.unique(keys, return_inverse=True)[1]


def _partitions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two labelings of the same flags have the same classes: they
    do when each has as many classes as the pairs (a, b) of labels."""

    def distinct(x: np.ndarray) -> int:
        # sort and diff: plain np.unique imports numpy.ma on its first call
        s = np.sort(x)
        return int(np.count_nonzero(s[1:] != s[:-1])) + 1

    # labels are below N < 2**31, so the pair key stays below 2**62
    pairs = a.astype(np.int64) * (int(b.max()) + 1) + b
    return distinct(pairs) == distinct(a) == distinct(b)
