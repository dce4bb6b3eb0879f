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
   T they generate;
2. a root element G = I + c·e_i e_jᵀ (i != j) sends G, G², ..., G^(q-1)
   to one flag per T-orbit, the roots as step 1 left them: for d in T,
   G·(d·F) = d·(G^k·F) with k = d_j/d_i, since d⁻¹Gd = G^k;
3. any other generator goes to every flag.

A torus element's images come in closed form, by rescaling rows and the
columns that pivot there (``_torus_image``); only the others are
canonicalized.  Signature vectors follow the family's rank plan, as
catalog builds do: one batched GF(q) echelon step per row set, and each
entry a count of pivots (``_signature_vectors``).  Cross-validation
realizes no catalog entry as a flag: every entry's integer rows are
reduced mod q, canonicalized in one batch and found with one key search.
Arithmetic is integer-only throughout, and numpy is the only dependency.

Memory: partitioning N flags of n x C stored entries, s bytes each (the
storage dtype), peaks below (n*C*s + 96)*N + 24*n*C*CHUNK + 2**20 bytes
of allocations: the flags are enumerated into one preallocated array and
exist once; then a sorted key index (16 bytes per flag); the component
forest, the snapshot of the T-orbits' roots, and one sweep's source
indices and images (8 bytes per flag each, the last two in a full
sweep); and the hooking temporaries, one more forest, four index arrays
over the edges and two masks (42 bytes per flag at most).  The rest is
one chunk of working arrays and small objects.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .flags import Composition, Flag, group_generators
from .invariants import invariant_family, signature
from .linalg import Matrix, gf
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
    in its column, of earlier rows.  Each cell is written in place,
    through a reshaped view of its group, into one preallocated array, so
    the flags exist once.
    """
    total = check_budget(n, mm, q, budget)
    C = n - mm.parts[-1]
    out = np.zeros((total, n, C), dtype=_storage_dtype(q))
    # a group with a free cell holds q flags or more, so q <= total there
    digits = np.arange(min(q, total), dtype=out.dtype)[:, None]
    pos = 0
    for path in _pivot_paths(list(range(n)), mm.parts[:-1]):
        pivots, cells, col, used = [], [], 0, set()
        for newpiv in path:
            used.update(newpiv)
            level = [(rr, col + k) for k, pk in enumerate(newpiv)
                     for rr in range(pk + 1, n) if rr not in used]
            pivots += [(pk, col + k) for k, pk in enumerate(newpiv)]
            cells = level + cells     # least significant first
            col += len(newpiv)
        size = q ** len(cells)
        group = out[pos:pos + size]
        for r, c in pivots:
            group[:, r, c] = 1
        for e, (r, c) in enumerate(cells):
            group.reshape(size // q ** (e + 1), q, q ** e, n, C)[
                :, :, :, r, c] = digits
        pos += size
    assert pos == total, (pos, total)
    return out


def _decode_flag(mat: np.ndarray, mm: Composition, q: int) -> Flag:
    fld = gf(q)
    rows = [[int(x) for x in row] for row in mat]
    return Flag(mm, Matrix.from_rows(fld, rows))


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

    def representative(self, cid: int) -> Flag:
        return _decode_flag(self.reps[self.first_index[cid]], self.mm, self.q)


def _torus_image(A: np.ndarray, d: np.ndarray, q: int) -> np.ndarray:
    """Canonical forms of diag(d)·F for a stack ``A`` of canonical
    matrices F, for nonzero residues ``d``, with no elimination.

    A canonical column's pivot is its first nonzero row.  Scaling row i by
    d_i keeps every zero, so the only repair is to divide each column by
    the factor its pivot row got: scale the non-pivot entries of row i by
    d_i, and the entries below row i of the columns pivoting there by
    1/d_i.  The result is canonical again, with the same pivots.
    """
    work = _work_dtype(q)
    out = A.copy()
    pivot = (A != 0).argmax(axis=1)
    for i in np.flatnonzero(d != 1):
        gamma = int(d[i])
        here = pivot == i
        row = out[:, i, :]
        row[...] = np.where(here, row, row.astype(work) * gamma % q)
        k, c = np.nonzero(here)
        below = out[k, i + 1:, c].astype(work)
        out[k, i + 1:, c] = below * pow(gamma, q - 2, q) % q
    return out


def _is_torus(G: np.ndarray) -> bool:
    """Whether the residue matrix G is diagonal with no zero on its
    diagonal: a torus element, which acts in closed form."""
    diagonal = np.diag(G)
    return bool(np.array_equal(G, np.diag(diagonal)) and diagonal.all())


def _root_entry(G: np.ndarray) -> Optional[tuple[int, int, int]]:
    """(i, j, c) when the residue matrix G is I + c·e_i e_jᵀ with i != j
    and c != 0 (a root element), else None."""
    off = np.argwhere(G != np.eye(G.shape[0], dtype=G.dtype))
    if len(off) != 1 or off[0, 0] == off[0, 1]:
        return None
    i, j = off[0].tolist()
    return i, j, int(G[i, j])


def _generator_image(part: OrbitPartition, G: np.ndarray,
                     boundaries: Sequence[int],
                     src: Optional[np.ndarray] = None) -> np.ndarray:
    """Index of G·F for every enumerated flag F at the indices ``src``, or
    for every flag (then a permutation of the flags).  A torus G acts in
    closed form (``_torus_image``).  For any other G only the rows where
    it differs from the identity change, each recomputed from the nonzero
    entries of its row of G, and the result is canonicalized.  ``locate``
    raises unless every image is enumerated."""
    q, reps = part.q, part.reps
    G = np.mod(G, q, dtype=np.int64)
    torus = _is_torus(G)
    moved_rows = np.flatnonzero((G != np.eye(G.shape[0], dtype=np.int64))
                                .any(axis=1))
    work = _work_dtype(q)
    count = part.size if src is None else len(src)
    img = np.empty(count, dtype=np.intp)
    for lo in range(0, count, CHUNK):
        chunk = (reps[lo:lo + CHUNK] if src is None
                 else reps[src[lo:lo + CHUNK]])
        if torus:
            img[lo:lo + CHUNK] = part.locate(
                _torus_image(chunk, np.diag(G), q))
            continue
        moved = chunk.copy()
        for i in moved_rows:
            row = np.zeros(chunk.shape[::2], dtype=work)
            for j in np.flatnonzero(G[i]):
                row += int(G[i, j]) * chunk[:, j, :].astype(work)
                row %= q
            moved[:, i, :] = row
        img[lo:lo + CHUNK] = part.locate(
            canonicalize_batch(moved, q, boundaries))
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


def orbit_partition_from_arrays(reps: np.ndarray, gen_mats: list[np.ndarray],
                                nn: Composition, mm: Composition,
                                q: int) -> OrbitPartition:
    """Split canonical flags (shape (N, n, C), residues in any integer
    dtype) into the orbits of the group the matrices ``gen_mats``
    generate: the components of the graph with an edge F -- g·F for every
    group element g sent to F.  Classes are numbered by their smallest
    index, which is first appearance.

    Each generator goes only to the flags it has to, by its shape:

    1. Torus generators (diagonal, no zero on the diagonal; T is the group
       they generate) come first, each sent to one flag per current class.
       They commute, so g·(hF) = h·(gF) lies in the class of g·F.  After
       them the classes are the T-orbits.
    2. A root element G = I + c·e_i e_jᵀ (i != j) sends its powers G^k
       (entry k·c) for k = 1..q-1 to one flag per T-orbit: the roots as
       step 1 left them, not as later merges leave them, since only a
       T-orbit's flags are all d·R for its root R and d in T.  Then
       G·(d·R) = d·(d⁻¹Gd)·R and d⁻¹Gd = G^k with k = d_j/d_i, so
       G·(d·R) lies in the T-orbit of G^k·R.
    3. Any other generator goes to every flag.

    Over GF(2) T is trivial, so every generator goes to every flag.
    """
    boundaries = mm.prefix_sums()[: max(len(mm) - 1, 0)]
    part = OrbitPartition(q, nn, mm, reps, np.zeros(0, dtype=np.int64))
    N = part.size
    root = np.arange(N)

    def class_roots() -> np.ndarray:
        return np.flatnonzero(root == np.arange(N))

    def sweep(G: np.ndarray, src: np.ndarray) -> None:
        _hook(root, src, _generator_image(part, G, boundaries, src))

    gens = [np.mod(G, q, dtype=np.int64) for G in gen_mats]
    for G in filter(_is_torus, gens):
        sweep(G, class_roots())
    torus_roots = class_roots()
    for G in gens:
        if _is_torus(G):
            continue
        entry = _root_entry(G)
        if entry is None:
            sweep(G, np.arange(N))
            continue
        i, j, c = entry
        for k in range(1, q):
            G[i, j] = k * c % q     # G is now G^k
            sweep(G, torus_roots)
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
    basis of J[1:] (its parent slot) extended by the one row J[0]
    (``_echelon_step``), and an entry's value is the number of pivots of
    J's basis left of its cut.  A slot's basis is freed as soon as no
    later step extends it.
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
    for lo in range(0, N, CHUNK):
        rows = np.ascontiguousarray(reps[lo:lo + CHUNK].transpose(1, 2, 0),
                                    dtype=_work_dtype(q))
        bases = {0: np.zeros((C, C, rows.shape[2]),
                             dtype=_storage_dtype(q))}
        for step in range(len(extend) + 1):
            if step:
                parent, r = extend[step - 1]
                bases[step] = _echelon_step(bases[parent], rows[r], q)
            if step in by_slot:
                counts = np.cumsum(bases[step][diag, diag] != 0, axis=0)
                for k, cut in by_slot[step]:
                    out[lo:lo + CHUNK, k] = counts[cut - 1]
            for slot in [s for s in bases if last_use[s] <= step]:
                del bases[slot]
    return out


def _echelon_step(basis: np.ndarray, v: np.ndarray, q: int) -> np.ndarray:
    """Extend a stack of echelon bases over GF(q) by one row each.

    ``basis`` has shape (C, C, K): row c of basis k is its row pivoting at
    column c, 1 there and 0 left of it, or all zero when no row pivots at
    c.  ``v`` (shape (C, K), working dtype) is reduced against the rows in
    column order; where something is left, it is scaled to 1 at its first
    nonzero column and becomes the row pivoting there.
    """
    v = v.copy()
    for c in range(v.shape[0]):
        if v[c].any():
            v[c:] -= v[c] * basis[c, c:]
            v[c:] %= q
    nonzero = v != 0
    k = np.flatnonzero(nonzero.any(axis=0))
    lead = nonzero.argmax(axis=0)[k]
    out = basis.copy()
    out[lead, :, k] = (v[:, k] * _inverses(v[lead, k], q) % q).T
    return out


def _signature_labels(part: OrbitPartition, fam,
                      vectors: Optional[np.ndarray] = None) -> np.ndarray:
    """One id per signature level set: flags with equal rank vectors
    share one.  Each vector is keyed as one record of its bytes."""
    if vectors is None:
        vectors = _signature_vectors(part, fam)
    if vectors.shape[1] == 0:
        return np.zeros(vectors.shape[0], dtype=np.int64)
    rows = np.ascontiguousarray(vectors).view(
        np.dtype((np.void, vectors.shape[1])))
    return np.unique(rows.ravel(), return_inverse=True)[1]


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
