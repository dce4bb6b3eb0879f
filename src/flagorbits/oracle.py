"""Ground-truth brute force over GF(q).

Enumerates every flag of a type as a canonical representative, partitions
them into orbits of the block Borel by generator sweeps plus connected
components, and cross-validates catalogs against the partition.  The
heavy lifting is vectorized: all representatives live in one integer
array and the canonical-form pass processes every matrix in lock step
(same pivot convention as :mod:`flagorbits.flags`, verified by tests).
Arithmetic is integer-only throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .flags import Composition, Flag
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


def borel_order(nn: Composition, q: int) -> int:
    order = 1
    for p in nn.parts:
        order *= (q - 1) ** p * q ** (p * (p - 1) // 2)
    return order


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


def parabolic_generators(spec, q: int) -> list[Matrix]:
    """Generators of a (possibly non-standard) parabolic from its spec:
    every admissible elementary matrix plus the torus scalings."""
    fld = gf(q)
    n = spec.shape.n
    inv = [0] * n
    for j, pj in enumerate(spec.perm):
        inv[pj - 1] = j
    gens = []
    gamma = _primitive_root(q)
    if q > 2:
        for i in range(n):
            m = [[1 if a == c else 0 for c in range(n)] for a in range(n)]
            m[i][i] = gamma
            gens.append(Matrix.from_rows(fld, m))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if spec.shape.block_of(inv[i]) <= spec.shape.block_of(inv[j]):
                m = [[1 if a == c else 0 for c in range(n)] for a in range(n)]
                m[i][j] = 1
                gens.append(Matrix.from_rows(fld, m))
    return gens


# ---------------------------------------------------------------------------
# vectorized canonical representatives
# ---------------------------------------------------------------------------


def _inverse_table(p: int) -> np.ndarray:
    inv = np.zeros(p, dtype=np.int64)
    for x in range(1, p):
        inv[x] = pow(x, p - 2, p)
    return inv


def canonicalize_batch(A: np.ndarray, p: int,
                       boundaries: Sequence[int]) -> np.ndarray:
    """Canonical flag representatives for a stack of matrices.

    ``A`` has shape (N, n, C); ``boundaries`` lists the starting column of
    every stored block.  Same convention as the scalar implementation:
    clear earlier pivot rows, pivot at the first unused nonzero row, scale
    to 1, clear backwards inside the block, then order each block's
    columns by pivot row.
    """
    A = A.copy() % p
    N, n, C = A.shape
    if C == 0 or N == 0:
        return A
    inv = _inverse_table(p)
    ar = np.arange(N)
    used = np.zeros((N, n), dtype=bool)
    prow = np.zeros((N, C), dtype=np.int64)
    block_start = {c: max(b for b in boundaries if b <= c) for c in range(C)}
    for c in range(C):
        col = A[:, :, c]
        for pc in range(c):
            factor = A[ar, prow[:, pc], c]
            nz = factor != 0
            if nz.any():
                col -= factor[:, None] * A[:, :, pc]
                col %= p
        cand = (col != 0) & ~used
        if not cand.any(axis=1).all():
            raise ValueError("rank-deficient representative in batch")
        piv = cand.argmax(axis=1)
        val = A[ar, piv, c]
        col *= inv[val][:, None]
        col %= p
        for pc in range(block_start[c], c):
            factor = A[ar, piv, pc]
            nz = factor != 0
            if nz.any():
                A[:, :, pc] -= factor[:, None] * col
                A[:, :, pc] %= p
        used[ar, piv] = True
        prow[:, c] = piv
    # order the columns of each block by pivot row
    bounds = list(boundaries) + [C]
    for bi in range(len(boundaries)):
        lo, hi = bounds[bi], bounds[bi + 1]
        if hi - lo <= 1:
            continue
        order = np.argsort(prow[:, lo:hi], axis=1, kind="stable")
        A[:, :, lo:hi] = np.take_along_axis(
            A[:, :, lo:hi], order[:, None, :], axis=2)
        prow[:, lo:hi] = np.take_along_axis(prow[:, lo:hi], order, axis=1)
    return A


def rank_batch(A: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a stack of matrices over GF(p)."""
    A = A.copy() % p
    N, r, c = A.shape
    if r == 0 or c == 0:
        return np.zeros(N, dtype=np.int64)
    inv = _inverse_table(p)
    ar = np.arange(N)
    used = np.zeros((N, r), dtype=bool)
    rank = np.zeros(N, dtype=np.int64)
    for col in range(c):
        cand = (A[:, :, col] != 0) & ~used
        has = cand.any(axis=1)
        if not has.any():
            continue
        piv = cand.argmax(axis=1)
        pivval = A[ar, piv, col]
        scale = inv[pivval % p]
        pivrow = A[ar, piv, :] * scale[:, None] % p
        colvals = A[:, :, col].copy()
        # clear the column everywhere except the pivot row itself
        upd = colvals[:, :, None] * pivrow[:, None, :] % p
        upd[~has] = 0
        upd[ar, piv, :] = 0
        A = (A - upd) % p
        used[ar[has], piv[has]] = True
        rank += has
    return rank


# ---------------------------------------------------------------------------
# flag enumeration
# ---------------------------------------------------------------------------


def _echelon_blocks(comp_rows: list[int], pivots: tuple[int, ...],
                    width: int, n: int, q: int) -> np.ndarray:
    """All canonical width-column extensions with the given new pivots."""
    free_cells = []
    pivset = set(pivots)
    for k, pk in enumerate(pivots):
        for rr in comp_rows:
            if rr > pk and rr not in pivset:
                free_cells.append((rr, k))
    K = q ** len(free_cells)
    block = np.zeros((K, n, width), dtype=np.int64)
    for k, pk in enumerate(pivots):
        block[:, pk, k] = 1
    idx = np.arange(K)
    for t, (rr, k) in enumerate(free_cells):
        block[:, rr, k] = (idx // q ** t) % q
    return block


def enumerate_flag_array(n: int, mm: Composition, q: int,
                         budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All flags of the type as one canonical array of shape (N, n, C)."""
    total = check_budget(n, mm, q, budget)
    groups: list[tuple[tuple[int, ...], np.ndarray]] = [
        ((), np.zeros((1, n, 0), dtype=np.int64))]
    for m_t in mm.parts[:-1]:
        nxt = []
        for pivots, mats in groups:
            comp_rows = [r for r in range(n) if r not in pivots]
            for newpiv in itertools.combinations(comp_rows, m_t):
                block = _echelon_blocks(comp_rows, newpiv, m_t, n, q)
                K, B = block.shape[0], mats.shape[0]
                left = np.repeat(mats, K, axis=0)
                right = np.tile(block, (B, 1, 1))
                nxt.append((tuple(sorted(pivots + newpiv)),
                            np.concatenate([left, right], axis=2)))
        groups = nxt
    arrays = [g[1] for g in groups]
    out = np.concatenate(arrays, axis=0) if arrays else np.zeros(
        (1, n, 0), dtype=np.int64)
    assert out.shape[0] == total, (out.shape, total)
    return out


def enumerate_flags(n: int, mm: Composition, q: int,
                    budget: int = DEFAULT_BUDGET) -> list[Flag]:
    """Materialized flag list (small inputs); one canonical flag per point."""
    arr = enumerate_flag_array(n, mm, q, budget)
    arr = canonicalize_batch(arr, q, mm.prefix_sums()[: max(len(mm) - 1, 0)])
    return [_decode_flag(arr[i], mm, q) for i in range(arr.shape[0])]


def _decode_flag(mat: np.ndarray, mm: Composition, q: int) -> Flag:
    fld = gf(q)
    rows = [[int(x) for x in row] for row in mat]
    return Flag(mm, Matrix.from_rows(fld, rows))


def _encode_keys(A: np.ndarray, p: int):
    N, n, C = A.shape
    digits = n * C
    if digits == 0:
        return np.zeros(N, dtype=np.int64)
    if digits * np.log2(p) < 62:
        weights = p ** np.arange(digits, dtype=np.int64)
        return A.reshape(N, -1) @ weights
    dtype = np.min_scalar_type(p - 1)
    flat = np.ascontiguousarray(A.astype(dtype).reshape(N, -1))
    return flat.view([("", dtype)] * flat.shape[1]).reshape(N)


# ---------------------------------------------------------------------------
# orbit partition
# ---------------------------------------------------------------------------


@dataclass
class OrbitPartition:
    q: int
    nn: Composition
    mm: Composition
    reps: np.ndarray            # (N, n, C) canonical representatives
    labels: np.ndarray          # (N,) class ids

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

    def class_sizes(self) -> list[int]:
        return np.bincount(self.labels, minlength=self.class_count).tolist()

    def index_of_flag(self, f: Flag) -> int:
        if f.typ != self.mm or f.n != self.reps.shape[1]:
            raise KeyError(f"flag of type {f.typ} does not belong to the "
                           f"enumerated variety of type {self.mm}")
        mat = np.array([[int(x) for x in row] for row in f.rep.data],
                       dtype=np.int64).reshape(f.n, -1)
        key = _encode_keys(mat[None, :, :], self.q)[0]
        pos = np.searchsorted(self._sorted_keys, key)
        if pos >= self.size or self._sorted_keys[pos] != key:
            raise KeyError("flag is not in the enumerated variety")
        return int(self._sort_idx[pos])

    def class_of_flag(self, f: Flag) -> int:
        return int(self.labels[self.index_of_flag(f)])

    def representative(self, cid: int) -> Flag:
        idx = int(np.nonzero(self.labels == cid)[0][0])
        return _decode_flag(self.reps[idx], self.mm, self.q)

    def classes(self) -> list[list[Flag]]:
        out: list[list[Flag]] = [[] for _ in range(self.class_count)]
        for i in range(self.size):
            out[self.labels[i]].append(_decode_flag(self.reps[i], self.mm, self.q))
        return out


def orbit_partition_from_arrays(reps: np.ndarray, gen_mats: list[np.ndarray],
                                nn: Composition, mm: Composition,
                                q: int) -> OrbitPartition:
    N = reps.shape[0]
    boundaries = mm.prefix_sums()[: max(len(mm) - 1, 0)]
    keys = _encode_keys(reps, q)
    sort_idx = np.argsort(keys, kind="stable")
    sorted_keys = keys[sort_idx]
    srcs = [np.arange(N)]
    dsts = [np.arange(N)]
    for G in gen_mats:
        moved = np.einsum("ij,njk->nik", G, reps) % q
        moved = canonicalize_batch(moved, q, boundaries)
        mkeys = _encode_keys(moved, q)
        pos = np.searchsorted(sorted_keys, mkeys)
        if not (sorted_keys[pos] == mkeys).all():
            raise AssertionError("generator image escaped the variety")
        img = sort_idx[pos]
        srcs.append(np.arange(N))
        dsts.append(img)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    graph = coo_matrix((np.ones(len(src), dtype=np.int8), (src, dst)),
                       shape=(N, N))
    n_comp, raw = connected_components(graph, directed=False)
    # relabel classes in order of first appearance for determinism
    remap = {}
    labels = np.zeros(N, dtype=np.int64)
    for i in range(N):
        r = int(raw[i])
        if r not in remap:
            remap[r] = len(remap)
        labels[i] = remap[r]
    assert len(remap) == n_comp
    return OrbitPartition(q, nn, mm, reps, labels)


def orbit_partition(flags: Iterable[Flag], gens: Iterable[Matrix],
                    nn: Composition) -> OrbitPartition:
    """Partition a list of canonical flags under the generated left action."""
    flags = list(flags)
    if not flags:
        raise ValueError("empty flag list")
    mm = flags[0].typ
    fld = flags[0].field
    q = fld.p  # type: ignore[attr-defined]
    reps = np.array([[[int(x) for x in row] for row in f.rep.data]
                     for f in flags], dtype=np.int64)
    reps = reps.reshape(len(flags), flags[0].n, -1)
    gen_mats = [np.array([[int(x) for x in row] for row in g.data],
                         dtype=np.int64) for g in gens]
    return orbit_partition_from_arrays(reps, gen_mats, nn, mm, q)


def oracle_partition(nn: Composition, mm: Composition, q: int,
                     budget: int = DEFAULT_BUDGET) -> OrbitPartition:
    """Enumerate the variety and split it into block-Borel orbits."""
    arr = enumerate_flag_array(nn.n, mm, q, budget)
    arr = canonicalize_batch(arr, q, mm.prefix_sums()[: max(len(mm) - 1, 0)])
    gens = group_generators(nn, q)
    gen_mats = [np.array([[int(x) for x in row] for row in g.data],
                         dtype=np.int64) for g in gens]
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

    Checks: equal class counts; one realized normal form per class
    (a bijection); signature separation, with representative signatures
    matching the catalog; and, when exhaustive, that signature level sets
    coincide with the classes.
    """
    checks = []
    q = part.q
    fld = gf(q)
    n_classes = part.class_count
    n_entries = len(cat.entries)
    checks.append(CheckResult(
        "class-count", n_classes == n_entries,
        f"oracle={n_classes} catalog={n_entries}"))

    seen: dict[int, int] = {}
    collisions = []
    missing = []
    for i, entry in enumerate(cat.entries):
        try:
            flag_q = entry.nf.realize(fld)
            cid = part.class_of_flag(flag_q)
        except KeyError:
            missing.append(i)
            continue
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
    sig_map = {}
    duplicate_sigs = False
    for entry in cat.entries:
        if entry.sig.values in sig_map:
            duplicate_sigs = True
        sig_map[entry.sig.values] = entry
    mismatches = []
    if ok_b:
        for cid in range(n_classes):
            rep = part.representative(cid)
            vals = signature(rep, fam).values
            expect = cat.entries[seen[cid]].sig.values
            if vals != expect:
                mismatches.append(cid)
    ok_c = not duplicate_sigs and not mismatches and ok_b
    checks.append(CheckResult(
        "signatures-separate", ok_c,
        f"duplicates={int(duplicate_sigs)} rep-mismatch={mismatches[:3]}"))

    if exhaustive is None:
        exhaustive = part.size <= EXHAUSTIVE_LIMIT
    if exhaustive:
        level = _signature_labels(part, fam)
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


def _signature_labels(part: OrbitPartition, fam) -> np.ndarray:
    q = part.q
    N = part.size
    reps = part.reps
    ps = part.mm.prefix_sums()
    vectors = np.zeros((N, len(fam.entries)), dtype=np.int64)
    for k, (s, J) in enumerate(fam.entries):
        rows = [j - 1 for j in J]
        sub = reps[:, rows, : ps[s]]
        vectors[:, k] = rank_batch(sub, q)
    _, labels = np.unique(vectors, axis=0, return_inverse=True)
    return labels


def _partitions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    pair = np.stack([a, b], axis=1)
    uniq = np.unique(pair, axis=0)
    return len(uniq) == len(np.unique(a)) == len(np.unique(b))
