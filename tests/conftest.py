"""Shared helpers: independent oracles used to cross-check the library.

Everything here is deliberately written from scratch (naive elimination,
minor expansion, subword products) so that tests never validate the
library against itself.  The field references (``complete_to_invertible``,
``inverse``, ``dual`` and ``reference_orbit_dimension``) run on
``linalg._row_reduce``, which no integer path of the library uses.
``transporter_empty`` searches B'-orbits over GF(q) and is the reference
for the library's witness certificate, which compares orbit dimensions
over Q.  ``reference_reduce_case0`` and ``reference_reduce_case3prime``
reduce a flag by field elimination, with the pivot sweep ``_sweep_up``
and the row operation ``_row_axpy``; the library reads the same normal
forms off the signature.  ``decode_flag`` and ``representative`` turn
the oracle's GF(q) arrays back into flags one at a time, the reference
for its batched signatures.  ``reference_flag_array`` writes the
enumeration group by group, the reference for its order.
``reference_torus_image`` rescales canonical matrices by a torus element
in closed form, the reference for the oracle's index arithmetic on torus
generators.  ``reference_image`` sends a generator to canonical flags by
the dense product, canonicalized and located, the reference for every
image the oracle takes.  ``reference_partition`` sweeps each torus
generator and root power on its own, torus generators through
``reference_torus_image`` and root powers through ``reference_image``,
the reference for the oracle's batched partition, and
``reference_signature_labels`` keys level sets by their bytes.  The
helpers at the end build and check test data: ``flags_equal``,
permutation flags and matrices, random flags and group elements
(``random_flag``, ``random_borel_prime``), and the standard flag.  The
library needs none of them.
"""

import itertools
import random
from fractions import Fraction
from typing import Optional

import numpy as np

from flagorbits import Composition
from flagorbits.flags import Flag, act, group_generators
from flagorbits.linalg import (GF, QQ, Matrix, _col_axpy, _col_scale,
                               _row_reduce, gf, integer_rank)
from flagorbits.normalforms import (NFCase0, NFChain, NFPattern, _column_terms,
                                    case0_normal_forms, pattern_candidates)
from flagorbits.oracle import (OrbitPartition, _hook, _pivot_paths,
                               canonicalize_batch)


def compositions(n):
    """All compositions of n."""
    for k in range(1, n + 1):
        for cuts in itertools.combinations(range(1, n), k - 1):
            parts, prev = [], 0
            for c in list(cuts) + [n]:
                parts.append(c - prev)
                prev = c
            yield Composition(tuple(parts))


def bareiss_rank(rows):
    """Fraction-free Gaussian elimination rank of a rational matrix."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    # scale rows to integers first
    scaled = []
    for row in m:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // _gcd(lcm, x.denominator)
        scaled.append([int(x * lcm) for x in row])
    m = scaled
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def complete_to_invertible(mat):
    """Deterministic greedy completion to an invertible square matrix:
    the input's columns, which must be independent, then each standard
    basis vector that enlarges the span, in index order.  These are the
    pivot columns of the reduced (A | I).
    """
    F, n, k = mat.field, mat.rows, mat.cols
    eye = Matrix.identity(F, n).data
    _, pivots = _row_reduce([list(a + e) for a, e in zip(mat.data, eye)], F)
    if pivots[:k] != list(range(k)):
        raise ValueError("columns are not independent")
    return Matrix.from_columns(
        F, mat.columns() + [eye[p - k] for p in pivots[k:]], n)


def inverse(mat):
    """The right half of the reduced (A | I)."""
    if mat.rows != mat.cols:
        raise ValueError("inverse of non-square matrix")
    n = mat.rows
    eye = Matrix.identity(mat.field, n).data
    aug = [list(a + e) for a, e in zip(mat.data, eye)]
    reduced, pivots = _row_reduce(aug, mat.field)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(mat.field, n, n, tuple(tuple(r[n:]) for r in reduced))


def dual(f):
    """Orthogonal-complement flag over any field: type ``(m_1..m_l)`` to
    ``(m_l..m_1)``, each subspace replaced by its annihilator under the
    standard dot product.

    With g the completion of the representative, the rows of g^{-1} from
    m_1+...+m_s on span the annihilator of the s-th subspace
    (g^{-1} g = I, and the first m_1+...+m_s columns of g span it), so
    the rows from m_1 on, read bottom up, represent the dual flag.  The
    library builds duals on integer rows (``linalg.integer_dual``); this
    reference completes and inverts over the flag's field instead.
    """
    target = Composition(tuple(reversed(f.typ.parts)))
    ginv = inverse(complete_to_invertible(f.rep))
    return Flag.from_matrix(target, Matrix.from_columns(
        f.field, ginv.data[:f.typ.parts[0] - 1:-1], f.n))


def reference_orbit_dimension(f, nn):
    """dim of the block-Borel orbit through a rational flag ``f``.

    The stabilizer subalgebra is cut out of b' by the linear conditions
    ``(g^{-1} X g)_{ij} = 0`` over the strictly-lower block positions of
    the column parabolic, where g is the deterministic invertible
    completion of the representative; the orbit dimension equals the rank
    of that constraint matrix.  The library ranks integer annihilator
    conditions instead, with no completion and no inverse; this reference
    shares neither those conditions nor their elimination.
    """
    if f.field is not QQ:
        raise ValueError("orbit dimensions are computed over Q")
    n = f.n
    g = complete_to_invertible(f.rep)
    ginv = inverse(g)
    mm = f.typ

    coords = [(a, b) for blk in range(len(nn))
              for a in nn.block_range(blk)
              for b in nn.block_range(blk) if a <= b]
    rows = []
    for i in range(n):
        for j in range(n):
            if mm.block_of(i) <= mm.block_of(j):
                continue
            rows.append([ginv[i, a] * g[b, j] for a, b in coords])
    return bareiss_rank(rows)


def reference_pattern_candidates(tag, nn, mm):
    """The signature-lookup candidates with no orbit-mate left out: every
    case II plane {u, v} of distinct nonzero 0/1 columns, in the
    orientation that serializes smaller, and every I' (m2 = 1) extra
    column that passes the rank filter.  Cases I and III take the
    library's lists, which leave nothing out."""
    n = nn.n
    if tag.label == "II":
        terms = {u: _column_terms(u)
                 for u in itertools.product((0, 1), repeat=n) if any(u)}
        return [NFPattern("II", tag.subcase, nn, mm, tuple(zip(u, v)),
                          dualize=tag.subcase == "(n-2,2)")
                for u, tu in terms.items() for v, tv in terms.items()
                if f"{tu};{tv}" < f"{tv};{tu}"]
    if tag.label == "I'" and tag.subcase == "m2=1":
        m1 = mm.parts[0]
        cands = []
        for base in case0_normal_forms(nn, Composition.of(m1, n - m1)):
            for extra in itertools.product((0, 1), repeat=n):
                rows = tuple(r + (x,) for r, x in zip(base.rows, extra))
                if any(extra) and integer_rank(rows) == m1 + 1:
                    cands.append(NFPattern("I'", tag.subcase, nn, mm, rows))
        return cands
    return pattern_candidates(tag, nn, mm)


def rank_batch(A, p):
    """Ranks over GF(p) of a stack of matrices of any integer dtype, in
    ``np.min_scalar_type(p - 1)``: Gaussian elimination on all of them in
    lock step, in int64 (exact for p < 2**31), one column at a time."""
    N, r, c = A.shape
    rank = np.zeros(N, dtype=np.min_scalar_type(p - 1))
    if r == 0 or c == 0:
        return rank
    W = np.mod(A, p, dtype=np.int64).transpose(2, 1, 0).copy()
    ar = np.arange(N)
    free = np.ones((r, N), dtype=bool)   # rows not yet pivots
    for col in range(c):
        cand = (W[col] != 0) & free
        has = cand.any(axis=0)
        if not has.any():
            continue
        piv = cand.argmax(axis=0)
        # clear the column in the other free rows, later columns only
        factor = W[col] * free
        factor[piv, ar] = 0
        factor = factor * _inverse_mod(W[col][piv, ar], p) % p
        W[col + 1:] -= factor * W[col + 1:, piv, ar][:, None, :]
        W[col + 1:] %= p
        free[piv[has], ar[has]] = False
        rank += has
    return rank


def _inverse_mod(x, p):
    """x**(p-2) mod p elementwise on int64 residues (Fermat)."""
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = out * x % p
        x, e = x * x % p, e >> 1
    return out


def dominates(a, b):
    """True when every value of signature ``a`` is at most the matching
    value of ``b``: by lower semicontinuity of rank, necessary for the orbit
    of ``a`` to lie in the closure of the orbit of ``b``."""
    if a.family.entries != b.family.entries:
        raise ValueError("signatures over different families")
    return all(x <= y for x, y in zip(a.values, b.values))


def pairwise_covers(cat):
    """Sorted (lower, upper) covers of signature dominance over a catalog,
    by comparing every ordered pair of entries with ``dominates``."""
    n = len(cat.entries)
    sigs = [e.sig for e in cat.entries]
    above = [{b for b in range(n)
              if b != a and sigs[a].values != sigs[b].values
              and dominates(sigs[a], sigs[b])} for a in range(n)]
    return tuple(sorted((a, b) for a in range(n) for b in above[a]
                        if not any(b in above[c] for c in above[a] if c != b)))


def gf2_minor_rank(rows):
    """Rank over GF(2) by exhaustive minor expansion (tiny matrices only)."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0

    def det2(sub):
        k = len(sub)
        if k == 1:
            return sub[0][0] % 2
        total = 0
        for j in range(k):
            if sub[0][j] % 2 == 0:
                continue
            minor = [[sub[i][c] for c in range(k) if c != j]
                     for i in range(1, k)]
            total ^= det2(minor)
        return total

    for size in range(min(nrows, ncols), 0, -1):
        for rsel in itertools.combinations(range(nrows), size):
            for csel in itertools.combinations(range(ncols), size):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if det2(sub):
                    return size
    return 0


# -- published reference diagrams (node matrices, dimensions, cover edges) --

# GL(3) with row blocks (2,1), complete column flags: 13 nodes
FIGURE1_NODES = [
    (((0, 1), (0, 0), (1, 0)), 0),   # X1
    (((1, 0), (0, 0), (0, 1)), 0),   # X2
    (((1, 0), (0, 1), (0, 0)), 0),   # X3
    (((0, 0), (0, 1), (1, 0)), 1),   # Y1
    (((1, 1), (0, 0), (1, 0)), 1),   # Y2
    (((0, 0), (1, 0), (0, 1)), 1),   # Y3
    (((1, 0), (0, 1), (0, 1)), 1),   # Y4
    (((0, 1), (1, 0), (0, 0)), 1),   # Y5
    (((0, 0), (1, 1), (1, 0)), 2),   # Z1
    (((1, 0), (0, 1), (1, 0)), 2),   # Z2
    (((0, 1), (1, 0), (1, 0)), 2),   # Z3
    (((0, 1), (1, 0), (0, 1)), 2),   # Z4
    (((1, 0), (1, 1), (1, 0)), 3),   # T
]
FIGURE1_EDGES = [
    (0, 3), (0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (2, 7),
    (3, 8), (3, 9), (4, 8), (4, 9), (4, 10), (5, 8), (5, 11),
    (6, 9), (6, 10), (6, 11), (7, 10), (7, 11),
    (8, 12), (9, 12), (10, 12), (11, 12),
]

# GL(4) with row blocks (2,2), lines (column blocks (1,3)): 8 nodes
FIGURE2_NODES = [
    ((0, 0, 1, 0), 0),   # E1
    ((0, 0, 0, 1), 1),   # E2
    ((1, 0, 0, 0), 0),   # F1
    ((0, 1, 0, 0), 1),   # F2
    ((1, 0, 1, 0), 1),   # EF11
    ((0, 1, 1, 0), 2),   # EF12
    ((1, 0, 0, 1), 2),   # EF21
    ((0, 1, 0, 1), 3),   # EF22
]
FIGURE2_EDGES = [
    (2, 3), (2, 4), (0, 1), (0, 4), (3, 5), (1, 6),
    (4, 5), (4, 6), (5, 7), (6, 7),
]


def perm_mult(a, b):
    """(a b)(x) = a(b(x)) for 1-based one-line permutations."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def reduced_word(perm):
    """A reduced word (list of adjacent transposition indices, 1-based)."""
    word = []
    p = list(perm)
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i + 1)
                changed = True
    word.reverse()
    return word


def bruhat_le_subword(u, v):
    """u <= v in Bruhat order via the subword criterion."""
    n = len(u)
    word = reduced_word(v)
    inv_u = sum(1 for i in range(n) for j in range(i + 1, n)
                if u[i] > u[j])
    identity = tuple(range(1, n + 1))

    def s(i):
        p = list(identity)
        p[i - 1], p[i] = p[i], p[i - 1]
        return tuple(p)

    for picks in itertools.combinations(range(len(word)), inv_u):
        prod = identity
        for t in picks:
            prod = perm_mult(prod, s(word[t]))
        if prod == tuple(u):
            return True
    return inv_u == 0 and tuple(u) == identity


def borel_translates(d1, nn, q, count=10):
    """Flags g.d1 for ``count`` seeded random g in B'(GF(q)): all lie in
    the orbit of d1, so every transporter to them is nonempty."""
    rng = random.Random(q)
    return [act(random_borel_prime(nn, gf(q), rng), d1) for _ in range(count)]


def parabolic_generators(spec, q):
    """Generators over GF(q) of the parabolic ``M_perm P_shape M_perm^{-1}``
    of a ``ParabolicSpec``: every admissible elementary matrix, after one
    scaling of each coordinate by a primitive root when q > 2."""
    fld = gf(q)
    n = spec.shape.n
    inv = [0] * n
    for j, pj in enumerate(spec.perm):
        inv[pj - 1] = j
    gamma = next(g for g in range(1, q)
                 if len({pow(g, k, q) for k in range(1, q)}) == q - 1)

    def elementary(i, j, x):
        m = [[int(a == c) for c in range(n)] for a in range(n)]
        m[i][j] = x
        return Matrix.from_rows(fld, m)

    gens = [elementary(i, i, gamma) for i in range(n)] if q > 2 else []
    gens += [elementary(i, j, 1) for i in range(n) for j in range(n)
             if i != j and
             spec.shape.block_of(inv[i]) <= spec.shape.block_of(inv[j])]
    return gens


def transporter_empty(d1, d2, nn):
    """Whether no element of B'(GF(q)) moves ``d1`` to ``d2``, two flags
    of one type over GF(q): a breadth-first search of the orbit of ``d1``
    under ``group_generators(nn, q)``.

    B'(GF(q)) is finite and generated by these matrices, so closing {d1}
    under them alone, with no inverses, gives the whole orbit; ``d2`` lies
    outside it exactly when the transporter is empty.  The search keeps
    one entry per orbit flag, at most the number of flags of the type.
    """
    if not isinstance(d1.field, GF):
        raise ValueError("transporters are searched over GF(q)")
    if flags_equal(d1, d2):
        return False
    gens = group_generators(nn, d1.field.p)
    seen = {d1.rep.data}
    layer = [d1.rep]
    while layer:
        next_layer = []
        for rep in layer:
            for g in gens:
                image = Flag.from_matrix(d1.typ, g * rep).rep
                if image.data == d2.rep.data:
                    return False
                if image.data not in seen:
                    seen.add(image.data)
                    next_layer.append(image)
        layer = next_layer
    return True


# -- field eliminations, references for the case 0 and III' decoders ---------


def _row_scale(F, cols, i, c):
    for col in cols:
        col[i] = F.mul(c, col[i])


def _row_axpy(F, cols, dst, src, c):
    """Row ``dst`` += c * row ``src``."""
    for col in cols:
        col[dst] = F.add(col[dst], F.mul(c, col[src]))


def _sweep_up(F, cols, rows, pool):
    """Bottom-up pivots on ``rows``; returns {pivot column: pivot row}.

    For each row r of ``rows``, in descending order, the first column of
    ``pool`` that is nonzero at r is scaled to 1 there and leaves the pool;
    r is cleared from every other column, and rows ``rows.start..r-1`` of
    the pivot column by row operations.  Row operations only add a row to
    one above it, so they compose to an upper-triangular transformation.
    """
    pool = list(pool)
    pivots = {}
    for r in reversed(rows):
        c0 = next((c for c in pool if cols[c][r] != F.zero), None)
        if c0 is None:
            continue
        _col_scale(F, cols, c0, F.inv(cols[c0][r]))
        for c in range(len(cols)):
            if c != c0 and cols[c][r] != F.zero:
                _col_axpy(F, cols, c, c0, F.sub(F.zero, cols[c][r]))
        for i in range(r - 1, rows.start - 1, -1):
            if cols[c0][i] != F.zero:
                _row_axpy(F, cols, i, r, F.sub(F.zero, cols[c0][i]))
        pivots[c0] = r
        pool.remove(c0)
    return pivots


def reference_reduce_case0(f: Flag, nn: Composition) -> NFCase0:
    """Unique two-block normal form by triangular elimination.

    Stages: canonicalize the lower (f-)rows bottom-up, reduce the f-free
    columns' upper parts, then peel paired columns off largest upper row
    first.
    """
    if len(nn) != 2 or len(f.typ) != 2:
        raise ValueError(f"pair ({nn}, {f.typ}) is not a two-block pair")
    F = f.field
    n1 = nn.parts[0]
    n = nn.n
    m1 = f.typ.parts[0]
    cols = [list(f.rep.column(j)) for j in range(m1)]

    # stage 1: bottom-up pivots on the f-rows
    f_pivot = _sweep_up(F, cols, range(n1, n), range(m1))
    # stage 2: bottom-up pivots on the e-rows of the f-free columns
    free = [c for c in range(m1) if c not in f_pivot]
    tail_pivot = _sweep_up(F, cols, range(n1), free)
    if len(tail_pivot) < len(free):
        raise ValueError("flag representative is rank deficient")

    # stage 3: peel paired columns, largest e-row first
    active = sorted(f_pivot, key=lambda c: f_pivot[c])
    pair_e: dict[int, int] = {}
    while True:
        m_row = -1
        for i in range(n1 - 1, -1, -1):
            if any(cols[c][i] != F.zero for c in active):
                m_row = i
                break
        if m_row < 0:
            break
        j0 = next(c for c in active if cols[c][m_row] != F.zero)
        _row_scale(F, cols, m_row, F.inv(cols[j0][m_row]))
        # clear the marked row from the other carriers (this changes their
        # f-rows, which stage 3 never reads), then clean up above the mark
        # inside j0
        for c in active:
            if c != j0 and cols[c][m_row] != F.zero:
                _col_axpy(F, cols, c, j0, F.sub(F.zero, cols[c][m_row]))
        for i in range(m_row - 1, -1, -1):
            if cols[j0][i] != F.zero:
                _row_axpy(F, cols, i, m_row, F.sub(F.zero, cols[j0][i]))
        pair_e[j0] = m_row
        active.remove(j0)

    carriers = sorted(f_pivot, key=lambda c: f_pivot[c])
    out_cols: list[tuple[Optional[int], Optional[int]]] = []
    for c in carriers:
        fi = f_pivot[c] - n1 + 1
        e = pair_e.get(c)
        out_cols.append((None if e is None else e + 1, fi))
    for c in sorted(tail_pivot, key=lambda c: tail_pivot[c]):
        out_cols.append((tail_pivot[c] + 1, None))
    return NFCase0(nn, f.typ, tuple(out_cols))


def reference_reduce_case3prime(f: Flag, nn: Composition) -> NFChain:
    # row predicate, not first-match: pairs matching several table rows
    # must stay reducible by each matching row's reducer
    if len(nn) != 2 or min(nn.parts) != 1:
        raise ValueError(f"pair ({nn}, {f.typ}) is not a one-line-block pair")
    F = f.field
    n = nn.n
    mm = f.typ
    work = f
    if nn.parts[0] == 1 and n > 2:
        # row 1 moves to the bottom: the (n-1, 1) orientation
        work = Flag.from_matrix(
            mm, Matrix.from_rows(F, f.rep.data[1:] + f.rep.data[:1]))

    l = len(mm)
    stored = n - mm.parts[-1]
    cols = [list(work.rep.column(j)) for j in range(stored)]
    block_of_col = [mm.block_of(c) for c in range(stored)]

    # locate the pivot block and its distinguished column
    special = next(iter(_sweep_up(F, cols, range(n - 1, n), range(stored))),
                   None)
    j0 = l if special is None else block_of_col[special] + 1

    # reduce every non-special column to a distinct basis vector
    finished: dict[int, int] = {}        # column -> pivot row (0-based)
    row_block: dict[int, int] = {}       # pivot row -> 1-based block
    for c in range(stored):
        if c == special:
            continue
        for pc, pr in finished.items():
            if cols[c][pr] != F.zero:
                _col_axpy(F, cols, c, pc, F.sub(F.zero, cols[c][pr]))
        pivot = next((i for i in range(n - 2, -1, -1)
                      if cols[c][i] != F.zero), None)
        if pivot is None:
            raise ValueError("flag representative is rank deficient")
        _col_scale(F, cols, c, F.inv(cols[c][pivot]))
        for i in range(pivot - 1, -1, -1):
            if cols[c][i] != F.zero:
                _row_axpy(F, cols, i, pivot, F.sub(F.zero, cols[c][i]))
        finished[c] = pivot
        row_block[pivot] = block_of_col[c] + 1

    chain: list[tuple[int, int]] = []
    if special is not None:
        # clear the marked rows of blocks up to j0 from the special column
        for pc, pr in finished.items():
            if block_of_col[pc] + 1 <= j0 and cols[special][pr] != F.zero:
                _col_axpy(F, cols, special, pc,
                          F.sub(F.zero, cols[special][pr]))
        support = [i for i in range(n - 1) if cols[special][i] != F.zero]
        # rows unused by stored blocks belong to the dropped block l
        blk = {i: row_block.get(i, l) for i in support}
        best = 0
        for i in sorted(support, reverse=True):
            if blk[i] > best:
                chain.append((blk[i], i + 1))
                best = blk[i]
        chain.sort()

    blocks = []
    for b in range(l - 1):
        rows = sorted(finished[c] + 1 for c in range(stored)
                      if c != special and block_of_col[c] == b)
        blocks.append(tuple(rows))
    return NFChain(nn, mm, j0, tuple(blocks), tuple(chain))


# -- decoding the oracle's arrays, the reference for its batched signatures ---


def decode_flag(mat, mm, q):
    """The flag over GF(q) of one canonical matrix of an oracle stack."""
    rows = [[int(x) for x in row] for row in mat]
    return Flag(mm, Matrix.from_rows(gf(q), rows))


def representative(part, cid):
    """The first enumerated flag of class ``cid`` of an ``OrbitPartition``."""
    return decode_flag(part.reps[part.first_index[cid]], part.mm, part.q)


def reference_flag_array(n, mm, q):
    """``enumerate_flag_array`` by writing each group in place: its pivots,
    then each free cell through a reshaped view of the group, the cells
    of later blocks least significant and, inside a block, those of
    later columns and rows."""
    C = n - mm.parts[-1]
    groups = []
    for path in _pivot_paths(list(range(n)), mm.parts[:-1]):
        pivots, cells, col, used = [], [], 0, set()
        for newpiv in path:
            used.update(newpiv)
            cells = [(r, col + k) for k, p in enumerate(newpiv)
                     for r in range(p + 1, n) if r not in used] + cells
            pivots += [(p, col + k) for k, p in enumerate(newpiv)]
            col += len(newpiv)
        groups.append((pivots, cells))
    out = np.zeros((sum(q ** len(c) for _, c in groups), n, C), np.int64)
    pos = 0
    for pivots, cells in groups:
        size = q ** len(cells)
        group = out[pos:pos + size]
        for r, c in pivots:
            group[:, r, c] = 1
        for e, (r, c) in enumerate(cells):
            group.reshape(size // q ** (e + 1), q, q ** e, n, C)[
                :, :, :, r, c] = np.arange(q)[:, None]
        pos += size
    return out


def reference_torus_image(A, d, q):
    """Canonical forms of diag(d)·F for a stack ``A`` of canonical
    matrices F, for nonzero residues ``d``, with no elimination.

    A canonical column's pivot is its first nonzero row.  Scaling row i by
    d_i keeps every zero, so the only repair is to divide each column by
    the factor its pivot row got: scale the non-pivot entries of row i by
    d_i, and the entries below row i of the columns pivoting there by
    1/d_i.  The result is canonical again, with the same pivots.
    """
    out = A.copy()
    pivot = (A != 0).argmax(axis=1)
    for i in np.flatnonzero(d != 1):
        gamma = int(d[i])
        here = pivot == i
        row = out[:, i, :]
        row[...] = np.where(here, row, row.astype(np.int64) * gamma % q)
        k, c = np.nonzero(here)
        below = out[k, i + 1:, c].astype(np.int64)
        out[k, i + 1:, c] = below * pow(gamma, q - 2, q) % q
    return out


def is_torus_element(G):
    """Whether the residue matrix G is diagonal with no zero on it."""
    return not (G - np.diag(np.diag(G))).any() and np.diag(G).all()


def reference_image(part, G, src):
    """Index of G·F for every enumerated flag F at the indices ``src``:
    the dense product mod q, canonicalized and located."""
    q, mm = part.q, part.mm
    dense = np.einsum("ij,njk->nik", np.asarray(G, dtype=np.int64),
                      part.reps[src].astype(np.int64)) % q
    return part.locate(canonicalize_batch(
        dense, q, mm.prefix_sums()[: max(len(mm) - 1, 0)]))


def reference_partition(reps, gen_mats, nn, mm, q):
    """Orbit labels of canonical flags by one sweep per generator and
    power, the loop ``orbit_partition_from_arrays`` batches: every torus
    generator, the scalar one too, to one flag per current class, its
    images by ``reference_torus_image`` and ``locate``; then each power
    G^k of a root element G, in its own sweep, to one flag per torus
    orbit, its images by ``reference_image``."""
    part = OrbitPartition(q, nn, mm, reps, np.zeros(0, dtype=np.int64))
    N = part.size
    root = np.arange(N)

    def class_roots():
        return np.flatnonzero(root == np.arange(N))

    gens = [np.mod(G, q, dtype=np.int64) for G in gen_mats]
    for G in filter(is_torus_element, gens):
        src = class_roots()
        _hook(root, src, part.locate(
            reference_torus_image(reps[src], np.diag(G), q)))
    torus_roots = class_roots()
    for G in gens:
        if is_torus_element(G):
            continue
        eye = np.eye(len(G), dtype=np.int64)
        for k in range(1, q):
            # G - I = c·e_i e_jᵀ squares to 0, so G^k = I + k·(G - I)
            G_k = eye + k * (G - eye)
            _hook(root, torus_roots, reference_image(part, G_k, torus_roots))
    return (np.cumsum(root == np.arange(N)) - 1)[root]


def reference_signature_labels(vectors):
    """One id per distinct row of a uint8 array, each row keyed as one
    record of its bytes: the level-set labels before integer keys."""
    if vectors.shape[1] == 0:
        return np.zeros(vectors.shape[0], dtype=np.int64)
    rows = np.ascontiguousarray(vectors).view(
        np.dtype((np.void, vectors.shape[1])))
    return np.unique(rows.ravel(), return_inverse=True)[1]


# -- group and flag helpers for building test data ----------------------------


def flags_equal(a, b):
    if a.typ != b.typ:
        raise ValueError(f"flag type mismatch: {a.typ} vs {b.typ}")
    if a.field != b.field:
        raise ValueError("flag field mismatch")
    return a.rep.data == b.rep.data


def flag_from_permutation(perm, typ, field=QQ):
    stored = typ.n - typ.parts[-1]
    cols = []
    for j in range(stored):
        v = [field.zero] * typ.n
        v[perm[j] - 1] = field.one
        cols.append(v)
    return Flag.from_matrix(typ, Matrix.from_columns(field, cols, typ.n))


def _random_scalar(field, rng):
    if field is QQ:
        return field.coerce(rng.randint(-3, 3))
    return rng.randrange(field.p)


def _random_nonzero(field, rng):
    while True:
        x = _random_scalar(field, rng)
        if x != field.zero:
            return x


def random_borel_prime(nn, field, rng):
    """Random element of B' over the given field."""
    n = nn.n
    rows = [[field.zero] * n for _ in range(n)]
    for b in range(len(nn)):
        rng_rows = nn.block_range(b)
        for i in rng_rows:
            rows[i][i] = _random_nonzero(field, rng)
            for j in rng_rows:
                if j > i:
                    rows[i][j] = _random_scalar(field, rng)
    return Matrix.from_rows(field, rows)


def random_flag(typ, field, rng):
    n = typ.n
    stored = n - typ.parts[-1]
    while True:
        mat = Matrix.from_rows(
            field, [[_random_scalar(field, rng) for _ in range(stored)]
                    for _ in range(n)])
        if stored == 0 or mat.rank() == stored:
            return Flag.from_matrix(typ, mat)



def borel_order(nn, q):
    """Order of B'(GF(q)): per block of size p, (q - 1)**p torus elements
    times q**(p(p-1)/2) unipotents."""
    order = 1
    for p in nn.parts:
        order *= (q - 1) ** p * q ** (p * (p - 1) // 2)
    return order


def is_invertible(mat):
    return mat.rows == mat.cols and mat.rank() == mat.rows


def permutation_matrix(field, perm):
    """Matrix sending e_j to e_{perm(j)}; ``perm`` is 1-based one-line."""
    n = len(perm)
    cols = []
    for j in range(n):
        v = [field.zero] * n
        v[perm[j] - 1] = field.one
        cols.append(v)
    return Matrix.from_columns(field, cols, n)


def standard_flag(typ, field=QQ):
    return flag_from_permutation(list(range(1, typ.n + 1)), typ, field)


def is_borel_prime(mat, nn):
    """Membership in B': block diagonal with upper-triangular blocks."""
    F = mat.field
    for i in range(mat.rows):
        for j in range(mat.cols):
            if mat[i, j] != F.zero:
                if nn.block_of(i) != nn.block_of(j) or i > j:
                    return False
    return all(mat[i, i] != F.zero for i in range(mat.rows))


def parabolic_contains(spec, mat):
    """Membership of ``mat`` in the parabolic of a ``ParabolicSpec``."""
    F = mat.field
    inv = [0] * len(spec.perm)
    for j, pj in enumerate(spec.perm):
        inv[pj - 1] = j
    for i in range(mat.rows):
        for j in range(mat.cols):
            if mat[i, j] != F.zero and \
                    spec.shape.block_of(inv[i]) > spec.shape.block_of(inv[j]):
                return False
    return True


def random_parabolic(mm, field, rng):
    """Random element of the standard block-upper parabolic of shape mm."""
    n = mm.n
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if mm.block_of(i) < mm.block_of(j):
                rows[i][j] = _random_scalar(field, rng)
    # invertible blocks on the diagonal
    for b in range(len(mm)):
        block = list(mm.block_range(b))
        while True:
            sub = [[_random_scalar(field, rng) for _ in block] for _ in block]
            if is_invertible(Matrix.from_rows(field, sub)):
                break
        for bi, i in enumerate(block):
            for bj, j in enumerate(block):
                rows[i][j] = sub[bi][bj]
    return Matrix.from_rows(field, rows)
