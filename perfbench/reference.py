"""Independent references the benchmark checks the library's outputs against.

Nothing here imports ``flagorbits``: every answer is computed from scratch,
by formulas or by brute force, so a check never compares the library with
itself.  Compositions are plain tuples of positive ints; row and column
indices are zero-based.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction


def prefix_sums(parts):
    out = [0]
    for p in parts:
        out.append(out[-1] + p)
    return out


# -- counting formulas ------------------------------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def flag_count(mm, q: int) -> int:
    """Number of flags of type ``mm`` over GF(q): a product of Gaussian
    binomials, one per block, choosing it inside what is left."""
    total, rest = 1, sum(mm)
    for p in mm:
        total *= gaussian_binomial(rest, p, q)
        rest -= p
    return total


def borel_order(nn, q: int) -> int:
    """|B'(GF(q))|: per block, (q-1)^p diagonals and q^(p(p-1)/2) above."""
    order = 1
    for p in nn:
        order *= (q - 1) ** p * q ** (p * (p - 1) // 2)
    return order


def dim_flag_variety(mm) -> int:
    """dim G/P = sum over i < j of m_i * m_j."""
    return sum(a * b for a, b in itertools.combinations(mm, 2))


def hook_orbit_count(mm) -> int:
    """Orbit count for row blocks (n-1, 1), or (1, n-1) by the coordinate
    rotation that swaps the two blocks:
    (1/n) * n!/(m_1!...m_l!) * sum_k e_k(m) / (k-1)!,
    with e_k the elementary symmetric polynomials of the block sizes."""
    n = sum(mm)
    multinomial = math.factorial(n)
    for p in mm:
        multinomial //= math.factorial(p)
    total = Fraction(0)
    for k in range(1, len(mm) + 1):
        e_k = sum(math.prod(c) for c in itertools.combinations(mm, k))
        total += Fraction(e_k, math.factorial(k - 1))
    value = Fraction(multinomial, n) * total
    if value.denominator != 1:
        raise ArithmeticError(f"hook formula is not integral for {mm}")
    return int(value)


def fixed_point_count(nn, mm) -> int:
    """Number of B'-fixed flags of type ``mm``.

    A fixed flag is a coordinate flag: coordinate i goes to the column
    block c(i) in which it first enters the chain.  It is fixed exactly
    when every subspace meets every row block in a prefix, that is, when
    c is non-decreasing inside every row block.
    """
    labels = [b for b, p in enumerate(mm) for _ in range(p)]
    bounds = prefix_sums(nn)
    count = 0
    for c in set(itertools.permutations(labels)):
        if all(c[i] <= c[i + 1]
               for lo, hi in zip(bounds, bounds[1:])
               for i in range(lo, hi - 1)):
            count += 1
    return count


# -- exact rank ---------------------------------------------------------------


def bareiss_rank(rows) -> int:
    """Rank over Q by fraction-free elimination.

    Each row is first scaled by the lcm of its denominators, which leaves
    the rank unchanged and makes every entry an integer.
    """
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        lcm = math.lcm(*(x.denominator for x in row)) if row else 1
        m.append([int(x * lcm) for x in row])
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank, prev = 0, 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[rank][col] * m[r][c]
                           - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank


def invariant_rank_maps(nn, mm) -> set:
    """All (s, J) whose rank map is B'-invariant: s a proper prefix of
    ``mm`` (1-based), J a nonempty union of per-block row suffixes
    (1-based rows)."""
    bounds = prefix_sums(nn)
    choices = []
    for lo, hi in zip(bounds, bounds[1:]):
        choices.append([tuple(range(start + 1, hi + 1))
                        for start in range(lo, hi + 1)])
    row_sets = set()
    for combo in itertools.product(*choices):
        J = tuple(sorted(r for part in combo for r in part))
        if J:
            row_sets.add(J)
    return {(s, J) for s in range(1, len(mm)) for J in row_sets}


def signature_ranks(mat, mm, maps) -> dict:
    """rank_{J,s} of a representative: the rank of rows J of its first
    m_1 + ... + m_s columns.  Any representative of the flag will do,
    because the right action of P keeps every prefix span."""
    ps = prefix_sums(mm)
    return {(s, J): bareiss_rank([mat[r - 1][:ps[s]] for r in J])
            for s, J in maps}


# -- brute-force orbit count over GF(2) ---------------------------------------


def _subspaces(n: int, dim: int, inside=None) -> set:
    """All subspaces of GF(2)^n of the given dimension containing
    ``inside``; a subspace is the frozenset of its vectors, each an n-bit
    int."""
    start = inside if inside is not None else frozenset([0])
    level = {start}
    # a subspace of dimension k has 2**k vectors
    for _ in range(dim - (len(start).bit_length() - 1)):
        nxt = set()
        for space in level:
            for v in range(1, 1 << n):
                if v not in space:
                    nxt.add(space | frozenset(x ^ v for x in space))
        level = nxt
    return level


def _flags_gf2(n: int, mm) -> list:
    chains = [()]
    for d in prefix_sums(mm)[1:-1]:
        chains = [chain + (space,)
                  for chain in chains
                  for space in _subspaces(n, d, chain[-1] if chain else None)]
    return chains


def gf2_orbit_count(nn, mm) -> int:
    """Number of B'-orbits on flags of type ``mm`` over GF(2).

    Every flag is enumerated as a chain of subspaces, each stored as the
    set of its vectors; union-find joins each flag with its image under
    every generator I + E_ij (i < j in one row block).  Over GF(2) the
    torus is trivial, so these elements generate B'.
    """
    n = sum(nn)
    flags = _flags_gf2(n, mm)
    index = {f: i for i, f in enumerate(flags)}
    parent = list(range(len(flags)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    bounds = prefix_sums(nn)
    gens = [(i, j) for lo, hi in zip(bounds, bounds[1:])
            for i in range(lo, hi) for j in range(i + 1, hi)]
    for f, a in index.items():
        for i, j in gens:
            # (I + E_ij) v adds coordinate j of v into coordinate i
            image = tuple(frozenset(x ^ (((x >> j) & 1) << i) for x in space)
                          for space in f)
            ra, rb = find(a), find(index[image])
            if ra != rb:
                parent[ra] = rb
    return sum(1 for i in range(len(flags)) if find(i) == i)


# -- seeded inputs over Q -------------------------------------------------------


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def random_borel_prime(nn, rng: random.Random):
    """Random element of B' over Q: block diagonal, upper triangular
    blocks, nonzero diagonal, small rational entries."""
    n = sum(nn)
    g = [[Fraction(0)] * n for _ in range(n)]
    bounds = prefix_sums(nn)
    for lo, hi in zip(bounds, bounds[1:]):
        for i in range(lo, hi):
            g[i][i] = rng.choice([Fraction(1), Fraction(-1), Fraction(2),
                                  Fraction(1, 2), Fraction(-3, 2)])
            for j in range(i + 1, hi):
                g[i][j] = Fraction(rng.randint(-2, 2))
    return g


def random_parabolic(mm, rng: random.Random):
    """Random element of the block upper parabolic P over Q: invertible
    diagonal blocks (unit lower times upper triangular) and arbitrary
    entries above them."""
    n = sum(mm)
    bounds = prefix_sums(mm)
    block = [b for b, p in enumerate(mm) for _ in range(p)]
    g = [[Fraction(rng.randint(-2, 2)) if block[i] < block[j] else Fraction(0)
          for j in range(n)] for i in range(n)]
    for lo, hi in zip(bounds, bounds[1:]):
        size = hi - lo
        lower = [[Fraction(1) if a == b else
                  Fraction(rng.randint(-1, 1)) if a > b else Fraction(0)
                  for b in range(size)] for a in range(size)]
        upper = [[Fraction(rng.choice([1, -1, 2])) if a == b else
                  Fraction(rng.randint(-1, 1)) if a < b else Fraction(0)
                  for b in range(size)] for a in range(size)]
        diag = matmul(lower, upper)
        for a in range(size):
            for b in range(size):
                g[lo + a][lo + b] = diag[a][b]
    return g


def sparse_flag(mm, rng: random.Random):
    """Random full-column-rank integer representative of a flag of type
    ``mm``: an n x (n - m_l) matrix, about a third of whose entries are
    nonzero, in -2..2."""
    n = sum(mm)
    cols = n - mm[-1]
    while True:
        mat = [[rng.choice([-2, -1, 1, 2]) if rng.random() < 0.35 else 0
                for _ in range(cols)] for _ in range(n)]
        if bareiss_rank(mat) == cols:
            return [[Fraction(x) for x in row] for row in mat]


def translate(mat, nn, mm, rng: random.Random):
    """b * mat * p for random b in B' and p in P: the same B'-orbit,
    written by another representative of another point of it."""
    b = random_borel_prime(nn, rng)
    p = random_parabolic(mm, rng)
    n = sum(mm)
    stored = n - mm[-1]
    p_stored = [row[:stored] for row in p[:stored]]
    return matmul(matmul(b, mat), p_stored)


def flag_literal(mat, mm) -> str:
    """The library's flag literal format for a rational representative."""
    head = f"m: {','.join(map(str, mm))} of n={sum(mm)}"
    rows = [" ".join(str(x) for x in row) for row in mat]
    return "\n".join([head, f"{len(mat)} {len(mat[0])} Q"] + rows) + "\n"
