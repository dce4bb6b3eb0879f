"""Case classification, normal forms, reducers, and non-injectivity witnesses.

The seven finiteness rows (by ``k = len(nn)``, ``N = min(nn)``,
``l = len(mm)``, ``M = min(mm)``) are matched in display order; the first
matching row names the case.  Each case with a classification gets a
normal-form data type, a realization from its integer rows, and a
reducer:

* case 0 (two blocks on both sides) and case III' (one row block of
  size one, normal forms with a pivot block and a decreasing chain of
  marked rows) -- read off the signature: a decoder rebuilds the normal
  form from rank differences alone, and the reducer decodes the flag's
  signature;
* cases I, II, III and I' with middle block 1 -- catalogs of 0/1
  representatives deduplicated by signature (sound because the rank
  signature separates orbits in these cases), reduced by signature
  lookup.

Every normal form has integer ``rows`` in the pair's own row order whose
column prefixes span its own flag, and one shared ``realize`` makes them
the canonical flag over any field.  The rows are 0/1, except for a dual
pattern, whose rows are an integer basis of V^perp, V the span of its
0/1 columns with the rows reversed inside every row block.  Catalog
builds rank and dimension the same rows as integers and realize none of
them.

Non-injective shapes (I' with an outer block of size 1 and n >= 5, and
all of II') refuse reduction and instead expose an explicit witness pair:
two flags with identical signatures in different orbits.  Each pair is
certified exactly over Q: equal signatures, and orbit dimensions that
differ.  The dimension is that of a rational linear system, so it is the
same over Q, R and C, and two flags of different dimensions lie in
different orbits over each of them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .flags import Composition, Flag
from .invariants import Signature, invariant_family, rank_table, signature
from .linalg import Field, Matrix, QQ, gf, integer_dual, integer_rank


class InfinitePairError(ValueError):
    """The pair has infinitely many double cosets (no table row matches)."""


class NonInjectiveError(ValueError):
    """Signatures do not separate orbits for this pair; witnesses attached."""

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = witnesses


class UnsupportedCaseError(ValueError):
    """The pair is finite (and separable) but no classification is available."""


class CatalogLookupError(ValueError):
    """A signature failed to match any catalog entry (catalog/invariance bug)."""


class InconsistentSignatureError(ValueError):
    """No flag attains the given signature."""


@dataclass(frozen=True)
class CaseTag:
    label: str                 # one of 0 I II III I' II' III'
    subcase: Optional[str] = None
    injective: bool = True

    def __str__(self):
        if self.subcase:
            return f"{self.label} [{self.subcase}]"
        return self.label


def classify_pair(nn: Composition, mm: Composition) -> Optional[CaseTag]:
    """First matching finiteness row, or ``None`` for an infinite pair."""
    if nn.n != mm.n:
        raise ValueError("compositions of different integers")
    k, l = len(nn), len(mm)
    N, M = min(nn.parts), min(mm.parts)
    n = nn.n
    if k == 2 and l == 2:
        return CaseTag("0")
    if k == 3 and N == 1 and l == 2 and M >= 2:
        return CaseTag("I")
    if k == 3 and N >= 2 and l == 2 and M == 2:
        sub = "(2,n-2)" if mm.parts[0] == 2 else "(n-2,2)"
        return CaseTag("II", sub)
    if l == 2 and M == 1:
        sub = "(1,n-1)" if mm.parts[0] == 1 else "(n-1,1)"
        return CaseTag("III", sub)
    if k == 2 and N >= 2 and l == 3 and M == 1:
        if mm.parts[1] == 1:
            return CaseTag("I'", "m2=1")
        sub = "m1=1" if mm.parts[0] == 1 else "m3=1"
        return CaseTag("I'", sub, injective=n <= 4)
    if k == 2 and N == 2 and l == 3 and M >= 2:
        return CaseTag("II'", injective=False)
    if k == 2 and N == 1:
        sub = "(n-1,1)" if nn.parts[0] == n - 1 else "(1,n-1)"
        return CaseTag("III'", sub)
    return None


def has_catalog(tag: CaseTag) -> bool:
    """True when the case has an implemented normal-form classification."""
    if tag.label in ("0", "I", "II", "III", "III'"):
        return True
    return tag.label == "I'" and tag.subcase == "m2=1"


# ---------------------------------------------------------------------------
# normal form data types
# ---------------------------------------------------------------------------


def _realize(nf: "NormalForm", fld: Field = QQ) -> Flag:
    """The flag of ``nf`` over ``fld``: the canonical flag of its ``rows``."""
    return Flag.from_matrix(nf.mm, Matrix.from_rows(fld, nf.rows))


def _rows_of(n: int, supports: Sequence[Sequence[int]]
             ) -> tuple[tuple[int, ...], ...]:
    """The n 0/1 rows of the matrix whose column j has its ones at the
    1-based rows ``supports[j]``."""
    rows = [[0] * len(supports) for _ in range(n)]
    for j, s in enumerate(supports):
        for i in s:
            rows[i - 1][j] = 1
    return tuple(map(tuple, rows))


def _relabel(rows: Sequence[tuple], perm: Sequence[int]) -> tuple[tuple, ...]:
    """Row i of the result is row ``perm[i]`` (1-based) of ``rows``."""
    return tuple(rows[p - 1] for p in perm)


@dataclass(frozen=True)
class NFCase0:
    """Two-block normal form: columns carrying f-rows (sorted by the f index,
    each optionally paired with an e index) followed by sorted pure e columns.
    """

    nn: Composition
    mm: Composition
    cols: tuple[tuple[Optional[int], Optional[int]], ...]  # (e, f), 1-based

    @property
    def s(self) -> int:
        return sum(1 for _, f in self.cols if f is not None)

    @property
    def r(self) -> int:
        return sum(1 for e, f in self.cols if f is not None and e is None)

    def serialize(self) -> str:
        carriers = [(e, f) for e, f in self.cols if f is not None]
        tail = [e for e, f in self.cols if f is None]
        i_txt = ",".join(str(f) for _, f in carriers)
        j_txt = ",".join("_" if e is None else str(e) for e, _ in carriers)
        t_txt = ",".join(str(e) for e in tail)
        return (f"case=0 r={self.r} s={self.s} "
                f"i=[{i_txt}] j=[{j_txt};{t_txt}]")

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """0/1 rows, columns ordered by their first nonzero row: the
        canonical representative itself, since no two columns share a row."""
        n1 = self.nn.parts[0]
        supports = sorted(((e,) if e else ()) + ((n1 + f,) if f else ())
                          for e, f in self.cols)
        return _rows_of(self.nn.n, supports)

    realize = _realize


@dataclass(frozen=True)
class NFChain:
    """Normal form for the one-small-row-block case: a pivot block ``j0``
    (1-based, possibly the dropped last block), disjoint marked row sets for
    the stored blocks, and a chain of (block, row) marks with increasing
    blocks past ``j0`` and strictly decreasing rows.
    """

    nn: Composition            # original orientation, (n-1,1) or (1,n-1)
    mm: Composition
    j0: int
    blocks: tuple[tuple[int, ...], ...]   # stored blocks 1..l-1, sorted rows
    chain: tuple[tuple[int, int], ...]    # (block, row) pairs

    @property
    def swapped(self) -> bool:
        return self.nn.parts[0] == 1 and self.nn.n > 2

    def serialize(self) -> str:
        btxt = "|".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        ctxt = ",".join(f"({j}:{i})" for j, i in self.chain)
        return f"case=III' j0={self.j0} blocks=[{btxt}] chain=[{ctxt}]"

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """0/1 rows of the (n-1, 1) orientation: per stored block, the pivot
        column (last row plus the chain rows) when it is ``j0``, then one
        column per marked row; when swapped, the last row moves to the top,
        which conjugates the (n-1, 1) block Borel onto the (1, n-1) one."""
        n = self.nn.n
        supports = []
        for bi, rows in enumerate(self.blocks, start=1):
            if bi == self.j0:
                supports.append((n,) + tuple(i for _, i in self.chain))
            supports.extend((p,) for p in rows)
        out = _rows_of(n, supports)
        return out[-1:] + out[:-1] if self.swapped else out

    realize = _realize


def _column_terms(col: Sequence[int]) -> str:
    """A 0/1 column as it serializes: the sum of its rows' unknowns."""
    return "+".join(f"x{i + 1}" for i, x in enumerate(col) if x) or "0"


@dataclass(frozen=True)
class NFPattern:
    """Catalog entry for the signature-lookup cases: a 0/1 representative on
    the primal side together with the transform back to the original pair
    (a row relabeling for case I, the orthogonal swap g -> w0 g^{-T} w0
    for the dual subcases III (n-1,1) and II (n-2,2), w0 the block
    reversal).
    """

    case: str
    subcase: Optional[str]
    nn: Composition
    mm: Composition
    matrix01: tuple[tuple[int, ...], ...]   # primal-side rows
    row_perm: Optional[tuple[int, ...]] = None
    dualize: bool = False

    def serialize(self) -> str:
        cols = [_column_terms(col) for col in zip(*self.matrix01)]
        extra = ""
        if self.row_perm:
            extra = " perm=[" + ",".join(map(str, self.row_perm)) + "]"
        if self.dualize:
            extra = " dual=1"
        sub = f" [{self.subcase}]" if self.subcase else ""
        return f"case={self.case}{sub} cols=[{';'.join(cols)}]{extra}"

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """``matrix01`` relabeled by ``row_perm``; for a dual pattern, the
        ``integer_dual`` rows of the block-reversed ``matrix01``: an integer
        basis of V^perp, V the span of the block-reversed columns.

        Both dual subcases have two column blocks, so these are one
        ``integer_kernel``, each vector +-1 at its own free column and 0 at
        the others (the echelon pivots of at most two 0/1 rows are +-1):
        the rows stay independent modulo every prime.
        """
        rows = self.matrix01
        if self.dualize:
            return integer_dual(_relabel(rows, _block_reversal_perm(self.nn)),
                                self.mm.parts[::-1])
        if self.row_perm:
            rows = _relabel(rows, self.row_perm)
        return rows

    realize = _realize


NormalForm = NFCase0 | NFChain | NFPattern


# -- permutation helpers -----------------------------------------------------


def _block_reversal_perm(nn: Composition) -> tuple[int, ...]:
    """Order reversal inside every row block (an involution); conjugates the
    transposed block Borel back to the standard one."""
    perm = []
    ps = nn.prefix_sums()
    for b, size in enumerate(nn.parts):
        perm.extend(range(ps[b] + size, ps[b], -1))
    return tuple(perm)


def _case1_row_perm(nn: Composition) -> tuple[tuple[int, ...], Composition]:
    """Row relabeling moving the first size-1 block of ``nn`` to the front.

    Returns (rho, permuted_nn) where row r of the original setup becomes
    row rho(r) of the canonical one.
    """
    t = next(i for i, p in enumerate(nn.parts) if p == 1)
    order = [t] + [i for i in range(len(nn.parts)) if i != t]
    ps = nn.prefix_sums()
    rho = [0] * nn.n
    new_pos = 1
    for b in order:
        for r in range(ps[b] + 1, ps[b + 1] + 1):
            rho[r - 1] = new_pos
            new_pos += 1
    return tuple(rho), Composition(tuple(nn.parts[b] for b in order))


# ---------------------------------------------------------------------------
# cases 0 and III': normal forms decoded from the signature
# ---------------------------------------------------------------------------


def reduce_case0(f: Flag, nn: Composition) -> NFCase0:
    """Unique two-block normal form, decoded from the flag's signature."""
    if len(nn) != 2 or len(f.typ) != 2:
        raise ValueError(f"pair ({nn}, {f.typ}) is not a two-block pair")
    return decode_signature_case0(signature(f, invariant_family(nn, f.typ)))


def reduce_case3prime(f: Flag, nn: Composition) -> NFChain:
    """Pivot-block normal form, decoded from the flag's signature."""
    # row predicate, not first-match: pairs matching several table rows
    # must stay reducible by each matching row's reducer
    if len(nn) != 2 or min(nn.parts) != 1:
        raise ValueError(f"pair ({nn}, {f.typ}) is not a one-line-block pair")
    return decode_signature_case3prime(
        signature(f, invariant_family(nn, f.typ)))


def _check_signature(nf: NormalForm, sig: Signature) -> NormalForm:
    """``nf``, when its rows span a flag with the values of ``sig``;
    raises ``InconsistentSignatureError`` otherwise.

    The decoders build independent columns, so ``n - m_l`` of them span a
    flag of the signature's type.  Ranking the rows over Q serves every
    field: an ``NFCase0``'s columns have disjoint supports, and an
    ``NFChain``'s columns other than the pivot column are distinct unit
    vectors, so supports fix every rank."""
    mm, rows = sig.family.mm, nf.rows
    if len(rows[0]) != mm.n - mm.parts[-1] or \
            rank_table(rows, sig.family) != sig.values:
        raise InconsistentSignatureError("no normal form has this signature")
    return nf


def decode_signature_case0(sig: Signature) -> NFCase0:
    """Rebuild the case-0 normal form from rank differences alone."""
    nn, mm = sig.family.nn, sig.family.mm
    n1, n2 = nn.parts
    n = nn.n
    idx = sig.family.index()

    def val(J: tuple[int, ...]) -> int:
        if not J:
            return 0
        return sig.values[idx[(1, J)]]

    def e_suffix(p):  # rows p..n1
        return tuple(range(p, n1 + 1))

    def f_suffix(p):  # rows n1+p..n
        return tuple(range(n1 + p, n + 1))

    i_list = [p for p in range(1, n2 + 1)
              if val(f_suffix(p)) - val(f_suffix(p + 1)) == 1]
    j_list = [p for p in range(1, n1 + 1)
              if val(e_suffix(p)) - val(e_suffix(p + 1)) == 1]

    def joint(j, i):
        return tuple(sorted(set(e_suffix(j)) | set(f_suffix(i))))

    pair_of_i: dict[int, int] = {}
    for i in i_list:
        for j in j_list:
            c1 = val(joint(j, i)) - val(joint(j + 1, i))
            c2 = val(joint(j, i + 1)) - val(joint(j + 1, i + 1))
            if c1 == 0 and c2 == 1:
                pair_of_i[i] = j
    used_j = set(pair_of_i.values())
    cols = [(pair_of_i.get(i), i) for i in i_list] + \
        [(j, None) for j in j_list if j not in used_j]
    return _check_signature(NFCase0(nn, mm, tuple(cols)), sig)


def decode_signature_case3prime(sig: Signature) -> NFChain:
    """Rebuild the III' normal form from rank differences alone.

    In the (n-1, 1) orientation, with a_s = rank({n}, s): j0 is the first
    s with a_s = 1, or l if there is none.  c(r, s) = rank({r..n}, s) - a_s
    counts the marked rows >= r of the blocks <= s, so row r is marked in
    the first block s with c(r, s) > c(r + 1, s).  For s >= j0,
    rank({r..n-1}, s) - c(r, s) is 1 exactly when a chain row >= r lies in
    a block past s; the largest such r is the row of the next chain
    element, whose block is 1 + the last s at which it is that r.  The
    (1, n-1) orientation, n > 2, reads rows 1..n-1 as its rows 2..n and
    row n as its row 1.
    """
    nn, mm = sig.family.nn, sig.family.mm
    n, l = nn.n, len(mm)
    idx = sig.family.index()
    label = list(range(n + 1))  # row i of the (n-1, 1) orientation
    if nn.parts[0] == 1 and n > 2:
        label = [0] + label[2:] + [1]

    def rank(r: int, s: int, last: bool = True) -> int:
        """rank of rows r..n-1, and of row n if ``last``, at prefix s"""
        J = tuple(sorted(label[i] for i in range(r, n + 1 if last else n)))
        return sig.values[idx[s, J]] if J else 0

    def count(r: int, s: int) -> int:
        return rank(r, s) - rank(n, s)

    j0 = next((s for s in range(1, l) if rank(n, s) == 1), l)
    block = {r: next((s for s in range(1, l) if count(r, s) > count(r + 1, s)),
                     None) for r in range(1, n)}
    blocks = tuple(tuple(r for r in range(1, n) if block[r] == b)
                   for b in range(1, l))
    chain_block: dict[int, int] = {}
    for s in range(j0, l):
        top = max((r for r in range(1, n)
                   if rank(r, s, False) - count(r, s) == 1), default=None)
        if top is not None:
            chain_block[top] = s + 1
    chain = tuple(sorted((b, r) for r, b in chain_block.items()))
    return _check_signature(NFChain(nn, mm, j0, blocks, chain), sig)


# ---------------------------------------------------------------------------
# catalog-backed reduction for the remaining separable cases
# ---------------------------------------------------------------------------


def reduce_by_catalog(f: Flag, nn: Composition) -> NormalForm:
    """Signature lookup against the enumerated catalog of the pair."""
    from .orbits import enumerate_orbits  # deferred to avoid a cycle

    tag = classify_pair(nn, f.typ)
    if tag is None:
        raise InfinitePairError(f"pair (nn={nn} | mm={f.typ}) is infinite")
    if not has_catalog(tag):
        raise UnsupportedCaseError(f"case {tag} has no catalog")
    cat = enumerate_orbits(nn, f.typ)
    entry = cat.by_values.get(signature(f, cat.family).values)
    if entry is None:
        raise CatalogLookupError(
            f"signature of the flag matches no catalog entry of ({nn}, {f.typ}); "
            "this indicates a catalog or invariance bug")
    return entry.nf


def reduce_flag(f: Flag, nn: Composition) -> NormalForm:
    """Dispatch to the case's reducer; raises on infinite or witness cases."""
    tag = classify_pair(nn, f.typ)
    if tag is None:
        raise InfinitePairError(f"pair ({nn}, {f.typ}) is infinite")
    if tag.label == "0":
        return reduce_case0(f, nn)
    if tag.label == "III'":
        return reduce_case3prime(f, nn)
    if not tag.injective:
        raise NonInjectiveError(
            f"case {tag} does not separate orbits by signature",
            witnesses=None)
    return reduce_by_catalog(f, nn)


# ---------------------------------------------------------------------------
# catalog generators (normal form lists per case)
# ---------------------------------------------------------------------------


def case0_normal_forms(nn: Composition, mm: Composition) -> list[NFCase0]:
    """All two-block normal forms: choose the carried f-rows, a paired
    subset with injectively assigned e-rows, and a sorted pure-e tail."""
    n1, n2 = nn.parts
    m1 = mm.parts[0]
    out = []
    for s in range(0, min(m1, n2) + 1):
        tail_len = m1 - s
        for i_set in itertools.combinations(range(1, n2 + 1), s):
            for paired in _subsets(i_set):
                free_e = n1 - len(paired)
                if tail_len > free_e:
                    continue
                for j_assign in itertools.permutations(
                        range(1, n1 + 1), len(paired)):
                    used = set(j_assign)
                    rest = [j for j in range(1, n1 + 1) if j not in used]
                    for tail in itertools.combinations(rest, tail_len):
                        cols: list[tuple[Optional[int], Optional[int]]] = []
                        pair_map = dict(zip(paired, j_assign))
                        for i in i_set:
                            cols.append((pair_map.get(i), i))
                        for e in tail:
                            cols.append((e, None))
                        out.append(NFCase0(nn, mm, tuple(cols)))
    return out


def _subsets(items):
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


def case3prime_normal_forms(nn: Composition, mm: Composition) -> list[NFChain]:
    """All pivot-block/chain normal forms for the one-line-block case."""
    n = nn.n
    l = len(mm)
    out = []
    rows = list(range(1, n))
    for j0 in range(1, l + 1):
        sizes = [mm.parts[b] - (1 if b + 1 == j0 else 0) for b in range(l)]
        chain_blocks_options = []
        later = list(range(j0 + 1, l + 1))
        for k in range(0, len(later) + 1):
            chain_blocks_options.extend(itertools.combinations(later, k))
        for chain_blocks in chain_blocks_options:
            adj = list(sizes)
            for jb in chain_blocks:
                adj[jb - 1] -= 1
            if any(a < 0 for a in adj):
                continue
            k = len(chain_blocks)
            for marked in itertools.combinations(rows, k):
                # decreasing values across increasing blocks
                chain = tuple(zip(chain_blocks, sorted(marked, reverse=True)))
                for assignment in _distributions(
                        [r for r in rows if r not in marked], adj):
                    blocks = []
                    for b in range(l - 1):
                        block_rows = list(assignment[b])
                        if b + 1 in chain_blocks:
                            block_rows.append(dict(chain)[b + 1])
                        blocks.append(tuple(sorted(block_rows)))
                    out.append(NFChain(nn, mm, j0, tuple(blocks), chain))
    return out


def _distributions(items: list[int], sizes: list[int]):
    """All ways to split ``items`` into disjoint sets of the given sizes."""
    if sum(sizes) != len(items):
        return
    if not sizes:
        yield ()
        return
    first, rest = sizes[0], sizes[1:]
    for chosen in itertools.combinations(items, first):
        remaining = [x for x in items if x not in chosen]
        for tail in _distributions(remaining, rest):
            yield (chosen,) + tail


def _bit_vectors(length: int):
    return itertools.product((0, 1), repeat=length)


# Rules 1 and 3 of ``pattern_candidates`` put one unknown x_a before a
# later x_c in a column's terms, which makes the key smaller only while
# every index has one digit: "x2" sorts after "x10".
_ONE_DIGIT_ROWS = 9


def _disjoint(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether two 0/1 vectors share no 1."""
    return not any(map(operator.and_, a, b))


def _row_move_lowers(block: Sequence[Sequence[int]], n: int) -> bool:
    """Rule 1, on the rows of one row block of an n-row 0/1 matrix: some
    row b is nonzero and shares no 1 with an earlier row a.  Adding row b
    to row a then gives a 0/1 matrix whose key is smaller.  False for
    n > ``_ONE_DIGIT_ROWS``, where the key need not be smaller."""
    return n <= _ONE_DIGIT_ROWS and any(
        any(rb) and _disjoint(ra, rb)
        for b, rb in enumerate(block) for ra in block[:b])


def _column_move_lowers(base_cols: Sequence[Sequence[int]],
                        extra: Sequence[int], n: int) -> bool:
    """Rule 3: the extra column shares no 1 with some base column c, so
    extra + c is a 0/1 column with a smaller key.  False for
    n > ``_ONE_DIGIT_ROWS``, where the key need not be smaller."""
    return n <= _ONE_DIGIT_ROWS and any(_disjoint(c, extra)
                                        for c in base_cols)


def _plane_vectors(u: tuple[int, ...], v: tuple[int, ...]) -> list:
    """The 0/1 vectors of span{u, v}, for distinct nonzero 0/1 u and v:
    u, v, and u XOR v when u AND v is 0, u or v, since u XOR v is then
    u + v or |u - v|.  There are no others: a*u + b*v must be 0 or 1
    where only u is 1 (a), where only v is (b) and where both are
    (a + b)."""
    meet = tuple(map(operator.and_, u, v))
    if any(meet) and meet != u and meet != v:
        return [u, v]
    return [u, v, tuple(map(operator.xor, u, v))]


def _smallest_basis(u: tuple[int, ...], v: tuple[int, ...],
                    terms: dict[tuple[int, ...], str]) -> bool:
    """Rule 2: (u, v) has the smallest key of the ordered bases of its
    plane by two of its 0/1 vectors, ``terms`` giving each vector's
    ``_column_terms``.  Keys of one pair differ only in their text between
    ``cols=[`` and ``]``, so they compare as that text."""
    key = f"{terms[u]};{terms[v]}]"
    return all(key <= f"{terms[a]};{terms[b]}]"
               for a, b in itertools.permutations(_plane_vectors(u, v), 2))


def pattern_candidates(tag: CaseTag, nn: Composition,
                       mm: Composition) -> list[NFPattern]:
    """0/1 representatives for the signature-lookup cases.

    The lists cover every orbit (they include all shapes of the case's
    classification); the caller keeps the smallest ``serialize()`` per
    signature.  Cases II and I' (m2 = 1) leave out candidates that a B'
    row operation or a P column operation maps to another candidate with
    a smaller key:

    1. case II, rows: rows a < b of one row block, row b nonzero and
       sharing no 1 with row a.  Adding row b to row a is in B', and so
       is its image w0 g^-T w0 for the dual subcase; the result is a 0/1
       plane whose column terms gain x_a before a later unknown;
    2. case II, columns: a plane {u, v} is listed only by its ordered
       basis of smallest key.  When the plane holds a third 0/1 vector
       (u + v, or |u - v|), that is one of six bases, else one of two.
       The flag, and V^perp for the dual subcase, stay the same;
    3. I' (m2 = 1): an extra column x that shares no 1 with some base
       column c.  With the base columns, x + c spans the same U_2 as x,
       and its terms are those of x plus some.

    A candidate left out has the signature of a candidate with a strictly
    smaller key, so it would never have been kept; the smallest key of a
    signature is never left out, and the catalog is that of the full
    lists.  Rules 1 and 3 need one-digit unknowns x1..x9: for n > 9
    (``_ONE_DIGIT_ROWS``) they drop nothing.  Rule 2 compares whole keys
    and holds for every n.
    """
    n = nn.n
    if tag.label == "III":
        dualize = tag.subcase == "(n-1,1)" and n > 2
        return [NFPattern("III", tag.subcase, nn, mm,
                          tuple((b,) for b in bits), dualize=dualize)
                for bits in _bit_vectors(n) if any(bits)]

    if tag.label == "II":
        dualize = tag.subcase == "(n-2,2)"
        # rule 1 reads one row block at a time: filter each block's rows
        # (pairs of entries of u and v) before combining the blocks
        blocks = [[rows for rows in itertools.product(
                       tuple(_bit_vectors(2)), repeat=size)
                   if not _row_move_lowers(rows, n)] for size in nn.parts]
        terms = {u: _column_terms(u) for u in _bit_vectors(n)}
        cands = []
        for parts in itertools.product(*blocks):
            rows = sum(parts, ())
            u, v = zip(*rows)
            if any(u) and any(v) and u != v and \
                    _smallest_basis(u, v, terms):
                cands.append(NFPattern("II", tag.subcase, nn, mm, rows,
                                       dualize=dualize))
        return cands

    if tag.label == "I":
        rho, canon_nn = _case1_row_perm(nn)
        n2, n3 = canon_nn.parts[1], canon_nn.parts[2]
        sub_nn = Composition.of(n2, n3)
        m1 = mm.parts[0]
        cands = []
        # orbits missing the scalar row entirely
        if m1 <= n - 1:
            for nf in case0_normal_forms(sub_nn,
                                         Composition.of(m1, n - 1 - m1)):
                rowsm = ((0,) * m1,) + nf.rows
                cands.append(NFPattern("I", tag.subcase, nn, mm, rowsm,
                                       row_perm=rho))
        # orbits meeting the scalar row: a distinguished first column
        tail_mm = None if m1 == 1 else Composition.of(m1 - 1, n - m1)
        base_forms = [None] if tail_mm is None else \
            case0_normal_forms(sub_nn, tail_mm)
        for base in base_forms:
            base_rows = ((),) * (n - 1) if base is None else base.rows
            for u in _bit_vectors(n2):
                for v in _bit_vectors(n3):
                    rowsm = ((1,) + (0,) * (m1 - 1),) + tuple(
                        (x,) + r for x, r in zip(u + v, base_rows))
                    cands.append(NFPattern("I", tag.subcase, nn, mm, rowsm,
                                           row_perm=rho))
        return cands

    if tag.label == "I'" and tag.subcase == "m2=1":
        m1 = mm.parts[0]
        cands = []
        for base in case0_normal_forms(nn, Composition.of(m1, n - m1)):
            base_rows = base.rows
            base_cols = tuple(zip(*base_rows))
            for extra in _bit_vectors(n):
                if not any(extra) or \
                        _column_move_lowers(base_cols, extra, n):
                    continue
                rowsm = tuple(r + (x,) for r, x in zip(base_rows, extra))
                if integer_rank(rowsm) != m1 + 1:
                    continue
                cands.append(NFPattern("I'", tag.subcase, nn, mm, rowsm))
        return cands

    raise UnsupportedCaseError(f"no pattern generator for case {tag}")


# ---------------------------------------------------------------------------
# non-injectivity witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessPair:
    d1: Flag
    d2: Flag
    case: CaseTag
    nn: Composition
    mm: Composition


# (nn, mm) -> (whether the flags are dualized, the rows of the two flags,
# read in type mm, or in mm reversed when they are dualized)
_WITNESSES = {
    ((3, 2), (1, 2, 2)): (False, (
        ((0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 0, 1), (1, 1, 0)),
        ((0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 1), (1, 1, 0)),
    )),
    ((3, 2), (2, 2, 1)): (True, (
        ((1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0), (0, 1, 1)),
    )),
    ((4, 2), (2, 2, 2)): (False, (
        ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 1, 0)),
        ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (0, 1, 0, 0), (0, 0, 1, 1), (0, 1, 1, 0)),
    )),
}


def _witness_flags(nn: Composition, mm: Composition,
                   fld: Field) -> tuple[Flag, Flag]:
    """The two witness flags of a supported shape, built over ``fld``; a
    dualized pair's annihilator rows are computed on the integers."""
    try:
        dualize, pair = _WITNESSES[nn.parts, mm.parts]
    except KeyError:
        raise UnsupportedCaseError(
            f"no witness construction implemented for ({nn}, {mm})") from None
    if dualize:
        pair = [integer_dual(rows, mm.parts[::-1]) for rows in pair]
    return tuple(Flag.from_matrix(mm, Matrix.from_rows(fld, rows))
                 for rows in pair)


def counterexample_pair(nn: Composition, mm: Composition) -> WitnessPair:
    """Two flags with identical signatures lying in different orbits.

    Supported shapes: the minimal non-injective configurations
    ((3,2)/(1,2,2), (3,2)/(2,2,1) through the orthogonal swap, and
    (4,2)/(2,2,2)).  The pair is checked on construction: exact signature
    equality, and orbit dimensions over Q that differ, so the flags lie in
    different orbits over Q and over R.
    """
    from .orbits import orbit_dimension  # deferred to avoid a cycle

    tag = classify_pair(nn, mm)
    if tag is None:
        raise InfinitePairError(f"pair ({nn}, {mm}) is infinite")
    if tag.injective:
        raise ValueError(f"case {tag} separates orbits; no witnesses exist")
    pair = WitnessPair(*_witness_flags(nn, mm, QQ), tag, nn, mm)
    fam = invariant_family(nn, mm)
    if signature(pair.d1, fam).values != signature(pair.d2, fam).values:
        raise AssertionError("witness flags have different signatures")
    if orbit_dimension(pair.d1, nn) == orbit_dimension(pair.d2, nn):
        raise AssertionError("witness flags have equal orbit dimensions")
    return pair


def witness_pair_over(nn: Composition, mm: Composition,
                      q: int) -> tuple[Flag, Flag]:
    """The witness flags rebuilt intrinsically over GF(q)."""
    return _witness_flags(nn, mm, gf(q))

