import itertools
import random
import re

import pytest

from flagorbits.flags import Composition, Flag, act, group_generators
from flagorbits.invariants import (JFamily, bruhat_rij, bruhat_vector,
                                   invariant_family, rank_js, rank_table,
                                   signature, verify_family_invariance)
from flagorbits.linalg import Matrix, QQ, gf
from flagorbits.orbits import _integer_rows, enumerate_orbits, orbit_dimension

from conftest import (bruhat_le_subword, dominates, flag_from_permutation,
                      permutation_matrix, random_borel_prime, random_flag,
                      reference_orbit_dimension)


PAPER_FLAG = Matrix.from_rows(QQ, [[1, 1], [2, 0], [0, 1], [0, 0]])


def test_rank_js_worked_examples():
    # the worked example: a complete flag in 4-space, second prefix
    typ = Composition.of(1, 1, 1, 1)
    d = Flag.from_matrix(typ, Matrix.from_rows(
        QQ, [[1, 1, 0], [2, 0, 0], [0, 1, 1], [0, 0, 0]]))
    assert rank_js(d, (1, 4), 2) == 1
    assert rank_js(d, (2, 3), 2) == 2
    # the full row set always sees the whole prefix
    for s in (1, 2, 3):
        assert rank_js(d, (1, 2, 3, 4), s) == s


def test_rank_js_validates_input():
    typ = Composition.of(2, 2)
    f = random_flag(typ, QQ, random.Random(0))
    with pytest.raises(ValueError):
        rank_js(f, (0, 1), 1)
    with pytest.raises(ValueError):
        rank_js(f, (1,), 2)


def test_invariant_family_shapes():
    fam = invariant_family(Composition.of(3, 1), Composition.of(2, 2))
    # suffix sets of the first block, optionally joined with the last row
    js = {J for _, J in fam.entries}
    assert (3,) in js and (3, 4) in js and (4,) in js and (1, 2, 3, 4) in js
    assert len(js) == 2 * 4 - 1
    fam_full = invariant_family(Composition.of(4), Composition.of(1, 3))
    assert {J for _, J in fam_full.entries} == {
        (4,), (3, 4), (2, 3, 4), (1, 2, 3, 4)}


def test_family_invariance_randomized():
    # 100 random block-Borel elements, every (J, s) entry must be constant
    rng = random.Random(101)
    for nn_parts, mm_parts in [((2, 2), (1, 3)), ((2, 1), (1, 1, 1)),
                               ((1, 2, 2), (2, 3))]:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        fam = invariant_family(nn, mm)
        for fld in (QQ, gf(3)):
            for _ in range(50):
                f = random_flag(mm, fld, rng)
                b = random_borel_prime(nn, fld, rng)
                g = act(b, f)
                for s, J in fam.entries:
                    assert rank_js(f, J, s) == rank_js(g, J, s)


def test_family_is_complete_for_small_sizes():
    # every row set OUTSIDE the family admits a violation (n <= 4)
    for nn_parts in [(2, 2), (3, 1), (1, 1, 2)]:
        nn = Composition(nn_parts)
        n = nn.n
        mm = Composition.of(1, n - 1)
        fam_js = {J for _, J in invariant_family(nn, mm).entries}
        fld = gf(2)
        all_flags = _all_lines(n, 2)
        gens = group_generators(nn, 2)
        for size in range(1, n):
            for J in itertools.combinations(range(1, n + 1), size):
                if J in fam_js:
                    continue
                assert _violates(J, all_flags, gens, mm), (nn_parts, J)


def _all_lines(n, q):
    fld = gf(q)
    mm = Composition.of(1, n - 1)
    out = []
    for bits in itertools.product(range(q), repeat=n):
        if any(bits):
            out.append(Flag.from_matrix(
                mm, Matrix.from_columns(fld, [list(bits)], mm.n)))
    return {f.rep.data: f for f in out}.values()


def _violates(J, flags, gens, mm):
    for f in flags:
        base = rank_js(f, J, 1)
        for g in gens:
            if rank_js(act(g, f), J, 1) != base:
                return True
    return False


def test_verify_family_invariance_guard():
    fam = invariant_family(Composition.of(2, 2), Composition.of(1, 3))
    verify_family_invariance(fam)


@pytest.mark.parametrize("nn_parts, mm_parts, J", [
    ((2, 2), (1, 3), (1,)),
    ((3, 2), (1, 1, 3), (2,)),
    ((2, 2, 2), (2, 4), (1,)),
])
def test_verify_family_invariance_rejects_a_row_set_that_is_no_suffix(
        nn_parts, mm_parts, J):
    fam = invariant_family(Composition(nn_parts), Composition(mm_parts))
    verify_family_invariance(fam)
    assert (1, J) not in fam.entries
    with pytest.raises(AssertionError, match=re.escape(f"(s=1, J={J})")):
        verify_family_invariance(
            JFamily(fam.nn, fam.mm, fam.entries + ((1, J),)))


def test_signature_on_borel_translates():
    rng = random.Random(7)
    nn, mm = Composition.of(2, 2), Composition.of(2, 2)
    fam = invariant_family(nn, mm)
    for _ in range(20):
        f = random_flag(mm, QQ, rng)
        b = random_borel_prime(nn, QQ, rng)
        assert signature(f, fam).values == signature(act(b, f), fam).values


NON_INTEGRAL_PAIRS = [
    ((2, 2), (2, 2)), ((2, 1, 2), (3, 2)), ((3, 2), (1, 1, 3)),
    ((1, 2, 2), (2, 1, 2))]


def _non_integral_flags(nn, mm):
    rng = random.Random(11)
    seen = 0
    while seen < 15:
        f = act(random_borel_prime(nn, QQ, rng), random_flag(mm, QQ, rng))
        if all(x.denominator == 1 for row in f.rep.data for x in row):
            continue
        seen += 1
        yield f


@pytest.mark.parametrize("nn_parts,mm_parts", NON_INTEGRAL_PAIRS)
def test_rank_table_matches_signature_on_non_integral_reps(nn_parts,
                                                           mm_parts):
    nn, mm = Composition(nn_parts), Composition(mm_parts)
    fam = invariant_family(nn, mm)
    for f in _non_integral_flags(nn, mm):
        assert rank_table(_integer_rows(f.rep), fam) == \
            signature(f, fam).values


@pytest.mark.parametrize("nn_parts,mm_parts", NON_INTEGRAL_PAIRS)
def test_annihilator_dimension_on_non_integral_reps(nn_parts, mm_parts):
    nn, mm = Composition(nn_parts), Composition(mm_parts)
    for f in _non_integral_flags(nn, mm):
        assert orbit_dimension(f, nn) == reference_orbit_dimension(f, nn)


def test_orbit_dimension_edge_inputs():
    # one column block: the representative is 3 x 0 and the flag a point
    point = Flag.from_matrix(Composition.of(3), Matrix.from_columns(QQ, [], 3))
    assert orbit_dimension(point, Composition.of(2, 1)) == 0
    assert reference_orbit_dimension(point, Composition.of(2, 1)) == 0
    over_f5 = Flag.from_matrix(Composition.of(1, 1, 1), Matrix.from_rows(
        gf(5), [[1, 0], [1, 1], [1, 0]]))
    with pytest.raises(ValueError, match="over Q"):
        orbit_dimension(over_f5, Composition.of(2, 1))


def test_figure_one_signatures_distinct():
    cat = enumerate_orbits(Composition.of(2, 1), Composition.of(1, 1, 1))
    sigs = {e.sig.values for e in cat.entries}
    assert len(sigs) == 13


def test_witness_flags_share_signature():
    from flagorbits.normalforms import witness_pair_over
    nn, mm = Composition.of(3, 2), Composition.of(1, 2, 2)
    d1, d2 = witness_pair_over(nn, mm, 5)
    fam = invariant_family(nn, mm)
    assert signature(d1, fam).values == signature(d2, fam).values


def test_dominance_properties():
    cat = enumerate_orbits(Composition.of(2, 2), Composition.of(1, 3))
    sigs = [e.sig for e in cat.entries]
    for s in sigs:
        assert dominates(s, s)
    closed = [e.sig for e in cat.entries if e.dim == 0]
    top = max(cat.entries, key=lambda e: e.dim).sig
    for s in closed:
        assert dominates(s, top)


def test_incomparable_pair_in_figure_one():
    cat = enumerate_orbits(Composition.of(2, 1), Composition.of(1, 1, 1))
    dim1 = [e.sig for e in cat.entries if e.dim == 1]
    assert len(dim1) == 5
    found = any(not dominates(a, b) and not dominates(b, a)
                for i, a in enumerate(dim1) for b in dim1[i + 1:])
    assert found


def test_signature_serialization_is_sorted_and_stable():
    nn, mm = Composition.of(2, 1), Composition.of(1, 1, 1)
    fam = invariant_family(nn, mm)
    f = flag_from_permutation((1, 2, 3), mm)
    text = signature(f, fam).serialize()
    assert text.splitlines()[0].startswith("s=1 ")
    assert signature(f, fam).serialize() == text


def test_bruhat_rij_basics():
    n = 4
    ident = tuple(range(1, n + 1))
    for i in range(1, n):
        for j in range(1, n):
            assert bruhat_rij(ident, i, j) == max(0, i + j - n)
    w0 = (3, 2, 1)
    assert bruhat_rij(w0, 1, 1) == 1
    with pytest.raises(ValueError):
        bruhat_rij(ident, 0, 1)


def test_bruhat_rij_equals_corner_rank():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        m = permutation_matrix(QQ, perm)
        for i in range(1, n):
            for j in range(1, n):
                corner = m.row_submatrix(range(n - i, n)) \
                    .col_submatrix(range(j))
                assert bruhat_rij(perm, i, j) == corner.rank()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_vector_injective_and_order_preserving(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    vectors = {p: bruhat_vector(p) for p in perms}
    assert len(set(vectors.values())) == len(perms)
    for u in perms:
        for v in perms:
            le_vec = all(a <= b for a, b in zip(vectors[u], vectors[v]))
            assert le_vec == bruhat_le_subword(u, v), (u, v)
