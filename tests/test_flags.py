import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagorbits.flags import (Composition, Flag, act, group_generators,
                              invariant_row_sets, parse_flag_literal, qfamily)
from flagorbits.linalg import Matrix, QQ, gf

from conftest import (compositions, complete_to_invertible, dual,
                      flag_from_permutation, flags_equal, inverse,
                      is_borel_prime, is_invertible, parabolic_contains,
                      permutation_matrix, random_borel_prime, random_flag,
                      random_parabolic, standard_flag)


def test_composition_basics():
    c = Composition.of(1, 2, 1)
    assert c.n == 4
    assert c.prefix_sums() == [0, 1, 3, 4]
    assert c.block_of(1) == 1
    with pytest.raises(ValueError):
        Composition.of(0, 2)


def random_comp(n, rng):
    parts = []
    left = n
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    return Composition(tuple(parts))


def test_canonical_representative_of_displayed_chain():
    # three displayed representatives of one complete flag agree
    from fractions import Fraction
    typ = Composition.of(1, 1, 1, 1)
    m1 = Matrix.from_rows(QQ, [[1, 1, 0], [2, 0, 0], [0, 1, 1], [0, 0, 0]])
    m2 = Matrix.from_rows(QQ, [[1, 0, 0], [2, -2, 0], [0, 1, 1], [0, 0, 0]])
    m3 = Matrix.from_rows(QQ, [[1, 0, 0], [2, 1, 0],
                               [0, Fraction(-1, 2), 1], [0, 0, 0]])
    f1 = Flag.from_matrix(typ, m1)
    f2 = Flag.from_matrix(typ, m2)
    f3 = Flag.from_matrix(typ, m3)
    assert flags_equal(f1, f2) and flags_equal(f2, f3)


def test_canonicalize_idempotent_and_orbit_constant():
    rng = random.Random(13)
    for fld in (QQ, gf(3), gf(5)):
        for _ in range(40):
            typ = random_comp(rng.randint(2, 5), rng)
            f = random_flag(typ, fld, rng)
            again = Flag.from_matrix(typ, f.rep)
            assert flags_equal(f, again)
            # right action is already absorbed; left parabolic action on the
            # representative by a block-upper matrix of the stored type must
            # not change the flag either when applied as column mixing
            stored = f.rep.cols
            if stored == 0:
                continue
            mix_type = Composition(typ.parts[:-1]) if len(typ) > 1 else typ
            p = random_parabolic(mix_type, fld, rng)
            mixed = Flag.from_matrix(typ, f.rep * p)
            assert flags_equal(f, mixed)


def test_rank_deficient_rejected():
    typ = Composition.of(2, 1)
    with pytest.raises(ValueError):
        Flag.from_matrix(typ, Matrix.from_rows(QQ, [[1, 1], [2, 2], [0, 0]]))


def test_flag_from_permutation_cases():
    typ = Composition.of(1, 1, 1)
    f = flag_from_permutation([1, 2, 3], typ)
    assert flags_equal(f, standard_flag(typ))
    # transposition (2 3) on n=3 with type (1,2): first column of the matrix
    g = flag_from_permutation([1, 3, 2], Composition.of(1, 2))
    assert g.rep.column(0) == (1, 0, 0)


def test_permutation_flags_distinct_modulo_young_subgroup():
    # injectivity on S_n modulo S_{m_1} x ... x S_{m_l}, exhaustively for n<=4
    for parts in [(1, 1, 1), (1, 2), (2, 1), (1, 1, 1, 1), (2, 2), (1, 2, 1)]:
        typ = Composition(parts)
        n = typ.n
        seen = {}
        for perm in itertools.permutations(range(1, n + 1)):
            f = flag_from_permutation(perm, typ, gf(2))
            key = f.rep.data
            coset = _young_coset(perm, typ)
            if key in seen:
                assert seen[key] == coset
            else:
                assert coset not in seen.values()
                seen[key] = coset


def _young_coset(perm, typ):
    ps = typ.prefix_sums()
    return tuple(frozenset(perm[ps[i]:ps[i + 1]]) for i in range(len(typ)))


def test_six_permutation_flags_distinct_over_gf2():
    typ = Composition.of(1, 1, 1)
    flags = [flag_from_permutation(p, typ, gf(2))
             for p in itertools.permutations([1, 2, 3])]
    reps = {f.rep.data for f in flags}
    assert len(reps) == 6


def _random_invertible(n, fld, rng):
    while True:
        m = Matrix.from_rows(fld, [[_rand_scalar(fld, rng) for _ in range(n)]
                                   for _ in range(n)])
        if is_invertible(m):
            return m


def _rand_scalar(fld, rng):
    if fld is QQ:
        return rng.randint(-3, 3)
    return rng.randrange(fld.p)


def test_act_identity_and_permutations():
    typ = Composition.of(1, 2)
    f = random_flag(typ, QQ, random.Random(1))
    assert flags_equal(act(Matrix.identity(QQ, 3), f), f)
    sigma, tau = (2, 3, 1), (1, 3, 2)
    comp = tuple(sigma[t - 1] for t in tau)
    lhs = act(permutation_matrix(QQ, sigma),
              flag_from_permutation(tau, typ))
    assert flags_equal(lhs, flag_from_permutation(comp, typ))


def test_dual_basics():
    typ = Composition.of(1, 1)
    e1 = Flag.from_matrix(typ, Matrix.from_columns(QQ, [[1, 0]], 2))
    d = dual(e1)
    assert d.rep.column(0) == (0, 1)
    rng = random.Random(19)
    for _ in range(30):
        typ = random_comp(rng.randint(2, 5), rng)
        f = random_flag(typ, QQ, rng)
        assert flags_equal(dual(dual(f)), f)


def test_dual_conjugates_by_inverse_transpose():
    rng = random.Random(37)
    fld = gf(3)
    typ = Composition.of(2, 2)
    for _ in range(60):
        f = random_flag(typ, fld, rng)
        g = _random_invertible(4, fld, rng)
        lhs = dual(act(g, f))
        rhs = act(inverse(g.transpose()), dual(f))
        assert flags_equal(lhs, rhs)


def _gf2_span(cols, n):
    """Every GF(2) combination of ``cols``, by adding each in turn."""
    span = {(0,) * n}
    for c in cols:
        span |= {tuple((a + b) % 2 for a, b in zip(v, c)) for v in span}
    return span


def test_dual_prefixes_are_brute_force_annihilators():
    # every flag of every type with n <= 4 over GF(2): each prefix of the
    # dual is the set of vectors orthogonal to the matching prefix of f,
    # found by trying all 2^n vectors, with no library elimination
    f2 = gf(2)
    for n in range(1, 5):
        vectors = list(itertools.product((0, 1), repeat=n))
        for typ in compositions(n):
            ps, stored = typ.prefix_sums(), n - typ.parts[-1]
            seen = set()
            for cols in itertools.product(vectors, repeat=stored):
                if len(_gf2_span(cols, n)) != 2 ** stored:
                    continue
                f = Flag.from_matrix(typ, Matrix.from_columns(f2, cols, n))
                if f in seen:
                    continue
                seen.add(f)
                d = dual(f)
                assert d.typ.parts == typ.parts[::-1]
                dps = d.typ.prefix_sums()
                for j in range(1, len(typ)):
                    span = _gf2_span(f.rep.columns()[:ps[len(typ) - j]], n)
                    orth = {v for v in vectors if all(
                        sum(a * b for a, b in zip(v, u)) % 2 == 0
                        for u in span)}
                    assert _gf2_span(d.rep.columns()[:dps[j]], n) == orth


def test_invariant_row_sets_are_block_suffix_unions():
    js = invariant_row_sets(Composition.of(2, 2))
    assert (2,) in js and (2, 4) in js and (1, 2, 3, 4) in js
    assert (1,) not in js and (1, 3) not in js
    assert len(js) == 8  # (n1+1)(n2+1) - 1


def test_qfamily_counts():
    # derived from the invariant row sets: one parabolic per proper set;
    # for (2,2) that is 7 (the folklore 2n-2 only holds when a block is 1)
    specs = qfamily("Bprime", Composition.of(2, 2))
    assert len(specs) == 7
    specs_b = qfamily("Bprime", Composition.of(3, 1))
    assert len(specs_b) == 2 * 4 - 2
    # full Borel: the n-1 standard maximal parabolics
    specs_full = qfamily("Bprime", Composition.of(4))
    assert len(specs_full) == 3
    ps = qfamily("P", Composition.of(1, 2, 1))
    assert [s.shape.parts for s in ps] == [(1, 3), (3, 1)]


def test_qfamily_members_contain_borel():
    # each spec is a group, so containing B''s generators is containing B'
    for parts in [(2, 1), (2, 2), (3, 1), (1, 2, 1), (4,)]:
        nn = Composition(parts)
        for q in (2, 3):
            gens = group_generators(nn, q)
            for spec in qfamily("Bprime", nn):
                assert all(parabolic_contains(spec, g) for g in gens), \
                    (nn, q, spec)


def test_flag_literal_round_trip():
    typ = Composition.of(1, 2, 1)
    f = Flag.from_matrix(typ, Matrix.from_rows(
        QQ, [[1, 1, 0], [2, 0, 0], [0, 1, 1], [0, 0, 0]]))
    back = parse_flag_literal(f.to_literal())
    assert flags_equal(back, f)
    text = "m: 1,2 of n=3\n3 1 F2\n1\n0\n1"
    g = parse_flag_literal(text)
    assert g.field == gf(2)


def test_composition_parse_rejects_empty_fields():
    for text in ["2,1", "2, 1", "2 1"]:
        assert Composition.parse(text) == Composition.of(2, 1)
    for text in ["2,,1", "2,", ",2"]:
        with pytest.raises(ValueError):
            Composition.parse(text)
    with pytest.raises(ValueError):
        parse_flag_literal("m: 1,,2 of n=3\n3 1 Q\n1\n0\n1")


def test_flag_literal_errors_are_value_errors():
    for text in ["", "  \n\n", "m: 1,2 of n=3\n3 1 Q\n1/0\n1\n0\n"]:
        with pytest.raises(ValueError):
            parse_flag_literal(text)


_LITERAL_TOKENS = st.one_of(
    st.integers(-3, 9).map(str),
    st.sampled_from(["1/0", "0/0", "-1/2", "x", "1.5", "1e3", "Q", "F2",
                     "F4", "F0", "Fx", "|", "m:", "of", "n=3", "1,2", ""]))

# header, size line and entries built from plausible tokens, so most
# examples reach the matrix parser instead of failing on the header
_FLAG_LIKE_TEXT = st.builds(
    lambda comp, n, size, entries, sep:
        f"m: {comp} of n={n}\n{size}\n" + sep.join(entries),
    st.lists(st.integers(0, 4), max_size=4).map(
        lambda parts: ",".join(map(str, parts))),
    st.integers(-1, 6),
    st.lists(_LITERAL_TOKENS, max_size=4).map(" ".join),
    st.lists(_LITERAL_TOKENS, max_size=24),
    st.sampled_from([" ", "\n", " | "]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=40), _FLAG_LIKE_TEXT))
def test_flag_literal_parses_or_raises_value_error(text):
    try:
        f = parse_flag_literal(text)
    except ValueError:
        return
    assert isinstance(f, Flag)


def test_complete_to_invertible_deterministic():
    m = Matrix.from_columns(QQ, [[1, 1, 0]], 3)
    g = complete_to_invertible(m)
    assert is_invertible(g)
    # the greedy completion keeps the unit vectors that are pivot columns
    # of the reduced (A | I): e1 enlarges the span, e2 lies in the span of
    # (1,1,0) and e1, and e3 completes it
    assert g.columns() == [(1, 1, 0), (1, 0, 0), (0, 0, 1)]
    g2 = complete_to_invertible(m)
    assert g == g2


def test_random_borel_prime_is_member():
    rng = random.Random(43)
    for fld in (QQ, gf(3)):
        for _ in range(20):
            nn = random_comp(rng.randint(2, 5), rng)
            b = random_borel_prime(nn, fld, rng)
            assert is_borel_prime(b, nn)
            assert is_invertible(b)
