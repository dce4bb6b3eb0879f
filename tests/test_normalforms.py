import itertools
import os
import random
import subprocess
import sys

import pytest

import flagorbits
from flagorbits.flags import Composition, Flag, act
from flagorbits.invariants import Signature, invariant_family, signature
from flagorbits.linalg import Matrix, QQ, gf, integer_dual
import flagorbits.normalforms as normalforms_mod
from flagorbits.normalforms import (InconsistentSignatureError,
                                    InfinitePairError, NFChain, NFPattern,
                                    NonInjectiveError,
                                    _column_move_lowers, _row_move_lowers,
                                    case0_normal_forms,
                                    case3prime_normal_forms,
                                    classify_pair, counterexample_pair,
                                    decode_signature_case0,
                                    decode_signature_case3prime, has_catalog,
                                    reduce_by_catalog, reduce_case0,
                                    reduce_case3prime, reduce_flag,
                                    witness_pair_over)
from flagorbits.orbits import enumerate_orbits, orbit_dimension

from conftest import (borel_translates, compositions, dual, flags_equal,
                      random_borel_prime, random_flag,
                      reference_orbit_dimension, reference_reduce_case0,
                      reference_reduce_case3prime, standard_flag,
                      transporter_empty)


def test_classify_table_rows():
    assert classify_pair(Composition.of(2, 1),
                         Composition.of(1, 1, 1)).label == "III'"
    assert classify_pair(Composition.of(2, 2),
                         Composition.of(1, 3)).label == "0"
    assert classify_pair(Composition.of(1, 1, 1, 1),
                         Composition.of(2, 2)) is None
    t = classify_pair(Composition.of(4, 2), Composition.of(2, 2, 2))
    assert t.label == "II'" and not t.injective
    t = classify_pair(Composition.of(3, 2), Composition.of(1, 2, 2))
    assert t.label == "I'" and t.subcase == "m1=1" and not t.injective
    t = classify_pair(Composition.of(2, 2), Composition.of(1, 2, 1))
    assert t.label == "I'" and t.injective and not has_catalog(t)
    t = classify_pair(Composition.of(2, 2), Composition.of(2, 1, 1))
    assert t.subcase == "m2=1" and has_catalog(t)
    assert classify_pair(Composition.of(1, 1, 2),
                         Composition.of(2, 2)).label == "I"
    assert classify_pair(Composition.of(2, 2, 2),
                         Composition.of(4, 2)).label == "II"
    assert classify_pair(Composition.of(1, 1, 1, 2),
                         Composition.of(4, 1)).label == "III"
    # first-match: a two-block pair with M = 1 is still case 0
    assert classify_pair(Composition.of(3, 1),
                         Composition.of(1, 3)).label == "0"


def test_reduce_case0_idempotent_on_catalog():
    nn, mm = Composition.of(2, 2), Composition.of(2, 2)
    for nf in case0_normal_forms(nn, mm):
        f = nf.realize()
        assert reduce_case0(f, nn) == nf


def test_reduce_case0_on_figure_two_nodes():
    nn, mm = Composition.of(2, 2), Composition.of(1, 3)
    cols = {
        (0, 0, 1, 0): ((None, 1),),
        (0, 0, 0, 1): ((None, 2),),
        (1, 0, 0, 0): ((1, None),),
        (0, 1, 0, 0): ((2, None),),
        (1, 0, 1, 0): ((1, 1),),
        (0, 1, 1, 0): ((2, 1),),
        (1, 0, 0, 1): ((1, 2),),
        (0, 1, 0, 1): ((2, 2),),
    }
    for vec, expected in cols.items():
        f = Flag.from_matrix(mm, Matrix.from_columns(QQ, [list(vec)], mm.n))
        assert reduce_case0(f, nn).cols == expected


def test_reduce_case0_orbit_sound_random():
    rng = random.Random(11)
    for fld in (QQ, gf(3)):
        for _ in range(60):
            n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
            nn = Composition.of(n1, n2)
            m1 = rng.randint(1, nn.n - 1)
            mm = Composition.of(m1, nn.n - m1)
            f = random_flag(mm, fld, rng)
            nf = reduce_case0(f, nn)
            b = random_borel_prime(nn, fld, rng)
            assert reduce_case0(act(b, f), nn) == nf


def test_reduce_case0_oracle_consistent_gf3():
    # random flags of one sizeable pair against the brute-force partition
    from flagorbits.oracle import oracle_partition
    nn, mm = Composition.of(3, 3), Composition.of(2, 4)
    part = oracle_partition(nn, mm, 3)
    rng = random.Random(23)
    fld = gf(3)
    seen = {}
    for _ in range(200):
        f = random_flag(mm, fld, rng)
        nf = reduce_case0(f, nn)
        cid = part.class_of_flag(f)
        if cid in seen:
            assert seen[cid] == nf
        else:
            assert nf not in seen.values()
            seen[cid] = nf


def test_decode_signature_case0_round_trip():
    rng = random.Random(31)
    for _ in range(40):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        nn = Composition.of(n1, n2)
        m1 = rng.randint(1, nn.n - 1)
        mm = Composition.of(m1, nn.n - m1)
        fam = invariant_family(nn, mm)
        forms = case0_normal_forms(nn, mm)
        for nf in rng.sample(forms, min(6, len(forms))):
            sig = signature(nf.realize(), fam)
            assert decode_signature_case0(sig) == nf


def test_decode_signature_standard_flag():
    nn, mm = Composition.of(2, 2), Composition.of(2, 2)
    fam = invariant_family(nn, mm)
    nf = decode_signature_case0(signature(standard_flag(mm), fam))
    assert nf.r == 0 and nf.s == 0


def test_decode_rejects_inconsistent_signature():
    nn, mm = Composition.of(1, 1), Composition.of(1, 1)
    fam = invariant_family(nn, mm)
    sig = signature(standard_flag(mm), fam)
    broken = type(sig)(fam, tuple(v + 3 for v in sig.values))
    with pytest.raises(InconsistentSignatureError):
        decode_signature_case0(broken)


def _one_line_block_pairs(n_max):
    """III' pairs with n <= n_max in both orientations, (1,1) and the
    single-block types included."""
    for n in range(2, n_max + 1):
        for nn in [Composition.of(n - 1, 1)] + \
                ([Composition.of(1, n - 1)] if n > 2 else []):
            for mm in compositions(n):
                yield nn, mm


def test_decode_signature_case3prime_round_trip():
    count = 0
    for nn, mm in _one_line_block_pairs(5):
        fam = invariant_family(nn, mm)
        for nf in case3prime_normal_forms(nn, mm):
            sig = signature(nf.realize(), fam)
            assert decode_signature_case3prime(sig) == nf
            count += 1
    assert count == 4136


@pytest.mark.parametrize("fld", [QQ, gf(2), gf(3)], ids=["Q", "GF2", "GF3"])
def test_reducers_equal_their_eliminations(fld):
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(2, 6)
        n1, m1 = rng.randint(1, n - 1), rng.randint(1, n - 1)
        nn, mm = Composition.of(n1, n - n1), Composition.of(m1, n - m1)
        f = random_flag(mm, fld, rng)
        assert reduce_case0(f, nn) == reference_reduce_case0(f, nn)
    pairs = list(_one_line_block_pairs(6))
    for _ in range(60):
        nn, mm = rng.choice(pairs)
        f = random_flag(mm, fld, rng)
        assert reduce_case3prime(f, nn) == reference_reduce_case3prime(f, nn)


@pytest.mark.parametrize("decode, nn_parts, mm_parts", [
    (decode_signature_case0, (2, 2), (2, 2)),
    (decode_signature_case0, (1, 3), (3, 1)),
    (decode_signature_case3prime, (2, 1), (1, 1, 1)),
    (decode_signature_case3prime, (1, 3), (2, 1, 1)),
    (decode_signature_case3prime, (3, 1), (1, 1, 1, 1)),
])
def test_decoders_reject_every_value_moved_by_one(decode, nn_parts, mm_parts):
    # a moved value that is another form's signature decodes to that form;
    # any other raises
    nn, mm = Composition(nn_parts), Composition(mm_parts)
    fam = invariant_family(nn, mm)
    forms = {e.sig.values: e.nf for e in enumerate_orbits(nn, mm).entries}
    for values in forms:
        for k, step in itertools.product(range(len(values)), (-1, 1)):
            moved = values[:k] + (values[k] + step,) + values[k + 1:]
            sig = Signature(fam, moved)
            if moved in forms:
                assert decode(sig) == forms[moved]
            else:
                with pytest.raises(InconsistentSignatureError):
                    decode(sig)


FIGURE1_MATRICES = [
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((1, 0, 0), (0, 1, 1), (0, 1, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 1, 0), (1, 0, 0)),
    ((1, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((0, 1, 0), (1, 0, 1), (1, 0, 0)),
    ((0, 1, 1), (1, 0, 0), (0, 1, 0)),
    ((1, 0, 1), (1, 1, 0), (1, 0, 0)),
]


def figure1_flags(fld=QQ):
    mm = Composition.of(1, 1, 1)
    out = []
    for rows in FIGURE1_MATRICES:
        stored = [row[:2] for row in rows]
        out.append(Flag.from_matrix(mm, Matrix.from_rows(fld, stored)))
    return out


def test_reduce_case3prime_figure_nodes_self():
    nn = Composition.of(2, 1)
    for f in figure1_flags():
        nf = reduce_case3prime(f, nn)
        assert flags_equal(nf.realize(), f)


def test_reduce_case3prime_identity_chainless():
    nn, mm = Composition.of(2, 1), Composition.of(1, 1, 1)
    nf = reduce_case3prime(standard_flag(mm), nn)
    assert nf.chain == ()
    assert nf.j0 == 3  # the distinguished column sits in the dropped block


def test_reduce_case3prime_oracle_consistent_gf2():
    from flagorbits.oracle import oracle_partition
    nn, mm = Composition.of(3, 1), Composition.of(1, 1, 2)
    part = oracle_partition(nn, mm, 2)
    rng = random.Random(7)
    fld = gf(2)
    seen = {}
    for _ in range(500):
        f = random_flag(mm, fld, rng)
        nf = reduce_case3prime(f, nn)
        cid = part.class_of_flag(f)
        if cid in seen:
            assert seen[cid] == nf
        else:
            seen[cid] = nf
    assert len(seen) == part.class_count  # 500 samples reach all 33 orbits


def test_reduce_case3prime_swapped_orientation():
    rng = random.Random(3)
    nn, mm = Composition.of(1, 3), Composition.of(2, 1, 1)
    fld = gf(3)
    for _ in range(40):
        f = random_flag(mm, fld, rng)
        nf = reduce_case3prime(f, nn)
        b = random_borel_prime(nn, fld, rng)
        assert reduce_case3prime(act(b, f), nn) == nf


def test_reduce_by_catalog_examples():
    # a line through the third axis: nonzero only in the second row block
    nn, mm = Composition.of(2, 2), Composition.of(1, 3)
    f = Flag.from_matrix(mm, Matrix.from_columns(QQ, [[0, 0, 1, 0]], 4))
    nf = reduce_by_catalog(f, nn)
    assert flags_equal(nf.realize(), f)

    nn2, mm2 = Composition.of(2, 2, 2), Composition.of(2, 4)
    rep = Matrix.from_columns(
        QQ, [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], 6)
    f2 = Flag.from_matrix(mm2, rep)
    nf2 = reduce_by_catalog(f2, nn2)
    assert flags_equal(nf2.realize(), f2)


def test_reduce_by_catalog_case1_oracle_consistent():
    from flagorbits.oracle import oracle_partition
    nn, mm = Composition.of(1, 1, 2), Composition.of(2, 2)
    part = oracle_partition(nn, mm, 3)
    rng = random.Random(41)
    fld = gf(3)
    seen = {}
    for _ in range(150):
        f = random_flag(mm, fld, rng)
        nf = reduce_by_catalog(f, nn)
        cid = part.class_of_flag(f)
        if cid in seen:
            assert seen[cid] == nf
        else:
            seen[cid] = nf


def test_reduce_flag_dispatch_and_errors():
    nn, mm = Composition.of(2, 1), Composition.of(1, 1, 1)
    f = standard_flag(mm)
    assert isinstance(reduce_flag(f, nn), NFChain)
    with pytest.raises(InfinitePairError):
        reduce_flag(standard_flag(Composition.of(2, 2)),
                    Composition.of(1, 1, 1, 1))
    with pytest.raises(NonInjectiveError):
        reduce_flag(standard_flag(Composition.of(2, 2, 2)),
                    Composition.of(4, 2))


def test_matching_rows_give_orbit_equal_reducers():
    # pairs matched by several table rows: all applicable reducers agree
    rng = random.Random(59)
    nn, mm = Composition.of(3, 1), Composition.of(1, 3)  # rows 0, III, III'
    for fld in (QQ, gf(2)):
        for _ in range(30):
            f = random_flag(mm, fld, rng)
            via0 = reduce_case0(f, nn).realize(fld)
            via3p = reduce_case3prime(f, nn).realize(fld)
            viacat = reduce_by_catalog(f, nn).realize(fld)
            fam = invariant_family(nn, mm)
            vals = {signature(x, fam).values
                    for x in (via0, via3p, viacat, f)}
            assert len(vals) == 1


def test_realized_catalogs_full_rank_distinct_signatures():
    for nn_parts, mm_parts in [((2, 1), (1, 1, 1)), ((2, 2), (2, 2)),
                               ((1, 1, 2), (2, 2)), ((2, 2), (1, 1, 2))]:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        cat = enumerate_orbits(nn, mm)
        sigs = {e.sig.values for e in cat.entries}
        assert len(sigs) == len(cat.entries)
        for e in cat.entries:
            assert e.flag.rep.rank() == e.flag.rep.cols


def test_counterexample_pairs_verified():
    for nn_parts, mm_parts in [((3, 2), (1, 2, 2)), ((3, 2), (2, 2, 1)),
                               ((4, 2), (2, 2, 2))]:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        pair = counterexample_pair(nn, mm)  # construction re-verifies
        fam = invariant_family(nn, mm)
        assert signature(pair.d1, fam).values == signature(pair.d2, fam).values
        # the certificate: orbit dimensions over Q, by the library's
        # integer annihilator conditions and by the completion reference
        assert (orbit_dimension(pair.d1, nn),
                orbit_dimension(pair.d2, nn)) == (7, 8)
        assert (reference_orbit_dimension(pair.d1, nn),
                reference_orbit_dimension(pair.d2, nn)) == (7, 8)
        assert transporter_empty(*witness_pair_over(nn, mm, 2), nn)
        assert transporter_empty(*witness_pair_over(nn, mm, 3), nn)


_D1_3_2 = ((0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 0, 1), (1, 1, 0))


@pytest.mark.parametrize("d2, message", [
    # row 2 added to row 1, an element of B': one orbit, one dimension
    (((0, 1, 1), (0, 0, 1), (1, 0, 0), (0, 0, 1), (1, 1, 0)),
     "equal orbit dimensions"),
    # a coordinate flag, whose signature differs
    (((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0), (0, 0, 0)),
     "different signatures"),
])
def test_counterexample_pair_rejects_forged_witnesses(monkeypatch, d2,
                                                      message):
    nn, mm = Composition.of(3, 2), Composition.of(1, 2, 2)
    monkeypatch.setitem(normalforms_mod._WITNESSES, (nn.parts, mm.parts),
                        (False, (_D1_3_2, d2)))
    with pytest.raises(AssertionError, match=message):
        counterexample_pair(nn, mm)


@pytest.mark.parametrize("q", [None, 2, 3, 5, 7])
def test_witness_flags_equal_the_reference_dual(q):
    # a dualized witness is realized over each field only after its
    # annihilator rows are computed on the integers; the flags equal those
    # of the reference dual, which completes and inverts over that field
    fld = QQ if q is None else gf(q)
    for (nn_parts, mm_parts), (dualize, pair) in \
            normalforms_mod._WITNESSES.items():
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        typ = Composition(mm_parts[::-1]) if dualize else mm
        primal = [Flag.from_matrix(typ, Matrix.from_rows(fld, rows))
                  for rows in pair]
        for rows, f in zip(pair, primal):
            d = Matrix.from_rows(fld, integer_dual(rows, typ.parts))
            assert Flag.from_matrix(Composition(typ.parts[::-1]), d) == dual(f)
        if q is None:
            witness = counterexample_pair(nn, mm)
            built = [witness.d1, witness.d2]
        else:
            built = list(witness_pair_over(nn, mm, q))
        assert built == ([dual(f) for f in primal] if dualize else primal)


def test_transporter_to_a_translate_is_not_empty():
    for nn_parts, mm_parts in [((3, 2), (1, 2, 2)), ((3, 2), (2, 2, 1)),
                               ((4, 2), (2, 2, 2))]:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        for q in (2, 3):
            d1 = witness_pair_over(nn, mm, q)[0]
            assert not transporter_empty(d1, d1, nn)
            for d2 in borel_translates(d1, nn, q):
                assert not transporter_empty(d1, d2, nn), (nn, mm, q, d2)


def test_transporter_rejects_flags_over_q():
    nn, mm = Composition.of(3, 2), Composition.of(1, 2, 2)
    pair = counterexample_pair(nn, mm)
    with pytest.raises(ValueError):
        transporter_empty(pair.d1, pair.d2, nn)


def test_witness_certification_imports_no_numpy():
    # the certificate compares orbit dimensions from integer annihilator
    # conditions, so certifying all three shapes loads neither the oracle
    # nor numpy
    src = os.path.dirname(os.path.dirname(flagorbits.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys\n"
              "from flagorbits.cli import main\n"
              "for case in (['Iprime'], ['Iprime', '--variant', 'm3'],\n"
              "             ['IIprime']):\n"
              "    assert main(['counterexample', '--case'] + case) == 0\n"
              "assert 'numpy' not in sys.modules, 'numpy imported'\n"
              "assert 'flagorbits.oracle' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("orbits distinct over GF(2): 1") == 3


def test_counterexample_rejects_injective_case():
    with pytest.raises(ValueError):
        counterexample_pair(Composition.of(2, 1), Composition.of(1, 1, 1))


def test_normal_form_serializations_stable():
    nn, mm = Composition.of(2, 2), Composition.of(1, 3)
    texts = [e.nf.serialize()
             for e in enumerate_orbits(nn, mm).entries]
    assert len(set(texts)) == 8
    assert all(t.startswith("case=0 ") for t in texts)
    nn2, mm2 = Composition.of(2, 1), Composition.of(1, 1, 1)
    texts2 = [e.nf.serialize()
              for e in enumerate_orbits(nn2, mm2).entries]
    assert all(t.startswith("case=III' ") for t in texts2)


def _key(*cols):
    """``serialize()`` of a case II pattern with these 0/1 columns."""
    n = len(cols[0])
    return NFPattern("II", "(2,n-2)", Composition.of(n), Composition.of(n),
                     tuple(zip(*cols))).serialize()


def _unit(n, *rows):
    return tuple(int(i + 1 in rows) for i in range(n))


def test_an_earlier_unknown_lowers_a_key_only_with_one_digit():
    # the string fact under the row and column moves of pattern_candidates
    for c in range(2, 10):
        other = _unit(9, 9)
        for a in range(1, c):
            for tail in ((), (9,) if c < 9 else ()):
                old, new = _unit(9, c, *tail), _unit(9, a, c, *tail)
                assert _key(new) < _key(old)
                assert _key(new, other) < _key(old, other)
                assert _key(other, new) < _key(other, old)
    assert _key(_unit(10, 2, 10)) > _key(_unit(10, 10))


def test_row_and_column_moves_drop_nothing_past_nine_rows():
    block = ((0, 0), (0, 1))     # row 2 is nonzero and shares no 1 with row 1
    assert _row_move_lowers(block, 9)
    base = (_unit(9, 1), _unit(9, 2, 6))
    assert _column_move_lowers(base, _unit(9, 3), 9)
    for n in (10, 11):
        assert not any(_row_move_lowers(rows, n) for size in range(1, 7)
                       for rows in itertools.product(
                           ((0, 0), (0, 1), (1, 0), (1, 1)), repeat=size))
        base = (_unit(n, 1), _unit(n, 2, n))
        assert not any(_column_move_lowers(base, extra, n)
                       for extra in itertools.product((0, 1), repeat=n))


def test_rows_set_each_support_like_a_membership_test(monkeypatch):
    generators = {"0": case0_normal_forms, "III'": case3prime_normal_forms}
    forms = []
    for n in range(1, 7):
        for nn in compositions(n):
            for mm in compositions(n):
                tag = classify_pair(nn, mm)
                if tag is not None and tag.label in generators:
                    forms += generators[tag.label](nn, mm)
    rows = [nf.rows for nf in forms]
    monkeypatch.setattr(normalforms_mod, "_rows_of", lambda n, supports: tuple(
        tuple(int(i in s) for s in supports) for i in range(1, n + 1)))
    assert [nf.rows for nf in forms] == rows
    assert len(forms) == 47816
