"""Acceptance suite: one test per criterion, exact checks, stated time limits.

Each test prints a single PASS line (visible with ``pytest -s``); pytest's
own verdict per test is the machine-readable outcome.
"""

import itertools
import random
import time

import pytest

from flagorbits.flags import Composition, Flag, act
from flagorbits.invariants import (bruhat_vector, invariant_family, rank_js,
                                   signature)
from flagorbits.linalg import Matrix, QQ, gf
from flagorbits.normalforms import (case0_normal_forms, classify_pair,
                                    counterexample_pair,
                                    decode_signature_case0, has_catalog,
                                    reduce_by_catalog, reduce_case0,
                                    reduce_case3prime)
from flagorbits.oracle import (cross_validate, oracle_partition,
                               validate_witnesses, _signature_labels,
                               _partitions_equal)
from flagorbits.orbits import (count_multiplicity_free, enumerate_orbits,
                               enumeration_count, hasse_candidate)

from conftest import (FIGURE1_EDGES, FIGURE1_NODES, FIGURE2_EDGES,
                      FIGURE2_NODES, bruhat_le_subword, compositions,
                      flags_equal, random_borel_prime, random_flag,
                      random_parabolic)


def _match_figure(cat, nodes, field=QQ):
    """Map each published node matrix to its catalog index."""
    mapping = []
    for rows, dim in nodes:
        rows = [list(r) if isinstance(r, tuple) else [r] for r in rows]
        f = Flag.from_matrix(cat.mm, Matrix.from_rows(field, rows))
        hits = [i for i, e in enumerate(cat.entries)
                if flags_equal(e.flag, f)]
        assert len(hits) == 1, f"figure node not matched uniquely: {rows}"
        assert cat.entries[hits[0]].dim == dim
        mapping.append(hits[0])
    assert len(set(mapping)) == len(nodes)
    return mapping


def test_criterion_1_figure_one_reproduction():
    t0 = time.time()
    nn, mm = Composition.of(2, 1), Composition.of(1, 1, 1)
    cat = enumerate_orbits(nn, mm)
    assert len(cat.entries) == 13
    dims = sorted(e.dim for e in cat.entries)
    assert dims == [0] * 3 + [1] * 5 + [2] * 4 + [3]
    mapping = _match_figure(cat, FIGURE1_NODES)
    expected = {tuple(sorted((mapping[a], mapping[b])))
                for a, b in FIGURE1_EDGES}
    got = {tuple(sorted(e)) for e in hasse_candidate(cat)}
    assert got == expected and len(got) == 23
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 figure-1 reproduction: PASS "
          f"(13 orbits, 23 edges, {elapsed:.2f}s)")


def test_criterion_2_figure_two_reproduction():
    t0 = time.time()
    nn, mm = Composition.of(2, 2), Composition.of(1, 3)
    cat = enumerate_orbits(nn, mm)
    assert len(cat.entries) == 8
    dims = sorted(e.dim for e in cat.entries)
    assert dims == [0] * 2 + [1] * 3 + [2] * 2 + [3]
    nodes = [(tuple((x,) for x in vec), dim) for vec, dim in FIGURE2_NODES]
    mapping = _match_figure(cat, nodes)
    expected = {tuple(sorted((mapping[a], mapping[b])))
                for a, b in FIGURE2_EDGES}
    got = {tuple(sorted(e)) for e in hasse_candidate(cat)}
    assert got == expected and len(got) == 10
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 figure-2 reproduction: PASS "
          f"(8 orbits, 10 edges, {elapsed:.2f}s)")


def test_criterion_3_counting_formula():
    t0 = time.time()
    checked = 0
    for n in range(2, 7):
        nn = Composition.of(n - 1, 1)
        for mm in compositions(n):
            formula = count_multiplicity_free(n, mm)
            assert enumeration_count(nn, mm) == formula, (n, mm)
            if n <= 5:
                assert len(enumerate_orbits(nn, mm).entries) == formula
                part = oracle_partition(nn, mm, 2)
                assert part.class_count == formula, (n, mm)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 counting formula: PASS "
          f"({checked} type pairs, n<=6, GF(2) oracle n<=5, {elapsed:.1f}s)")


def test_criterion_4_oracle_concordance():
    t0 = time.time()
    validated = 0
    skipped = []
    for n in range(2, 6):
        for nn in compositions(n):
            for mm in compositions(n):
                tag = classify_pair(nn, mm)
                if tag is None or not tag.injective:
                    continue
                if not has_catalog(tag):
                    # separable per the real-field theory but unclassified;
                    # record it instead of asserting (see the oracle note)
                    skipped.append((nn.parts, mm.parts))
                    continue
                cat = enumerate_orbits(nn, mm)
                for q in (2, 3):
                    part = oracle_partition(nn, mm, q)
                    report = cross_validate(part, cat, exhaustive=False)
                    assert report.ok, \
                        f"({nn}, {mm}) q={q}\n{report.to_text()}"
                validated += 1
    assert skipped == [((2, 2), (1, 2, 1))]
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 4 oracle concordance: PASS "
          f"({validated} pairs x q in {{2,3}}, {elapsed:.1f}s; "
          f"skipped unclassified pair (2,2)/(1,2,1))")


def test_criterion_4_note_unclassified_pair_is_not_separated_over_gf():
    # the one skipped pair: over GF(2) and GF(3) the rank signature does
    # NOT separate the orbits (41 orbits, 40 level sets), so no
    # signature-based catalog can exist for finite fields
    nn, mm = Composition.of(2, 2), Composition.of(1, 2, 1)
    fam = invariant_family(nn, mm)
    for q in (2, 3):
        part = oracle_partition(nn, mm, q)
        labels = _signature_labels(part, fam)
        assert part.class_count == 41
        assert not _partitions_equal(labels, part.labels)
    print("\nACCEPTANCE 4 note: pair (2,2)/(1,2,1) has 41 GF(q)-orbits but "
          "40 signature level sets (q=2,3); enumeration is refused there")


def test_criterion_5_non_injectivity_witnesses():
    t0 = time.time()
    shapes = [((3, 2), (1, 2, 2)), ((3, 2), (2, 2, 1)), ((4, 2), (2, 2, 2))]
    for nn_parts, mm_parts in shapes:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        pair = counterexample_pair(nn, mm)
        fam = invariant_family(nn, mm)
        assert signature(pair.d1, fam).values == \
            signature(pair.d2, fam).values
        part = oracle_partition(nn, mm, 2)
        report = validate_witnesses(part, pair)
        assert report.ok, report.to_text()
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 witnesses: PASS (3 shapes, equal signatures, "
          f"distinct GF(2) classes, {elapsed:.1f}s)")


def test_criterion_6_bruhat_baseline():
    for n in range(2, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        vectors = {p: bruhat_vector(p) for p in perms}
        assert len(set(vectors.values())) == len(perms)
        for u in perms:
            for v in perms:
                le_vec = all(a <= b for a, b in zip(vectors[u], vectors[v]))
                assert le_vec == bruhat_le_subword(u, v), (u, v)
    print("\nACCEPTANCE 6 corner-rank baseline: PASS "
          "(injective and order-matching on S_n, n<=4)")


def test_criterion_7_parabolic_level_sets():
    import numpy as np
    from flagorbits.flags import ParabolicSpec
    from flagorbits.oracle import (canonicalize_batch, enumerate_flag_array,
                                   orbit_partition_from_arrays)
    from conftest import decode_flag, parabolic_generators
    q = 2
    checked = 0
    for n in range(2, 5):
        for m1 in range(1, n):
            mm = Composition.of(m1, n - m1)
            arr = canonicalize_batch(
                enumerate_flag_array(n, mm, q), q, [0])
            for size in range(1, n):
                for J in itertools.combinations(range(1, n + 1), size):
                    comp_rows = [i for i in range(1, n + 1) if i not in J]
                    perm = tuple(comp_rows + list(J))
                    spec = ParabolicSpec(
                        Composition.of(n - len(J), len(J)), perm)
                    gens = [np.array([[int(x) for x in row]
                                      for row in g.data], dtype=np.int64)
                            for g in parabolic_generators(spec, q)]
                    part = orbit_partition_from_arrays(
                        arr.copy(), gens, Composition.of(n), mm, q)
                    by_rank = {}
                    for idx in range(part.size):
                        f = decode_flag(part.reps[idx], mm, q)
                        by_rank.setdefault(rank_js(f, J, 1), set()).add(
                            int(part.labels[idx]))
                    sets = list(by_rank.values())
                    assert all(len(s) == 1 for s in sets)
                    assert len({next(iter(s)) for s in sets}) == len(sets)
                    assert part.class_count == len(sets)
                    checked += 1
    print(f"\nACCEPTANCE 7 parabolic orbits = rank level sets: PASS "
          f"({checked} (type, J) pairs, n<=4, q=2)")


DESK_INSTANCES = [
    ((2, 2), (2, 2)),       # two blocks on both sides
    ((2, 2), (1, 3)),
    ((2, 1), (1, 1, 1)),    # one-line-block, standard orientation
    ((1, 3), (2, 1, 1)),    # one-line-block, swapped orientation
    ((1, 1, 2), (2, 2)),    # three row blocks, one of size 1
    ((1, 1, 2), (1, 3)),    # column line
    ((1, 1, 2), (3, 1)),    # column hyperplane through the swap
    ((2, 2), (1, 1, 2)),    # middle column block of size 1
    ((2, 2, 2), (2, 4)),    # three large row blocks
    ((2, 2, 2), (4, 2)),
]


def _borel_generators_q(nn):
    gens = []
    n = nn.n
    for b in range(len(nn)):
        rows = list(nn.block_range(b))
        for i in rows:
            m = [[1 if a == c else 0 for c in range(n)] for a in range(n)]
            m[i][i] = 2
            gens.append(Matrix.from_rows(QQ, m))
        for i in rows:
            for j in rows:
                if i < j:
                    m = [[1 if a == c else 0 for c in range(n)]
                         for a in range(n)]
                    m[i][j] = 1
                    gens.append(Matrix.from_rows(QQ, m))
    return gens


def test_criterion_8_closed_orbit_equivalence():
    t0 = time.time()
    total = 0
    for nn_parts, mm_parts in DESK_INSTANCES:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        cat = enumerate_orbits(nn, mm)
        gens = _borel_generators_q(nn)
        for e in cat.entries:
            fixed = all(flags_equal(act(g, e.flag), e.flag) for g in gens)
            assert e.closed == (e.dim == 0) == fixed, \
                (nn_parts, mm_parts, e.nf.serialize())
            total += 1
    print(f"\nACCEPTANCE 8 closed <=> dim 0 <=> fixed: PASS "
          f"({total} orbits across {len(DESK_INSTANCES)} pairs, "
          f"{time.time() - t0:.1f}s)")


PROPERTY_INSTANCES = {
    "0": ((2, 2), (2, 2)),
    "III'": ((3, 1), (1, 1, 2)),
    "I": ((1, 1, 2), (2, 2)),
    "II": ((2, 2, 2), (2, 4)),
    "III": ((1, 1, 2), (1, 3)),
    "I'": ((2, 2), (1, 1, 2)),
}


def _reduce_for(label, f, nn):
    if label == "0":
        return reduce_case0(f, nn)
    if label == "III'":
        return reduce_case3prime(f, nn)
    return reduce_by_catalog(f, nn)


def test_criterion_9_property_suites():
    t0 = time.time()
    rng = random.Random(2024)

    # (i) reducer idempotence on every catalog entry of every case
    for label, (nn_parts, mm_parts) in PROPERTY_INSTANCES.items():
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        cat = enumerate_orbits(nn, mm)
        for e in cat.entries:
            assert _reduce_for(label, e.flag, nn) == e.nf, \
                (label, e.nf.serialize())

    # (ii) orbit soundness: 1000 random (b', p) perturbations per case,
    # split over Q and GF(3)
    for label, (nn_parts, mm_parts) in PROPERTY_INSTANCES.items():
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        stored_type = Composition(mm.parts[:-1]) if len(mm) > 1 else mm
        for fld in (QQ, gf(3)):
            for _ in range(500):
                f = random_flag(mm, fld, rng)
                nf = _reduce_for(label, f, nn)
                b = random_borel_prime(nn, fld, rng)
                p = random_parabolic(stored_type, fld, rng)
                moved = Flag.from_matrix(mm, (b * f.rep) * p)
                assert _reduce_for(label, moved, nn) == nf, (label, fld)

    # (iii) signature invariance: 100 random b' per family entry
    for nn_parts, mm_parts in [((2, 2), (1, 3)), ((2, 1), (1, 1, 1))]:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        fam = invariant_family(nn, mm)
        for fld in (QQ, gf(3)):
            base = random_flag(mm, fld, rng)
            vals = signature(base, fam).values
            for _ in range(100):
                b = random_borel_prime(nn, fld, rng)
                assert signature(act(b, base), fam).values == vals

    # (iv) decode(signature(nf.realize())) round trip on all catalog entries
    count = 0
    for n in range(2, 6):
        for nn in compositions(n):
            for mm in compositions(n):
                if len(nn) != 2 or len(mm) != 2:
                    continue
                fam = invariant_family(nn, mm)
                for nf in case0_normal_forms(nn, mm):
                    sig = signature(nf.realize(), fam)
                    assert decode_signature_case0(sig) == nf
                    count += 1
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 9 property suites: PASS (idempotence, 1000 "
          f"perturbations x {len(PROPERTY_INSTANCES)} cases, invariance, "
          f"{count} decode round-trips, {elapsed:.1f}s)")
