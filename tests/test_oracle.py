import itertools
import random

import numpy as np
import pytest

from flagorbits.flags import Composition, Flag, act, flags_equal, random_flag
from flagorbits.invariants import invariant_family, rank_js, signature
from flagorbits.linalg import Matrix, gf
from flagorbits.normalforms import counterexample_pair
from flagorbits.oracle import (BudgetExceededError, borel_order,
                               canonicalize_batch, cross_validate,
                               enumerate_flag_array, enumerate_flags,
                               flag_count, gaussian_binomial,
                               group_generators, oracle_partition,
                               orbit_partition, rank_batch,
                               validate_witnesses)
from flagorbits.orbits import enumerate_orbits


def test_gaussian_binomial_and_flag_counts():
    assert gaussian_binomial(4, 1, 2) == 15
    assert gaussian_binomial(4, 2, 2) == 35
    assert flag_count(3, Composition.of(1, 1, 1), 2) == 21
    assert flag_count(2, Composition.of(1, 1), 2) == 3
    assert flag_count(4, Composition.of(1, 3), 2) == 15


def test_enumerate_flags_counts_and_uniqueness():
    for n, mm_parts, q in [(3, (1, 1, 1), 2), (2, (1, 1), 2),
                           (4, (1, 3), 2), (3, (1, 2), 3)]:
        mm = Composition(mm_parts)
        flags = enumerate_flags(n, mm, q)
        assert len(flags) == flag_count(n, mm, q)
        assert len({f.rep.data for f in flags}) == len(flags)
        # enumerated representatives are already canonical
        for f in flags[:40]:
            assert flags_equal(Flag.from_matrix(mm, f.rep), f)


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_flag_array(6, Composition.of(3, 3), 5, budget=100)


def test_batch_canonicalization_matches_scalar_path():
    rng = random.Random(77)
    for q in (2, 3, 5):
        fld = gf(q)
        for _ in range(25):
            parts = []
            left = rng.randint(2, 5)
            while left:
                p = rng.randint(1, left)
                parts.append(p)
                left -= p
            mm = Composition(tuple(parts))
            n = mm.n
            stored = n - parts[-1]
            raw = [[rng.randrange(q) for _ in range(stored)]
                   for _ in range(n)]
            mat = Matrix.from_rows(fld, raw)
            if stored and mat.rank() != stored:
                continue
            batch = np.array(raw, dtype=np.int64)[None, :, :]
            out = canonicalize_batch(batch, q,
                                     mm.prefix_sums()[: max(len(mm) - 1, 0)])
            got = [[int(x) for x in row] for row in out[0]]
            expect = [[int(x) for x in row]
                      for row in Flag.from_matrix(mm, mat).rep.data]
            assert got == expect


def test_rank_batch_matches_matrix_rank():
    rng = random.Random(13)
    for q in (2, 3):
        fld = gf(q)
        mats = [[[rng.randrange(q) for _ in range(4)] for _ in range(3)]
                for _ in range(50)]
        got = rank_batch(np.array(mats, dtype=np.int64), q)
        for row3, r in zip(mats, got):
            assert Matrix.from_rows(fld, row3).rank() == int(r)


def test_group_generators_orders():
    assert borel_order(Composition.of(2, 1), 2) == 2
    assert borel_order(Composition.of(1,), 3) == 2
    for nn_parts, q in [((2, 1), 2), ((1, 1), 3), ((2,), 3), ((1, 2), 2)]:
        nn = Composition(nn_parts)
        gens = group_generators(nn, q)
        assert _closure_size(gens) == borel_order(nn, q)


def _closure_size(gens):
    seen = {m.data for m in gens}
    frontier = list(gens)
    ident = Matrix.identity(gens[0].field, gens[0].rows)
    seen.add(ident.data)
    frontier.append(ident)
    while frontier:
        m = frontier.pop()
        for g in gens:
            prod = m * g
            if prod.data not in seen:
                seen.add(prod.data)
                frontier.append(prod)
    return len(seen)


def test_orbit_partition_figure_counts():
    part1 = oracle_partition(Composition.of(2, 1), Composition.of(1, 1, 1), 2)
    assert part1.class_count == 13
    part2 = oracle_partition(Composition.of(2, 2), Composition.of(1, 3), 2)
    assert part2.class_count == 8
    assert sum(part2.class_sizes()) == 15


def test_orbit_partition_trivial_group():
    # all blocks of size one over GF(2): the Borel is trivial
    part = oracle_partition(Composition.of(1, 1), Composition.of(1, 1), 2)
    assert part.class_count == part.size == 3


def test_orbit_partition_from_flag_list():
    nn = Composition.of(2, 1)
    mm = Composition.of(1, 1, 1)
    flags = enumerate_flags(3, mm, 2)
    part = orbit_partition(flags, group_generators(nn, 2), nn)
    assert part.class_count == 13
    assert sum(part.class_sizes()) == 21
    for cls in part.classes():
        rep = cls[0]
        for g in group_generators(nn, 2):
            assert part.class_of_flag(act(g, rep)) == \
                part.class_of_flag(rep)


def test_signatures_constant_on_classes_exhaustive_small():
    # definitional invariance, exhaustively at q=2 for n <= 4 pairs
    for nn_parts, mm_parts in [((2, 1), (1, 1, 1)), ((2, 2), (1, 3)),
                               ((3, 1), (2, 2)), ((1, 1, 2), (2, 2))]:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        part = oracle_partition(nn, mm, 2)
        fam = invariant_family(nn, mm)
        by_class = {}
        for cls in part.classes():
            vals = {signature(f, fam).values for f in cls}
            assert len(vals) == 1
            cid = part.class_of_flag(cls[0])
            by_class[cid] = vals.pop()
        assert len(set(by_class.values())) == len(by_class)


def test_cross_validate_pass_and_vacuous():
    nn, mm = Composition.of(2, 2), Composition.of(1, 3)
    report = cross_validate(oracle_partition(nn, mm, 2),
                            enumerate_orbits(nn, mm))
    assert report.ok
    assert "level-sets-are-orbits" in report.to_text()
    # single-orbit pair: everything is vacuously consistent
    nn1, mm1 = Composition.of(1, 1), Composition.of(2,)
    report1 = cross_validate(oracle_partition(nn1, mm1, 2),
                             enumerate_orbits(nn1, mm1))
    assert report1.ok


def test_cross_validate_detects_mismatch():
    nn, mm = Composition.of(2, 2), Composition.of(1, 3)
    cat = enumerate_orbits(nn, mm)
    # wrong-prime partition: the flag sets do not even match
    import dataclasses
    broken = dataclasses.replace(cat, entries=cat.entries[:-1])
    report = cross_validate(oracle_partition(nn, mm, 2), broken)
    assert not report.ok


def test_witness_reports():
    # q = 3 for the six-dimensional shape exceeds the default flag budget
    for nn_parts, mm_parts, primes in [((3, 2), (1, 2, 2), (2, 3)),
                                       ((3, 2), (2, 2, 1), (2, 3)),
                                       ((4, 2), (2, 2, 2), (2,))]:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        pair = counterexample_pair(nn, mm)
        for q in primes:
            part = oracle_partition(nn, mm, q)
            rep = validate_witnesses(part, pair)
            assert rep.ok, rep.to_text()


def test_level_sets_equal_orbits_exhaustively_n4():
    # pointwise coset-intersection description of orbits: over GF(2) for
    # every classified pair with n <= 4, the common refinement of all
    # invariant rank level sets is exactly the orbit partition
    from flagorbits.normalforms import classify_pair, has_catalog
    from conftest import compositions
    for n in range(2, 5):
        for nn in compositions(n):
            for mm in compositions(n):
                tag = classify_pair(nn, mm)
                if tag is None or not tag.injective or not has_catalog(tag):
                    continue
                cat = enumerate_orbits(nn, mm)
                part = oracle_partition(nn, mm, 2)
                report = cross_validate(part, cat, exhaustive=True)
                assert report.ok, (nn.parts, mm.parts, report.to_text())
                assert any(c.name == "level-sets-are-orbits"
                           for c in report.checks)


def test_witness_configuration_breaks_level_sets():
    # on a non-separable pair the signature level sets are strictly
    # coarser than the orbit partition — exactly the predicted failure
    from flagorbits.oracle import _partitions_equal, _signature_labels
    nn, mm = Composition.of(3, 2), Composition.of(1, 2, 2)
    part = oracle_partition(nn, mm, 2)
    labels = _signature_labels(part, invariant_family(nn, mm))
    assert not _partitions_equal(labels, part.labels)


def test_index_of_unknown_flag_raises():
    nn, mm = Composition.of(1, 1), Composition.of(1, 1)
    part = oracle_partition(nn, mm, 2)
    other = random_flag(Composition.of(1, 2), gf(2), random.Random(0))
    with pytest.raises((KeyError, ValueError)):
        part.class_of_flag(other)


def test_encode_keys_exact_beyond_one_byte():
    # 4 entries at p = 65537 need more than 62 bits, so keys take the
    # structured-dtype path; residues 1 and 257 must stay distinct there
    from flagorbits.oracle import _encode_keys
    A = np.zeros((2, 2, 2), dtype=np.int64)
    A[0, 0, 0], A[1, 0, 0] = 1, 257
    keys = _encode_keys(A, 65537)
    assert keys[0] != keys[1]
