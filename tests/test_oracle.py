import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import flagorbits
from flagorbits.flags import Composition, Flag, ParabolicSpec, act
from flagorbits.invariants import invariant_family, signature
from flagorbits.linalg import QQ, Matrix, gf
from flagorbits.normalforms import counterexample_pair, witness_pair_over
from flagorbits.oracle import (CHUNK, BudgetExceededError, OrbitPartition,
                               _echelon_step, _encode_keys,
                               _enumeration_table, _hook, _signature_labels,
                               _signature_vectors, _torus_image, _work_dtype,
                               canonicalize_batch, cross_validate,
                               enumerate_flag_array, flag_count,
                               gaussian_binomial, group_generators,
                               oracle_partition,
                               orbit_partition_from_arrays,
                               validate_witnesses)
from flagorbits.orbits import OrbitCatalog, enumerate_orbits

from conftest import (borel_order, borel_translates, compositions,
                      decode_flag, flags_equal, is_torus_element,
                      parabolic_generators, random_flag, rank_batch,
                      reference_flag_array, reference_image,
                      reference_partition, reference_signature_labels,
                      reference_torus_image, representative,
                      transporter_empty)


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
        arr = enumerate_flag_array(n, mm, q)
        flags = [decode_flag(mat, mm, q) for mat in arr]
        assert len(flags) == flag_count(n, mm, q)
        assert len({f.rep.data for f in flags}) == len(flags)
        # enumerated representatives are already canonical
        for f in flags[:40]:
            assert flags_equal(Flag.from_matrix(mm, f.rep), f)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_enumeration_order_matches_the_group_writer(q):
    # torus images are index arithmetic on this order: every type with
    # n <= 5 and at most 60,000 flags
    cases = 0
    for n in range(1, 6):
        for mm in compositions(n):
            if flag_count(n, mm, q) <= 60_000:
                assert np.array_equal(enumerate_flag_array(n, mm, q),
                                      reference_flag_array(n, mm, q)), mm
                cases += 1
    assert cases == {2: 31, 3: 26, 5: 20}[q]


def test_enumeration_is_a_canonical_fixed_point():
    """``oracle_partition`` and ``locate`` take the enumeration as it is, so
    every enumerated matrix must be its own canonical form, and each flag
    must appear once."""
    cases = 0
    for n in range(1, 6):
        for mm in compositions(n):
            for q in (2, 3, 5):
                if flag_count(n, mm, q) > 200_000:
                    continue
                arr = enumerate_flag_array(n, mm, q)
                bounds = mm.prefix_sums()[: len(mm) - 1]
                assert np.array_equal(canonicalize_batch(arr, q, bounds),
                                      arr), (mm, q)
                flat = arr.reshape(arr.shape[0], -1)
                assert len(np.unique(flat, axis=0)) == flag_count(n, mm, q)
                cases += 1
    assert cases == 84


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_flag_array(6, Composition.of(3, 3), 5, budget=100)
    # one flag with no free cell: nothing of size q is built
    arr = enumerate_flag_array(3, Composition.of(3,), 2**31 - 1)
    assert arr.shape == (1, 3, 0) and arr.dtype == np.uint32


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
            batch = np.array(raw, dtype=np.int64)[None, :, :]
            boundaries = mm.prefix_sums()[: max(len(mm) - 1, 0)]
            if stored and mat.rank() != stored:
                with pytest.raises(ValueError):
                    Flag.from_matrix(mm, mat)
                with pytest.raises(ValueError):
                    canonicalize_batch(batch, q, boundaries)
                continue
            out = canonicalize_batch(batch, q, boundaries)
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


def _classes(part):
    """The flags of each class of ``part``, decoded, in enumeration order."""
    out = [[] for _ in range(part.class_count)]
    for mat, cid in zip(part.reps, part.labels):
        out[cid].append(decode_flag(mat, part.mm, part.q))
    return out


def test_orbit_partition_classes_closed_under_generators():
    nn = Composition.of(2, 1)
    mm = Composition.of(1, 1, 1)
    part = oracle_partition(nn, mm, 2)
    assert part.class_count == 13
    assert sum(part.class_sizes()) == 21
    for cls in _classes(part):
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
        for cls in _classes(part):
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
    broken = OrbitCatalog(cat.case, cat.nn, cat.mm, cat.family,
                          cat.entries[:-1])
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


def test_transporter_search_agrees_with_oracle_classes():
    # an empty transporter means distinct oracle classes: on the witness
    # pair, on translates of its first flag and on random flags
    rng = random.Random(12)
    for nn_parts, mm_parts, q in [((3, 2), (1, 2, 2), 2),
                                  ((3, 2), (1, 2, 2), 3),
                                  ((4, 2), (2, 2, 2), 2)]:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        part = oracle_partition(nn, mm, q)
        d1, d2 = witness_pair_over(nn, mm, q)
        others = [d2] + borel_translates(d1, nn, q) + \
            [random_flag(mm, gf(q), rng) for _ in range(3)]
        for other in others:
            distinct = part.class_of_flag(d1) != part.class_of_flag(other)
            assert transporter_empty(d1, other, nn) == distinct, \
                (nn, mm, q, other)


def test_level_sets_equal_orbits_exhaustively_n4():
    # pointwise coset-intersection description of orbits: over GF(2) for
    # every classified pair with n <= 4, the common refinement of all
    # invariant rank level sets is exactly the orbit partition
    from flagorbits.normalforms import classify_pair, has_catalog
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


def test_partitions_equal_compares_classes_not_labels():
    from flagorbits.oracle import _partitions_equal
    a = np.array([0, 0, 1, 2, 1, 2])
    assert _partitions_equal(a, np.array([5, 5, 3, 0, 3, 0]))
    assert _partitions_equal(np.array([0]), np.array([7]))
    merged = np.array([0, 0, 1, 1, 1, 1])
    split = np.array([0, 3, 1, 2, 1, 2])
    for other in (merged, split):
        assert not _partitions_equal(a, other)
        assert not _partitions_equal(other, a)


def test_index_of_unknown_flag_raises():
    nn, mm = Composition.of(1, 1), Composition.of(1, 1)
    part = oracle_partition(nn, mm, 2)
    other = random_flag(Composition.of(1, 2), gf(2), random.Random(0))
    with pytest.raises((KeyError, ValueError)):
        part.class_of_flag(other)


def test_class_of_flag_rejects_other_fields():
    # the entries of a flag over another field are no residues mod q:
    # GF(5) and Q flags are refused, not truncated into a GF(3) class
    nn, mm = Composition.of(2, 1), Composition.of(1, 1, 1)
    part = oracle_partition(nn, mm, 3)
    gf5 = Flag.from_matrix(mm, Matrix.from_rows(gf(5), [[1, 0], [2, 1],
                                                         [0, 1]]))
    rational = Flag.from_matrix(mm, Matrix.from_rows(
        QQ, [[1, 0], [Fraction(1, 2), 1], [0, Fraction(7, 3)]]))
    for other in (gf5, rational):
        with pytest.raises(KeyError):
            part.class_of_flag(other)
    gf3 = Flag.from_matrix(mm, Matrix.from_rows(gf(3), [[1, 0], [2, 1],
                                                         [0, 1]]))
    at = part.locate(np.array(gf3.rep.data, dtype=np.int64)[None])[0]
    assert part.class_of_flag(gf3) == part.labels[at]


def test_encode_keys_exact_beyond_one_byte():
    # 4 entries at p = 65537 need more than 62 bits, so keys take the
    # structured-dtype path; residues 1 and 257 must stay distinct there
    from flagorbits.oracle import _encode_keys
    A = np.zeros((2, 2, 2), dtype=np.int64)
    A[0, 0, 0], A[1, 0, 0] = 1, 257
    keys = _encode_keys(A, 65537)
    assert keys[0] != keys[1]


# the three (nn, mm, q) runs of the benchmark's oracle workload
WORKLOAD_RUNS = [((4, 1), (1, 1, 2, 1), 3), ((2, 1, 2), (3, 2), 5),
                 ((3, 3), (1, 5), 7)]


def test_batched_representative_signatures_match_scalar():
    for nn_parts, mm_parts, q in WORKLOAD_RUNS:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        part = oracle_partition(nn, mm, q)
        fam = invariant_family(nn, mm)
        assert part.first_index.tolist() == [
            int(np.flatnonzero(part.labels == cid)[0])
            for cid in range(part.class_count)]
        batched = _signature_vectors(part, fam, part.first_index)
        assert batched.dtype == np.uint8
        assert batched.shape == (part.class_count, len(fam.entries))
        for cid in range(part.class_count):
            expect = signature(representative(part, cid), fam).values
            assert tuple(batched[cid].tolist()) == expect, (nn, mm, q, cid)
        # the exhaustive path reads the same rows off all flags' vectors
        if part.size <= 25_000:
            full = _signature_vectors(part, fam)
            assert (full[part.first_index] == batched).all()


def _union_find_labels(N, edges):
    """Reference: scalar union-find over the edges src[k] -- dst[k] of
    every (src, dst) in ``edges``, classes numbered by first appearance."""
    parent = list(range(N))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, dst in edges:
        for i, j in zip(np.asarray(src).tolist(), np.asarray(dst).tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    ids = {}
    return [ids.setdefault(find(i), len(ids)) for i in range(N)]


def _component_cases():
    rng = np.random.default_rng(5)

    def every(N, perms):
        return [(np.arange(N), perm) for perm in perms]

    for N, k in [(2, 1), (7, 2), (50, 1), (200, 3), (1000, 2), (3000, 4)]:
        yield (f"random N={N} k={k}", N,
               every(N, [rng.permutation(N) for _ in range(k)]))
    # permutations with many fixed points leave many small classes
    for N in (40, 500):
        perms = []
        for _ in range(3):
            perm = np.arange(N)
            moved = rng.choice(N, size=N // 10, replace=False)
            perm[moved] = rng.permutation(moved)
            perms.append(perm)
        yield f"sparse N={N}", N, every(N, perms)
    for N in (2, 1000, 4096):
        yield (f"N-cycle forward N={N}", N,
               every(N, [np.roll(np.arange(N), -1)]))
        yield (f"N-cycle backward N={N}", N,
               every(N, [np.roll(np.arange(N), 1)]))
    order = rng.permutation(1000)
    cycle = np.empty(1000, dtype=np.intp)
    cycle[order] = np.roll(order, -1)
    yield "N-cycle shuffled", 1000, every(1000, [cycle])
    yield "identity only", 30, every(30, [np.arange(30), np.arange(30)])
    yield "N=1", 1, every(1, [np.arange(1)])
    yield "no generators", 5, []
    # partial edge lists: a few sources each, repeated sources, sources
    # hooked by an earlier list, self-loops and an empty list
    for N, k in [(60, 4), (2000, 6)]:
        yield (f"partial random N={N} k={k}", N,
               [(rng.choice(N, size=N // 8), rng.integers(0, N, N // 8))
                for _ in range(k)])
    evens = np.arange(0, 400, 2)
    yield ("partial chains N=400", 400,
           [(evens[1:], evens[:-1]), (evens + 1, evens[::-1]),
            (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)),
            (np.array([399, 399, 5]), np.array([399, 0, 5]))])
    yield ("partial one edge N=9", 9, [(np.array([8]), np.array([3]))])


COMPONENT_CASES = list(_component_cases())


@pytest.mark.parametrize("name,N,edges", COMPONENT_CASES,
                         ids=[c[0] for c in COMPONENT_CASES])
def test_component_labels_match_union_find(name, N, edges):
    # each index ends up pointing at the smallest index of its component
    root = np.arange(N)
    for src, dst in edges:
        _hook(root, src, dst)
    labels = _union_find_labels(N, edges)
    first = np.unique(labels, return_index=True)[1]
    assert root.tolist() == first[labels].tolist()


def _full_sweep_labels(part, gens):
    """Reference partition: every generator on every flag by the dense
    product (``reference_image``), joined by the scalar union-find."""
    everything = np.arange(part.size)
    return _union_find_labels(part.size, [
        (everything, reference_image(part, G, everything)) for G in gens])


def _matrices(gens):
    return [np.array(g.data, dtype=np.int64) for g in gens]


@pytest.mark.parametrize("q", [3, 5])
def test_partition_matches_full_sweep_every_pair_n4(q):
    # every pair with n <= 4, classified or not
    cases = 0
    for n in range(2, 5):
        for nn in compositions(n):
            for mm in compositions(n):
                part = oracle_partition(nn, mm, q)
                expect = _full_sweep_labels(
                    part, _matrices(group_generators(nn, q)))
                assert part.labels.tolist() == expect, (nn, mm, q)
                cases += 1
    assert cases == 84


@pytest.mark.parametrize("nn_parts,mm_parts,q",
                         WORKLOAD_RUNS + [((2, 3), (2, 3), 7)])
def test_partition_matches_full_sweep_large(nn_parts, mm_parts, q):
    nn, mm = Composition(nn_parts), Composition(mm_parts)
    part = oracle_partition(nn, mm, q)
    expect = _full_sweep_labels(part, _matrices(group_generators(nn, q)))
    assert part.labels.tolist() == expect


def test_partition_matches_full_sweep_parabolic_generators():
    # criterion 7's parabolic generators at q = 3: torus scalings and
    # root elements on both sides of the diagonal
    q, cases = 3, 0
    for n in range(2, 5):
        for m1 in range(1, n):
            mm = Composition.of(m1, n - m1)
            arr = enumerate_flag_array(n, mm, q)
            for size in range(1, n):
                for J in itertools.combinations(range(1, n + 1), size):
                    perm = tuple([i for i in range(1, n + 1) if i not in J]
                                 + list(J))
                    spec = ParabolicSpec(
                        Composition.of(n - len(J), len(J)), perm)
                    gens = _matrices(parabolic_generators(spec, q))
                    part = orbit_partition_from_arrays(
                        arr, gens, Composition.of(n), mm, q)
                    assert part.labels.tolist() == \
                        _full_sweep_labels(part, gens), (mm, J)
                    cases += 1
    assert cases == 56


def test_partition_matches_full_sweep_random_tori():
    # random diagonal generators, so that T is a proper subgroup of the
    # torus, with root elements of random entries on either side of the
    # diagonal: a root element needs its powers, since d⁻¹Gd = G^k with
    # k = d_j/d_i running over the ratios T has
    rng = random.Random(1)
    cases = 0
    while cases < 40:
        q, n = rng.choice([3, 5, 7]), rng.choice([2, 3, 4])
        mm = rng.choice([c for c in compositions(n) if len(c) > 1])
        if flag_count(n, mm, q) > 3000:
            continue
        gens = [np.diag([rng.randrange(1, q) for _ in range(n)])
                for _ in range(rng.randint(1, 2))]
        for _ in range(rng.randint(1, 2)):
            G = np.eye(n, dtype=np.int64)
            i, j = rng.sample(range(n), 2)
            G[i, j] = rng.randrange(1, q)
            gens.append(G)
        part = orbit_partition_from_arrays(
            enumerate_flag_array(n, mm, q), gens, Composition.of(n), mm, q)
        assert part.labels.tolist() == _full_sweep_labels(part, gens), \
            (q, mm, [G.tolist() for G in gens])
        cases += 1


def test_partition_matches_reference_every_pair_n4_and_workload():
    # every pair with n <= 4 at q in {2, 3, 5}, and the benchmark's runs
    cases = [(nn, mm, q) for n in range(1, 5) for nn in compositions(n)
             for mm in compositions(n) for q in (2, 3, 5)]
    cases += [(Composition(a), Composition(b), q) for a, b, q in WORKLOAD_RUNS]
    for nn, mm, q in cases:
        part = oracle_partition(nn, mm, q)
        gens = _matrices(group_generators(nn, q))
        expect = reference_partition(part.reps, gens, nn, mm, q)
        assert part.labels.tolist() == expect.tolist(), (nn, mm, q)
    assert len(cases) == 258


def test_partition_refuses_all_but_the_enumeration():
    # torus images are index arithmetic on the enumeration, so only the
    # enumeration in its own order, in any integer dtype, is partitioned
    nn, mm, q = Composition.of(2, 2), Composition.of(1, 2, 1), 3
    reps = enumerate_flag_array(nn.n, mm, q)
    gens = _matrices(group_generators(nn, q))
    expect = oracle_partition(nn, mm, q).labels.tolist()
    wide = orbit_partition_from_arrays(reps.astype(np.int64), gens, nn, mm, q)
    assert wide.labels.tolist() == expect
    changed = reps.copy()
    changed[-1, 3, 0] = (changed[-1, 3, 0] + 1) % q
    shuffled = reps[np.random.default_rng(0).permutation(len(reps))]
    for bad, typ in [(shuffled, mm), (reps[::-1], mm), (changed, mm),
                     (reps[:-1], mm), (reps, Composition.of(2, 1, 1))]:
        with pytest.raises(ValueError):
            orbit_partition_from_arrays(bad, gens, nn, typ, q)


def test_partition_refuses_other_generators(monkeypatch):
    # only n x n torus and root elements mod q are swept; anything else
    # raises a one-line ValueError naming its position, before any sweep
    nn, mm, q = Composition.of(2, 2), Composition.of(1, 2, 1), 3
    reps = enumerate_flag_array(nn.n, mm, q)
    gens = _matrices(group_generators(nn, q))
    swept = []
    monkeypatch.setattr("flagorbits.oracle._torus_image",
                        lambda *args: swept.append("torus"))
    monkeypatch.setattr("flagorbits.oracle._root_sweep",
                        lambda *args: swept.append("root"))
    dense = np.array([[2, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1],
                      [1, 1, 0, 2]], dtype=np.int64)
    assert Matrix.from_rows(gf(q), dense.tolist()).rank() == 4
    scaled = np.eye(4, dtype=np.int64)
    scaled[0, 3], scaled[1, 1] = 1, 2
    zero = np.diag([1, q, 1, 1])            # a 0 on the diagonal mod q
    wide, narrow = np.diag([2, 1, 1, 1, 2]), np.diag([2, 1, 1])
    for bad in [dense, scaled, zero, wide, narrow]:
        for mats, at in [([bad], 0), ([bad] + gens, 0),
                         (gens + [bad], len(gens))]:
            with pytest.raises(ValueError, match=f"^generator {at} ") as err:
                orbit_partition_from_arrays(reps, mats, nn, mm, q)
            assert "\n" not in str(err.value)
    assert swept == []


def _counting_torus_sweeps(monkeypatch):
    """Wrap ``_torus_image`` and record the diagonal of each call."""
    calls = []

    def counted(part, d, src):
        calls.append(d.tolist())
        return _torus_image(part, d, src)

    monkeypatch.setattr("flagorbits.oracle._torus_image", counted)
    return calls


@pytest.mark.parametrize("nn_parts,mm_parts,q", [
    ((2, 2), (1, 2, 1), 3), ((3, 3), (1, 5), 7), ((1, 2, 1), (2, 1, 1), 5)])
def test_scalar_torus_generator_is_skipped_only_when_scalar(
        monkeypatch, nn_parts, mm_parts, q):
    nn, mm = Composition(nn_parts), Composition(mm_parts)
    reps = enumerate_flag_array(nn.n, mm, q)
    gens = _matrices(group_generators(nn, q))
    torus = [G for G in gens if is_torus_element(G)]
    assert len(torus) == nn.n
    calls = _counting_torus_sweeps(monkeypatch)
    # all n row scalings: their product is the scalar gamma·I
    part = orbit_partition_from_arrays(reps, gens, nn, mm, q)
    assert len(calls) == nn.n - 1
    assert part.labels.tolist() == \
        reference_partition(reps, gens, nn, mm, q).tolist()
    # without the scaling of row 0 no product is scalar: every one is swept
    lacking = [G for G in gens
               if not (is_torus_element(G) and G[0, 0] != 1)]
    assert len(lacking) == len(gens) - 1
    calls.clear()
    part = orbit_partition_from_arrays(reps, lacking, nn, mm, q)
    assert len(calls) == nn.n - 1
    assert part.labels.tolist() == \
        reference_partition(reps, lacking, nn, mm, q).tolist()
    # a lone scalar generator fixes every flag and is not swept
    calls.clear()
    scalar = [np.eye(nn.n, dtype=np.int64) * 2]
    part = orbit_partition_from_arrays(reps, scalar, nn, mm, q)
    assert calls == [] and part.class_count == part.size


# pairs whose torus generators are checked on every flag at q in {3, 5, 7}
TORUS_PAIRS = [((2, 1), (1, 1, 1)), ((2, 2), (1, 3)), ((3, 1), (2, 2)),
               ((1, 2, 1), (1, 2, 1)), ((2, 2), (2, 1, 1))]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_torus_image_matches_dense_product_on_all_flags(q):
    # every torus generator: the index arithmetic equals the dense
    # product, canonicalized and located, on every flag or on some, and
    # the reference image equals the canonical form of the dense product
    for nn_parts, mm_parts in TORUS_PAIRS:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        part = oracle_partition(nn, mm, q)
        some = np.arange(0, part.size, 3)
        boundaries = mm.prefix_sums()[: len(mm) - 1]
        torus = [np.array(g.data, dtype=np.int64)
                 for g in group_generators(nn, q)]
        torus = [G for G in torus if not (G - np.diag(np.diag(G))).any()]
        assert len(torus) == nn.n
        for G in torus:
            dense = np.einsum("ij,njk->nik", G,
                              part.reps.astype(np.int64)) % q
            canon = canonicalize_batch(dense, q, boundaries)
            got = reference_torus_image(part.reps, np.diag(G), q)
            assert got.dtype == part.reps.dtype
            assert np.array_equal(got, canon), (nn, mm, q)
            img = _torus_image(part, np.diag(G), np.arange(part.size))
            assert (img == part.locate(canon)).all()
            assert sorted(img.tolist()) == list(range(part.size))
            assert np.array_equal(_torus_image(part, np.diag(G), some),
                                  img[some])


@pytest.mark.parametrize("q", [3, 5])
def test_torus_index_arithmetic_on_every_type_n5(q):
    # random torus elements on every type with n <= 5 and at most 60,000
    # flags: the index arithmetic equals the dense product, canonicalized
    # and located
    rng = np.random.default_rng(q)
    cases = 0
    for n in range(1, 6):
        for mm in compositions(n):
            if flag_count(n, mm, q) > 60_000:
                continue
            reps = enumerate_flag_array(n, mm, q)
            part = OrbitPartition(q, Composition.of(n), mm, reps, None)
            every = np.arange(len(reps))
            for _ in range(3):
                d = rng.integers(1, q, n)
                assert np.array_equal(
                    _torus_image(part, d, every),
                    reference_image(part, np.diag(d), every)), \
                    (mm, q, d.tolist())
                cases += 1
    assert cases == {3: 78, 5: 60}[q]


@pytest.mark.parametrize("q", [257, 46349])
def test_torus_image_on_random_canonical_matrices(q):
    # two-byte residues and the int64 working dtype, on sparse matrices so
    # that pivots fall on every row; one scaled row (a torus generator) and
    # whole random diagonals
    rng = random.Random(q)
    fld = gf(q)
    for parts in [(1, 1, 1), (2, 1, 2), (1, 2, 1, 1), (3, 2)]:
        mm = Composition(parts)
        n, stored = mm.n, mm.n - parts[-1]
        boundaries = mm.prefix_sums()[: len(mm) - 1]
        raws = []
        while len(raws) < 60:
            raw = [[rng.randrange(q) if rng.random() < 0.5 else 0
                    for _ in range(stored)] for _ in range(n)]
            if Matrix.from_rows(fld, raw).rank() == stored:
                raws.append(raw)
        A = canonicalize_batch(np.array(raws, dtype=np.int64), q, boundaries)
        diagonals = [[rng.randrange(1, q) if a == i else 1
                      for a in range(n)] for i in range(n)]
        diagonals += [[rng.choice([1, 2, q - 1, rng.randrange(1, q)])
                       for _ in range(n)] for _ in range(4)]
        for d in diagonals:
            d = np.array(d, dtype=np.int64)
            dense = d[None, :, None] * A.astype(np.int64) % q
            got = reference_torus_image(A, d, q)
            assert got.dtype == np.min_scalar_type(q - 1)
            assert np.array_equal(got, canonicalize_batch(dense, q,
                                                          boundaries))


def _reference_vectors(reps, fam, q):
    """Signature vectors by one reference rank per family entry."""
    ps = fam.mm.prefix_sums()
    out = np.empty((reps.shape[0], len(fam.entries)), dtype=np.uint8)
    for k, (s, J) in enumerate(fam.entries):
        out[:, k] = rank_batch(reps[:, [j - 1 for j in J], : ps[s]], q)
    return out


# (nn, mm, q): at least one pair per q, q = 2 and q = 257 among them.
# (1,1,1)/(2,1) at q = 257 numbers its distinct (subspace, row) keys both
# ways: the steps that extend the empty subspace, a key space of
# 257**2 = 66,049 <= N = 66,307, by direct address; later steps extend up
# to 259 subspaces and sort.
PLAN_CASES = [((2, 1), (1, 1, 1), 2), ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 2),
              ((2, 2, 1), (1, 2, 2), 2), ((4, 1), (1, 1, 2, 1), 3),
              ((1, 2, 1), (2, 1, 1), 3), ((2, 1, 2), (3, 2), 5),
              ((3, 3), (1, 5), 7), ((1, 1), (1, 1), 257),
              ((1, 1, 1), (2, 1), 257)]


@pytest.mark.parametrize("nn_parts,mm_parts,q", PLAN_CASES)
def test_plan_vectors_match_reference_ranks(nn_parts, mm_parts, q):
    nn, mm = Composition(nn_parts), Composition(mm_parts)
    part = oracle_partition(nn, mm, q)
    fam = invariant_family(nn, mm)
    got = _signature_vectors(part, fam)
    assert got.dtype == np.uint8
    assert got.shape == (part.size, len(fam.entries))
    assert np.array_equal(got, _reference_vectors(part.reps, fam, q))
    # subsets: class representatives, and repeated indices in any order
    rng = np.random.default_rng(q)
    for idx in (part.first_index, rng.integers(0, part.size, 300),
                np.arange(part.size)[::-7], np.zeros(0, dtype=np.intp)):
        assert np.array_equal(_signature_vectors(part, fam, idx), got[idx])


def test_echelon_steps_run_once_per_distinct_pair(monkeypatch):
    # 20,306 flags times 17 plan steps are 345,202 flag-steps, over only
    # 5,762 distinct (subspace, row) pairs
    import flagorbits.oracle as oracle_mod
    nn, mm, q = Composition((2, 1, 2)), Composition((3, 2)), 5
    part = oracle_partition(nn, mm, q)
    fam = invariant_family(nn, mm)
    rows = []
    step = oracle_mod._echelon_step

    def counted(basis, v, p):
        rows.append(v.shape[1])
        return step(basis, v, p)

    monkeypatch.setattr(oracle_mod, "_echelon_step", counted)
    _signature_vectors(part, fam)
    assert part.size * len(fam.rank_plan[0]) == 345_202
    assert sum(rows) <= 10_000, sum(rows)


def test_plan_vectors_with_record_keys():
    # a basis of 8 x 8 residues mod 2 exceeds int64 (2**64 > 2**63), so
    # the new bases are numbered by their entries as records
    nn, mm, q = Composition((4, 5)), Composition((8, 1)), 2
    assert q ** 64 > 2**63
    part = oracle_partition(nn, mm, q)
    fam = invariant_family(nn, mm)
    assert np.array_equal(_signature_vectors(part, fam),
                          _reference_vectors(part.reps, fam, q))


@pytest.mark.parametrize("nn_parts,mm_parts,q", PLAN_CASES + WORKLOAD_RUNS)
def test_stored_pivots_are_the_first_nonzero_rows(nn_parts, mm_parts, q):
    # the index table of the enumeration stores one pivot row per group
    # and column, and its cells: every flag of group g has its first
    # nonzero rows there, and reads the digits of its index minus the
    # group's offset in its cells, padding cells reading 0
    nn, mm = Composition(nn_parts), Composition(mm_parts)
    reps = enumerate_flag_array(nn.n, mm, q)
    offsets, rows, cols, pivots = _enumeration_table(nn.n, mm, q)
    assert offsets[0] == 0 and offsets[-1] == len(reps)
    group = np.repeat(np.arange(len(pivots)), np.diff(offsets))
    assert np.array_equal(pivots[group], (reps != 0).argmax(axis=1))
    k = np.arange(len(reps))[:, None]
    digits = reps[k, rows[group], cols[group]].astype(np.int64)
    local = np.arange(len(reps)) - offsets[group]
    assert np.array_equal(digits, local[:, None] // q ** np.arange(
        rows.shape[1]) % q)


def _same_classes(a, b):
    return len(set(zip(a.tolist(), b.tolist()))) == len(set(a.tolist())) \
        == len(set(b.tolist()))


@pytest.mark.parametrize("nn_parts,mm_parts,q,records", [
    ((2, 1, 2), (3, 2), 5, False),        # C = 3, E = 17: int64 keys
    ((2, 2), (1, 2, 1), 3, False),        # level sets coarser than orbits
    ((1, 1, 1, 1, 1), (1, 1, 3), 2, True),   # C = 2, E = 62: records
])
def test_signature_labels_match_byte_records(nn_parts, mm_parts, q, records):
    nn, mm = Composition(nn_parts), Composition(mm_parts)
    part = oracle_partition(nn, mm, q)
    fam = invariant_family(nn, mm)
    vectors = _signature_vectors(part, fam)
    C, E = part.reps.shape[2], vectors.shape[1]
    assert ((C + 1) ** E > 2**63) == records
    assert (_encode_keys(vectors[:, None, :], C + 1).dtype
            != np.int64) == records
    got = _signature_labels(part, fam, vectors)
    assert _same_classes(got, reference_signature_labels(vectors))
    assert np.array_equal(got, _signature_labels(part, fam))


def test_signature_labels_import_no_masked_arrays():
    # both key paths: plain np.unique would import numpy.ma on first call
    src = os.path.dirname(os.path.dirname(flagorbits.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys\n"
              "from flagorbits import Composition\n"
              "from flagorbits.invariants import invariant_family\n"
              "from flagorbits.oracle import (_signature_labels,\n"
              "                               oracle_partition)\n"
              "for nn, mm, q in [((2, 1, 2), (3, 2), 5),\n"
              "                  ((1, 1, 1, 1, 1), (1, 1, 3), 2)]:\n"
              "    nn, mm = Composition(nn), Composition(mm)\n"
              "    part = oracle_partition(nn, mm, q)\n"
              "    _signature_labels(part, invariant_family(nn, mm))\n"
              "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _reduced_basis(rows, q, C):
    """Fold _echelon_step over a stack of row lists, from empty bases."""
    K = rows.shape[0]
    basis = np.zeros((C, C, K), dtype=np.min_scalar_type(q - 1))
    for r in range(rows.shape[1]):
        basis = _echelon_step(basis, rows[:, r, :].T.astype(_work_dtype(q)),
                              q)
    return basis


@pytest.mark.parametrize("q", [2, 5, 257])
def test_echelon_step_returns_the_reduced_echelon_basis(q):
    # one basis per span, whatever rows span it and in what order: each
    # pivot 1 and alone in its column, one pivot per unit of rank
    rng = np.random.default_rng(q)
    C, K = 5, 400
    rows = rng.integers(0, q, (K, 3, C))
    rows[: K // 2, 2] = (rows[: K // 2, 0] * 2 + rows[: K // 2, 1]) % q
    M = np.array([[1, 1, 0], [0, 1, 0], [0, 1, 1]])    # det 1
    mixed = np.einsum("ij,kjc->kic", M, rows) % q
    basis = _reduced_basis(rows, q, C)
    assert np.array_equal(_reduced_basis(rows[:, ::-1], q, C), basis)
    assert np.array_equal(_reduced_basis(mixed, q, C), basis)
    for k in range(K):
        piv = [c for c in range(C) if basis[c, c, k]]
        assert len(piv) == Matrix.from_rows(gf(q), rows[k].tolist()).rank()
        for c in piv:
            assert basis[c, c, k] == 1 and not basis[:c, c, k].any()
            assert not basis[c, :c, k].any()
        assert not basis[[c for c in range(C) if c not in piv], :, k].any()


def test_extend_states_checks_its_key_bound():
    from flagorbits.oracle import _extend_states
    q = 2**31 - 1       # q**3 > 2**63: no int64 key holds a subspace and row
    with pytest.raises(ValueError, match="overflow int64"):
        _extend_states(np.zeros(1, dtype=np.intp),
                       np.zeros((1, 3, 3), dtype=np.uint32),
                       np.ones((1, 1, 3), dtype=np.uint32), q)


def test_work_dtype_bound():
    assert _work_dtype(2) is np.int32
    assert _work_dtype(46337) is np.int32    # 46336**2 + 46336 < 2**31
    assert _work_dtype(46349) is np.int64
    assert _work_dtype(2**31 - 1) is np.int64


def _edge_matrix(rng, q, rows, cols):
    # residues near 0 and near q - 1, where products are largest
    pool = [0, 1, 2, q - 2, q - 1]
    return [[rng.choice(pool) if rng.random() < 0.6 else rng.randrange(q)
             for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("q", [251, 257, 46349])
def test_batch_kernels_exact_at_dtype_edges(q):
    # 251: largest one-byte prime, products overflow int16; 257: two-byte
    # residues; 46349: first prime whose products need int64
    rng = random.Random(q)
    fld = gf(q)
    storage = np.min_scalar_type(q - 1)
    for parts in [(1, 1, 1), (2, 1), (1, 2, 1), (2, 2, 1), (1, 1, 1, 2)]:
        mm = Composition(parts)
        n, stored = mm.n, mm.n - parts[-1]
        boundaries = mm.prefix_sums()[: len(mm) - 1]
        raws, expects = [], []
        while len(raws) < 30:
            raw = _edge_matrix(rng, q, n, stored)
            mat = Matrix.from_rows(fld, raw)
            if mat.rank() != stored:
                continue
            raws.append(raw)
            expects.append([[int(x) for x in row]
                            for row in Flag.from_matrix(mm, mat).rep.data])
        out = canonicalize_batch(np.array(raws, dtype=np.int64), q,
                                 boundaries)
        assert out.dtype == storage
        assert out.astype(np.int64).tolist() == expects
    mats = [_edge_matrix(rng, q, 4, 5) for _ in range(60)]
    ranks = rank_batch(np.array(mats, dtype=np.int64), q)
    assert ranks.dtype == storage
    assert ranks.tolist() == [Matrix.from_rows(fld, m).rank() for m in mats]


def test_batch_kernels_accept_uint8_input():
    rng = random.Random(3)
    mm = Composition.of(1, 2, 1)
    boundaries = mm.prefix_sums()[: len(mm) - 1]
    for q in (3, 257):
        fld = gf(q)
        raws = []
        while len(raws) < 40:
            raw = [[rng.randrange(min(q, 256)) for _ in range(3)]
                   for _ in range(4)]
            if Matrix.from_rows(fld, raw).rank() == 3:
                raws.append(raw)
        wide = np.array(raws, dtype=np.int64)
        narrow = wide.astype(np.uint8)
        out = canonicalize_batch(narrow, q, boundaries)
        assert out.dtype == np.min_scalar_type(q - 1)
        assert (out == canonicalize_batch(wide, q, boundaries)).all()
        ranks = rank_batch(narrow[:, :2, :], q)
        assert ranks.dtype == np.min_scalar_type(q - 1)
        assert (ranks == rank_batch(wide[:, :2, :], q)).all()
    # entries of a wide dtype outside [0, q) are reduced before narrowing
    # (2**40 + 1 = 2 and -2 = 1 mod 3; the pivot 2 scales by its inverse 2)
    A = np.array([[[2**40 + 1], [-2]]], dtype=np.int64)
    assert canonicalize_batch(A, 3, [0]).tolist() == [[[1], [2]]]


@pytest.mark.parametrize("nn_parts,mm_parts,q", [
    ((4, 1), (1, 1, 2, 1), 3),   # 62,920 flags of 5 x 4 entries
    ((2, 3), (2, 3), 7),         # 140,050 flags of 5 x 2 entries
])
def test_partition_peak_within_stated_bound(nn_parts, mm_parts, q):
    # the bound in the flagorbits.oracle docstring, with one-byte residues
    nn, mm = Composition(nn_parts), Composition(mm_parts)
    tracemalloc.start()
    try:
        part = oracle_partition(nn, mm, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    N, n, C = part.reps.shape
    assert part.reps.dtype == np.uint8
    G, E = _enumeration_table(n, mm, q)[1].shape
    items = G * (E * q + q ** (E // 2) + q ** (E - E // 2))
    bound = ((n * C + 81) * N + items * (n * C + 8)
             + max(24 * n * C, 80) * CHUNK + 2**20)
    # tighter than the bound of stored pivot rows, (n*C + 96)*N +
    # 24*n*C*CHUNK + 2**20, on both types
    assert bound < (n * C + 96) * N + 24 * n * C * CHUNK + 2**20
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("nn_parts,mm_parts,q", [
    ((4, 1), (1, 1, 2, 1), 3),   # 62,920 flags, 4,983 distinct pairs
    ((1, 1, 1), (2, 1), 257),    # 66,307 flags, one step with 66,049 pairs
])
def test_signature_vectors_peak_within_stated_bound(nn_parts, mm_parts, q):
    # the bound in the flagorbits.oracle docstring
    nn, mm = Composition(nn_parts), Composition(mm_parts)
    part = oracle_partition(nn, mm, q)
    fam = invariant_family(nn, mm)
    extend, entries = fam.rank_plan
    last = list(range(len(extend) + 1))
    for step, (parent, _) in enumerate(extend, 1):
        last[parent] = step
    live = max(sum(s <= t <= last[s] for s in range(len(last)))
               for t in range(len(last)))
    tracemalloc.start()
    try:
        _signature_vectors(part, fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    N, n, C = part.reps.shape
    s, w = part.reps.itemsize, np.dtype(_work_dtype(q)).itemsize
    bound = ((len(entries) + 8 * live + 3 * C * C * s + 64) * N
             + 8 * C * (C + 2) * w * CHUNK + 2**20)
    assert peak <= bound, (peak, bound)


def test_oracle_run_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(flagorbits.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys\n"
              "from flagorbits.cli import main\n"
              "code = main(['oracle', '--nn', '2,1,2', '--mm', '3,2',"
              " '--q', '5'])\n"
              "assert code == 0\n"
              "assert 'numpy' in sys.modules\n"
              "assert 'scipy' not in sys.modules, 'scipy imported'\n"
              # the exhaustive level-set check counts classes without
              # plain np.unique, whose first call imports numpy.ma
              "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("oracle-report nn=2,1,2 mm=3,2 q=5 ok=1\n")
