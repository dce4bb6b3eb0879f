import gc
import itertools
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

import flagorbits
from flagorbits.flags import Composition, Flag, act
from flagorbits.invariants import invariant_family, rank_table, signature
from flagorbits.linalg import Matrix, QQ, gf
from flagorbits.normalforms import (InfinitePairError, NFCase0, NFChain,
                                    NFPattern, NonInjectiveError,
                                    UnsupportedCaseError,
                                    _block_reversal_perm, case0_normal_forms,
                                    case3prime_normal_forms, classify_pair,
                                    has_catalog, pattern_candidates)
from flagorbits.orbits import (CatalogEntry, DominanceDimensionError,
                               OrbitCatalog, _annihilator_dimension,
                               _integer_rows, catalog_to_text,
                               count_multiplicity_free, emit_dot,
                               enumerate_orbits, enumeration_count,
                               hasse_candidate, is_closed_flag,
                               orbit_dimension)

from conftest import (compositions, dominates, dual, pairwise_covers,
                      permutation_matrix, reference_orbit_dimension,
                      reference_pattern_candidates, standard_flag)


def test_enumerate_small_grassmannian():
    cat = enumerate_orbits(Composition.of(1, 1), Composition.of(1, 1))
    assert len(cat.entries) == 3
    reps = sorted(tuple(e.flag.rep.column(0)) for e in cat.entries)
    assert reps == [(0, 1), (1, 0), (1, 1)]


def test_enumerate_refusals():
    with pytest.raises(InfinitePairError):
        enumerate_orbits(Composition.of(1, 1, 1, 1), Composition.of(2, 2))
    with pytest.raises(NonInjectiveError) as err:
        enumerate_orbits(Composition.of(3, 2), Composition.of(1, 2, 2))
    assert err.value.witnesses is not None
    with pytest.raises(UnsupportedCaseError):
        enumerate_orbits(Composition.of(2, 2), Composition.of(1, 2, 1))


def test_count_multiplicity_free_values():
    assert count_multiplicity_free(3, Composition.of(1, 1, 1)) == 13
    assert count_multiplicity_free(5, Composition.of(5)) == 1
    assert count_multiplicity_free(4, Composition.of(1, 1, 1, 1)) == 73
    with pytest.raises(ValueError):
        count_multiplicity_free(4, Composition.of(1, 1, 1))


def test_count_matches_enumeration_and_oracle_small():
    from flagorbits.oracle import oracle_partition
    n = 4
    nn = Composition.of(3, 1)
    for mm in [Composition.of(1, 1, 1, 1), Composition.of(2, 1, 1),
               Composition.of(1, 2, 1), Composition.of(1, 1, 2)]:
        expected = count_multiplicity_free(n, mm)
        assert enumeration_count(nn, mm) == expected
        assert len(enumerate_orbits(nn, mm).entries) == expected
        assert oracle_partition(nn, mm, 2).class_count == expected


def test_orbit_dimension_fixed_points():
    nn = Composition.of(2, 1)
    mm = Composition.of(1, 1, 1)
    assert orbit_dimension(standard_flag(mm), nn) == 0
    # the all-ones chain representative sits at the top, dimension 3
    top = Flag.from_matrix(mm, Matrix.from_rows(QQ, [[1, 0], [1, 1], [1, 0]]))
    assert orbit_dimension(top, nn) == 3


def test_orbit_dimension_figure_two():
    nn, mm = Composition.of(2, 2), Composition.of(1, 3)
    expected = {
        (0, 0, 1, 0): 0, (1, 0, 0, 0): 0,
        (0, 0, 0, 1): 1, (0, 1, 0, 0): 1, (1, 0, 1, 0): 1,
        (0, 1, 1, 0): 2, (1, 0, 0, 1): 2,
        (0, 1, 0, 1): 3,
    }
    for vec, dim in expected.items():
        f = Flag.from_matrix(mm, Matrix.from_columns(QQ, [list(vec)], mm.n))
        assert orbit_dimension(f, nn) == dim, vec


def test_is_closed_prefix_criterion():
    nn = Composition.of(2, 2)
    mm = Composition.of(1, 3)
    closed = [(1, 0, 0, 0), (0, 0, 1, 0)]
    open_ = [(0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0)]
    for vec in closed:
        f = Flag.from_matrix(mm, Matrix.from_columns(QQ, [list(vec)], mm.n))
        assert is_closed_flag(f, nn)
    for vec in open_:
        f = Flag.from_matrix(mm, Matrix.from_columns(QQ, [list(vec)], mm.n))
        assert not is_closed_flag(f, nn)


def test_closed_iff_dimension_zero_on_catalogs():
    for nn_parts, mm_parts in [((2, 1), (1, 1, 1)), ((2, 2), (1, 3)),
                               ((2, 2), (2, 2)), ((1, 1, 2), (2, 2)),
                               ((2, 2), (1, 1, 2)), ((1, 3), (2, 1, 1))]:
        nn = Composition(nn_parts)
        cat = enumerate_orbits(nn, Composition(mm_parts))
        for e in cat.entries:
            closed = is_closed_flag(e.flag, nn)
            assert closed == (e.dim == 0), (nn_parts, mm_parts,
                                            e.nf.serialize())
            assert e.closed == closed


def test_chain_forms_with_marks_are_not_closed():
    cat = enumerate_orbits(Composition.of(2, 1), Composition.of(1, 1, 1))
    for e in cat.entries:
        if e.nf.chain:
            assert not e.closed


def test_hasse_single_orbit_no_edges():
    cat = enumerate_orbits(Composition.of(1, 1), Composition.of(2,))
    assert hasse_candidate(cat) == ()
    assert len(cat.entries) == 1


def test_hasse_covers_increase_dimension():
    for nn_parts, mm_parts in [((2, 1), (1, 1, 1)), ((2, 2), (1, 3)),
                               ((2, 2), (2, 2))]:
        cat = enumerate_orbits(Composition(nn_parts), Composition(mm_parts))
        for a, b in hasse_candidate(cat):
            assert cat.entries[a].dim < cat.entries[b].dim


def test_emit_dot_structure():
    cat = enumerate_orbits(Composition.of(2, 1), Composition.of(1, 1, 1))
    covers = hasse_candidate(cat)
    text = emit_dot(covers, cat)
    assert text.count("->") == 23
    assert len(re.findall(r'n\d+ \[label=', text)) == 13
    # four dimension ranks
    assert text.count("rank=same") == 4
    _check_dot_syntax(text)
    assert emit_dot(covers, cat) == text  # byte-stable


def _check_dot_syntax(text):
    # minimal DOT grammar: one digraph block, statements are rank groups,
    # node declarations, or edges; braces balance
    assert text.startswith("//") or text.startswith("digraph")
    body = text[text.index("{") + 1:text.rindex("}")]
    depth = 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            assert depth >= 0
    assert depth == 0
    for line in body.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("//"):
            continue
        assert (line.startswith("{ rank=same;") or
                re.match(r'^n\d+ \[label=".*"\];$', line) or
                re.match(r"^n\d+ -> n\d+;$", line) or
                line in ("rankdir=BT;", "node [shape=box];")), line


def test_catalog_text_round_shape():
    cat = enumerate_orbits(Composition.of(2, 2), Composition.of(1, 3))
    text = catalog_to_text(cat)
    lines = text.strip().splitlines()
    assert lines[0] == "case=0 nn=2,2 mm=1,3 count=8"
    assert sum(1 for ln in lines if ln.startswith("entry ")) == 8
    assert sum(1 for ln in lines if ln.startswith("cover ")) == 10


def test_enumeration_count_matches_catalog():
    for nn_parts, mm_parts in [((2, 2), (2, 2)), ((2, 1), (1, 1, 1)),
                               ((3, 1), (2, 2))]:
        nn, mm = Composition(nn_parts), Composition(mm_parts)
        assert enumeration_count(nn, mm) == \
            len(enumerate_orbits(nn, mm).entries)


def test_open_orbit_unique_and_dominant():
    for nn_parts, mm_parts in [((2, 1), (1, 1, 1)), ((2, 2), (1, 3))]:
        cat = enumerate_orbits(Composition(nn_parts), Composition(mm_parts))
        top_dim = max(e.dim for e in cat.entries)
        tops = [e for e in cat.entries if e.dim == top_dim]
        assert len(tops) == 1
        assert all(dominates(e.sig, tops[0].sig) for e in cat.entries)


def test_catalog_built_once_per_pair():
    nn, mm = Composition.of(2, 1), Composition.of(1, 1, 1)
    assert enumerate_orbits(nn, mm) is enumerate_orbits(nn, mm)
    assert enumerate_orbits(Composition.of(2, 1), Composition.of(1, 1, 1)) \
        is enumerate_orbits(nn, mm)


def test_hasse_matches_pairwise_reference():
    pairs = covers = 0
    for _, nn, mm in _catalog_pairs(5):
        cat = enumerate_orbits(nn, mm)
        got = hasse_candidate(cat)
        assert got == pairwise_covers(cat), (nn, mm)
        pairs += 1
        covers += len(got)
    assert pairs == 131 and covers == 20909


def test_hasse_cover_count_on_largest_hook_pair():
    cat = enumerate_orbits(Composition.of(1, 5), Composition((1,) * 6))
    assert len(cat.entries) == 4051
    assert len(hasse_candidate(cat)) == 26602


def test_dominance_dimension_guard():
    cat = enumerate_orbits(Composition.of(2, 1), Composition.of(1, 1, 1))
    flat = OrbitCatalog(cat.case, cat.nn, cat.mm, cat.family,
                        tuple(CatalogEntry(e.nf, e.sig, 0, e.key)
                              for e in cat.entries))
    with pytest.raises(DominanceDimensionError):
        hasse_candidate(flat)
    with pytest.raises(DominanceDimensionError):
        catalog_to_text(flat)


def _catalog_pairs(max_n):
    for n in range(1, max_n + 1):
        for nn in compositions(n):
            for mm in compositions(n):
                tag = classify_pair(nn, mm)
                if tag is not None and tag.injective and has_catalog(tag):
                    yield tag, nn, mm


def _forms(tag, nn, mm):
    """Every normal form, or every pattern candidate before orbit-mates
    with a smaller key are left out."""
    if tag.label == "0":
        return case0_normal_forms(nn, mm)
    if tag.label == "III'":
        return case3prime_normal_forms(nn, mm)
    return reference_pattern_candidates(tag, nn, mm)


def test_rank_table_matches_signature_on_every_candidate():
    pairs = duals = 0
    for tag, nn, mm in _catalog_pairs(5):
        pairs += 1
        fam = invariant_family(nn, mm)
        steps = {}
        for nf in _forms(tag, nn, mm):
            if isinstance(nf, NFPattern) and nf.dualize:
                duals += 1
            assert rank_table(nf.rows, fam, steps) == \
                signature(nf.realize(QQ), fam).values, (nn, mm, nf)
    assert pairs == 131 and duals > 0


def _both_orientations(tag, nn, mm):
    """Case II candidates with every ordered pair (u, v) of distinct
    nonzero 0/1 columns, each plane in both orientations."""
    n = nn.n
    vecs = [u for u in itertools.product((0, 1), repeat=n) if any(u)]
    return [NFPattern("II", tag.subcase, nn, mm, tuple(zip(u, v)),
                      dualize=tag.subcase == "(n-2,2)")
            for u in vecs for v in vecs if u != v]


def _zero_one_span(u, v):
    """The plane span{u, v} of two 0/1 columns, as the set of its nonzero
    0/1 vectors a*u + b*v; for 0/1 u and v, a and b lie in {-1, 0, 1}."""
    combos = (tuple(a * x + b * y for x, y in zip(u, v))
              for a in (-1, 0, 1) for b in (-1, 0, 1))
    return frozenset(w for w in combos if any(w) and set(w) <= {0, 1})


def test_one_orientation_per_plane_changes_no_catalog():
    # three row blocks of at least two rows: no case II pair has n < 6
    pairs = [(tag, nn, mm) for tag, nn, mm in _catalog_pairs(6)
             if tag.label == "II"]
    assert [(nn.parts, mm.parts) for _, nn, mm in pairs] == [
        ((2, 2, 2), (2, 4)), ((2, 2, 2), (4, 2))]
    for tag, nn, mm in pairs:
        fam = invariant_family(nn, mm)
        kept = {}
        for nf in _both_orientations(tag, nn, mm):
            values, key = rank_table(nf.rows, fam), nf.serialize()
            if values not in kept or key < kept[values][0]:
                kept[values] = (key, nf)
        expected = sorted((reference_orbit_dimension(nf.realize(QQ), nn),
                           key, values)
                          for values, (key, nf) in kept.items())
        assert [(e.dim, e.nf.serialize(), e.sig.values)
                for e in enumerate_orbits(nn, mm).entries] == expected, \
            (nn, mm)
        planes = Counter(_zero_one_span(*zip(*nf.matrix01))
                         for nf in pattern_candidates(tag, nn, mm))
        assert set(planes.values()) == {1}
        assert len(planes) == 445, (nn, mm)


def _pruned_pairs():
    """Every case II pair with n <= 7 and every I' (m2 = 1) pair with
    n <= 6."""
    for tag, nn, mm in _catalog_pairs(7):
        if tag.label == "II" or (tag.label == "I'" and tag.subcase == "m2=1"
                                 and nn.n <= 6):
            yield tag, nn, mm


def test_pruned_candidates_leave_out_only_orbit_mates_with_smaller_keys():
    counts = {}
    for tag, nn, mm in _pruned_pairs():
        fam = invariant_family(nn, mm)
        listed = Counter(nf.serialize()
                         for nf in pattern_candidates(tag, nn, mm))
        reference = reference_pattern_candidates(tag, nn, mm)
        keys = [nf.serialize() for nf in reference]
        assert set(listed.values()) == {1} and set(listed) <= set(keys)
        steps, kept = {}, {}
        values_of = [rank_table(nf.rows, fam, steps) for nf in reference]
        for nf, key, values in zip(reference, keys, values_of):
            if values not in kept or key < kept[values][0]:
                kept[values] = (key, nf)
        # each candidate left out has an orbit-mate with a smaller key
        for key, values in zip(keys, values_of):
            if key not in listed:
                assert kept[values][0] < key, (nn, mm, key)
        expected = sorted((reference_orbit_dimension(nf.realize(QQ), nn),
                           key, values)
                          for values, (key, nf) in kept.items())
        assert [(e.dim, e.nf.serialize(), e.sig.values)
                for e in enumerate_orbits(nn, mm).entries] == expected, \
            (nn, mm)
        counts[nn.parts, mm.parts] = len(listed)
    case2_n7 = [pair for pair in counts if sum(pair[0]) == 7]
    assert len(case2_n7) == 6 and {counts[p] for p in case2_n7} == {1136}
    for pair, count in [(((2, 2, 2), (2, 4)), 445),
                        (((2, 2, 2), (4, 2)), 445),
                        (((3, 2), (1, 1, 3)), 213),
                        (((4, 2), (3, 1, 2)), 1076)]:
        assert counts[pair] == count, pair


def _inverse(perm):
    inv = [0] * len(perm)
    for j, pj in enumerate(perm):
        inv[pj - 1] = j + 1
    return tuple(inv)


def _reference_realize(nf, fld):
    """The flag of a normal form built the long way: columns in the stored
    orientation, then permutation-matrix products (and ``dual``)."""
    if isinstance(nf, NFPattern):
        primal_mm = Composition(tuple(reversed(nf.mm.parts))) \
            if nf.dualize else nf.mm
        f = Flag.from_matrix(primal_mm, Matrix.from_rows(fld, nf.matrix01))
        if nf.dualize:
            w = _block_reversal_perm(nf.nn)
            f = dual(act(permutation_matrix(fld, w), f))
        if nf.row_perm:
            f = act(permutation_matrix(fld, _inverse(nf.row_perm)), f)
        return f
    n = nf.nn.n
    columns = []
    if isinstance(nf, NFCase0):
        n1 = nf.nn.parts[0]
        for e, fi in nf.cols:
            v = [fld.zero] * n
            if e is not None:
                v[e - 1] = fld.one
            if fi is not None:
                v[n1 + fi - 1] = fld.one
            columns.append(v)
        return Flag.from_matrix(nf.mm, Matrix.from_columns(fld, columns, n))
    for bi, rows in enumerate(nf.blocks, start=1):
        if bi == nf.j0:
            v = [fld.zero] * n
            v[n - 1] = fld.one
            for _, i in nf.chain:
                v[i - 1] = fld.one
            columns.append(v)
        for p in rows:
            v = [fld.zero] * n
            v[p - 1] = fld.one
            columns.append(v)
    f = Flag.from_matrix(nf.mm, Matrix.from_columns(fld, columns, n))
    if nf.swapped:
        rotation = (n,) + tuple(range(1, n))    # n, 1, 2, ..., n-1
        f = act(permutation_matrix(fld, _inverse(rotation)), f)
    return f


def test_realize_matches_permutation_matrix_reference():
    forms = 0
    for tag, nn, mm in _catalog_pairs(5):
        for nf in _forms(tag, nn, mm):
            forms += 1
            for fld in (QQ, gf(2), gf(3)):
                assert nf.realize(fld) == _reference_realize(nf, fld), \
                    (nn, mm, nf, fld)
            if isinstance(nf, NFCase0):
                # case-0 rows are the canonical representative itself
                assert nf.realize(QQ).rep == Matrix.from_rows(QQ, nf.rows)
    assert forms == 12101


@pytest.mark.parametrize("nn_parts, mm_parts", [
    ((1, 5), (2, 2, 2)),    # III', swapped orientation
    ((2, 1, 2), (3, 2)),    # case I, row relabeling
    ((3, 2), (1, 1, 3)),    # I' with m2 = 1
    ((2, 2, 2), (4, 2)),    # II, dual subcase (n-2, 2)
    ((1, 1, 2), (3, 1)),    # III, dual subcase (n-1, 1)
    ((2, 2, 2), (2, 4)),    # II, primal subcase
])
def test_catalog_build_applies_no_group_element(monkeypatch, nn_parts,
                                                mm_parts):
    """A build ranks and dimensions every normal form on its own integer
    rows: it calls neither ``act`` nor ``Matrix.__mul__``, and realizes
    and canonicalizes no flag, nor tests one for closedness, not even
    inside the family-invariance check, which reads the row sets alone."""
    import flagorbits.orbits as orbits_mod

    calls, probing = [], []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, bool(probing)))
            return fn(*args, **kwargs)
        return wrapped

    for name, mod in list(sys.modules.items()):
        if name.startswith("flagorbits") and getattr(mod, "act", None) is act:
            monkeypatch.setattr(mod, "act", counting("act", act))
    monkeypatch.setattr(Matrix, "__mul__", counting("mul", Matrix.__mul__))
    monkeypatch.setattr(Flag, "from_matrix", staticmethod(
        counting("from_matrix", Flag.from_matrix)))
    for cls in (NFCase0, NFChain, NFPattern):
        monkeypatch.setattr(cls, "realize", counting("realize", cls.realize))
    monkeypatch.setattr(orbits_mod, "is_closed_flag", counting(
        "is_closed_flag", orbits_mod.is_closed_flag))
    verify = orbits_mod.verify_family_invariance

    def probe(*args, **kwargs):
        probing.append(True)
        try:
            return verify(*args, **kwargs)
        finally:
            probing.pop()

    monkeypatch.setattr(orbits_mod, "verify_family_invariance", probe)
    cat = enumerate_orbits.__wrapped__(Composition(nn_parts),
                                       Composition(mm_parts))
    assert cat.entries
    assert [name for name, in_probe in calls if not in_probe] == []
    assert not any(name in ("act", "mul") for name, _ in calls)

    # a dual pattern's rows are an integer basis of its flag's subspace;
    # one memo shared with the canonical flag's rows gives the values of
    # fresh memos and of the flag
    fam, steps = cat.family, {}
    for nf in _forms(cat.case, cat.nn, cat.mm):
        if isinstance(nf, NFPattern) and nf.dualize:
            f = nf.realize(QQ)
            expected = signature(f, fam).values
            assert rank_table(_integer_rows(f.rep), fam, steps) == expected
            assert rank_table(nf.rows, fam, steps) == expected, nf
            assert rank_table(nf.rows, fam) == expected, nf


def test_catalog_dimensions_match_orbit_dimension():
    pairs = entries = 0
    for _, nn, mm in _catalog_pairs(5):
        pairs += 1
        for e in enumerate_orbits(nn, mm).entries:
            entries += 1
            assert e.dim == reference_orbit_dimension(e.flag, nn), \
                (nn, mm, e.nf)
            assert orbit_dimension(e.flag, nn) == e.dim, (nn, mm, e.nf)
            assert is_closed_flag(e.flag, nn) == (e.dim == 0), (nn, mm, e.nf)
            assert e.key == e.nf.serialize(), (nn, mm, e.nf)
    assert pairs == 131 and entries == 6427


def test_shared_dimension_memo_matches_fresh_calls():
    """One memo shared by every form of a pair, in build order or
    reversed, gives each form the dimension it gets with no memo."""
    pairs = [(tag, nn, mm) for tag, nn, mm in _catalog_pairs(5)
             if tag.label in ("0", "III'")]
    for nn in (Composition.of(5, 1), Composition.of(1, 5)):
        mm = Composition.of(1, 1, 1, 1, 1, 1)
        pairs.append((classify_pair(nn, mm), nn, mm))
    forms = 0
    for tag, nn, mm in pairs:
        memo = {}
        for nf in _forms(tag, nn, mm):
            forms += 1
            assert _annihilator_dimension(nf.rows, nn, mm, memo) == \
                _annihilator_dimension(nf.rows, nn, mm), (nn, mm, nf)
        assert memo or len(mm) < 3
    assert forms == 4348 + 2 * 4051

    # every catalog tag, pattern candidates with their +-1 kernel rows
    # included, in build order and reversed: a memo hit hands on the
    # stored column basis, so a stale one shows in a later form
    labels, forms, duals = set(), 0, 0
    for tag, nn, mm in _catalog_pairs(5):
        labels.add(tag.label)
        dims = [(nf, _annihilator_dimension(nf.rows, nn, mm))
                for nf in _forms(tag, nn, mm)]
        # the +-1 rows' conditions against the g^{-1} X g reference
        for nf, dim in dims:
            if isinstance(nf, NFPattern) and nf.dualize:
                duals += 1
                assert dim == reference_orbit_dimension(nf.realize(QQ), nn), \
                    (nn, mm, nf)
        for order in (1, -1):
            memo = {}
            for nf, dim in dims[::order]:
                forms += 1
                assert _annihilator_dimension(nf.rows, nn, mm, memo) == dim, \
                    (nn, mm, nf, order)
    assert labels == {"0", "I", "I'", "III", "III'"} and duals > 0
    assert forms == 2 * 12101

    # equal block-2 columns after different block-1 columns: the key of
    # block 2 names its parent entry, so each flag keeps its own conditions
    nn, mm = Composition.of(3, 1), Composition.of(1, 1, 1, 1)
    standard = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    opposite = [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]
    memo = {}
    assert _annihilator_dimension(standard, nn, mm, memo) == 0
    assert _annihilator_dimension(opposite, nn, mm, memo) == 3
    assert _annihilator_dimension(opposite, nn, mm) == 3


def test_catalog_build_keeps_one_memo_without_its_last_level(monkeypatch):
    import flagorbits.orbits as orbits_mod

    memos = []

    def capturing(rows, nn, mm, memo=None):
        if not any(m is memo for m in memos):
            assert memo == {}, "a build starts from an empty memo"
            memos.append(memo)
        return _annihilator_dimension(rows, nn, mm, memo)

    monkeypatch.setattr(orbits_mod, "_annihilator_dimension", capturing)
    nn, mm = Composition.of(5, 1), Composition.of(1, 1, 1, 1, 1, 1)
    cat = enumerate_orbits.__wrapped__(nn, mm)
    assert len(cat.entries) == 4051
    assert len(memos) == 1
    memo = memos[0]
    # a key is (parent entry id, columns of block t); ids start at 1
    depth = {0: -1}
    for (parent, block), (entry, *_) in memo.items():
        depth[entry] = depth[parent] + 1
        assert len(block) == mm.parts[depth[entry]]
    # blocks t = 0..3 are stored; t = 4, the last with conditions, is not
    assert max(depth.values()) == len(mm) - 3
    assert 0 < len(memo) < len(cat.entries)
    # only this test still holds the memo: no module keeps it
    assert [r for r in gc.get_referrers(memo) if r is not memos] == []


def test_catalog_dimensions_need_no_completion_or_inverse():
    import flagorbits.flags as flags_mod

    # the library has no completion, no inverse and no field dual to call
    for attr in ("complete_to_invertible", "dual"):
        assert not hasattr(flags_mod, attr)
    assert not hasattr(Matrix, "inverse")
    nn, mm = Composition.of(2, 2, 2), Composition.of(2, 4)
    cat = enumerate_orbits.__wrapped__(nn, mm)
    assert len(cat.entries) == 172
    # per-flag dimensions take the catalog's path too
    assert [orbit_dimension(e.flag, nn) for e in cat.entries] == \
        [e.dim for e in cat.entries]

    fam = invariant_family(nn, mm)
    steps = {}
    for nf in pattern_candidates(classify_pair(nn, mm), nn, mm):
        assert rank_table(nf.rows, fam, steps) == rank_table(nf.rows, fam)
    assert steps


def test_unclassified_pair_has_equal_signatures_on_orbits_of_two_dimensions():
    # (2,2)/(1,2,1): the signatures of A and B agree over Q, GF(3) and
    # GF(5), yet their orbits have dimensions 5 and 4 over Q
    nn, mm = Composition.of(2, 2), Composition.of(1, 2, 1)
    a = ((1, 0, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1))
    b = ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))
    fam = invariant_family(nn, mm)
    for fld in (QQ, gf(3), gf(5)):
        fa, fb = (Flag.from_matrix(mm, Matrix.from_rows(fld, rows))
                  for rows in (a, b))
        assert signature(fa, fam).values == signature(fb, fam).values, fld
    flags = [Flag.from_matrix(mm, Matrix.from_rows(QQ, rows))
             for rows in (a, b)]
    assert [orbit_dimension(f, nn) for f in flags] == [5, 4]
    assert [reference_orbit_dimension(f, nn) for f in flags] == [5, 4]


def test_catalog_build_computes_each_dual_kernel_once(monkeypatch):
    import flagorbits.normalforms as normalforms_mod

    nn, mm = Composition.of(2, 2, 2), Composition.of(4, 2)
    duals = sum(nf.dualize for nf in
                pattern_candidates(classify_pair(nn, mm), nn, mm))
    dual_rows, calls = normalforms_mod.integer_dual, []

    def counting(rows, parts):
        calls.append(rows)
        return dual_rows(rows, parts)

    monkeypatch.setattr(normalforms_mod, "integer_dual", counting)
    cat = enumerate_orbits.__wrapped__(nn, mm)
    assert len(cat.entries) == 172
    assert duals > 0 and len(calls) == duals


def test_catalog_build_imports_no_numpy():
    src = os.path.dirname(os.path.dirname(flagorbits.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys\n"
              "from flagorbits.cli import main\n"
              "code = main(['enumerate', '--nn', '3,2', '--mm', '1,1,3'])\n"
              "assert code == 0\n"
              "assert 'numpy' not in sys.modules, 'numpy imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("case=I' nn=3,2 mm=1,1,3 count=86\n")
