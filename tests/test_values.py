import copy

import pytest

from flagorbits import orbits as orbits_mod
from flagorbits.flags import Composition, Flag, ParabolicSpec
from flagorbits.invariants import (JFamily, Signature, invariant_family,
                                   signature)
from flagorbits.linalg import QQ, Matrix, _Value
from flagorbits.normalforms import (CaseTag, NFCase0, NFChain, NFPattern,
                                    WitnessPair, case0_normal_forms,
                                    case3prime_normal_forms,
                                    counterexample_pair)
from flagorbits.oracle import (CheckResult, OrbitPartition, ValidationReport,
                               oracle_partition)
from flagorbits.orbits import CatalogEntry, OrbitCatalog, enumerate_orbits

NN, MM = Composition.of(2, 1), Composition.of(1, 1, 1)


def _flag():
    return Flag.from_matrix(MM, Matrix.from_rows(QQ, [[1, 0], [1, 1], [1, 0]]))


def _check():
    return CheckResult("class-count", True, "oracle=4 catalog=4")


# each value class with its fields, in order, and a factory of one instance
VALUES = [
    (Composition, ("parts",), lambda: Composition.of(2, 1)),
    (Flag, ("typ", "rep"), _flag),
    (ParabolicSpec, ("shape", "perm"),
     lambda: ParabolicSpec(Composition.of(1, 2), (3, 1, 2))),
    (Matrix, ("field", "rows", "cols", "data"),
     lambda: Matrix.from_rows(QQ, [[1, 2], [3, 4]])),
    (JFamily, ("nn", "mm", "entries"), lambda: invariant_family(NN, MM)),
    (Signature, ("family", "values"),
     lambda: signature(_flag(), invariant_family(NN, MM))),
    (CaseTag, ("label", "subcase", "injective"),
     lambda: CaseTag("I'", "m3=1", injective=False)),
    (NFCase0, ("nn", "mm", "cols"),
     lambda: case0_normal_forms(Composition.of(2, 2),
                                Composition.of(2, 2))[3]),
    (NFChain, ("nn", "mm", "j0", "blocks", "chain"),
     lambda: case3prime_normal_forms(NN, MM)[2]),
    (NFPattern, ("case", "subcase", "nn", "mm", "matrix01", "row_perm",
                 "dualize"),
     lambda: NFPattern("I", None, NN, Composition.of(1, 2),
                       ((1,), (0,), (0,)), row_perm=(2, 1, 3))),
    (WitnessPair, ("d1", "d2", "case", "nn", "mm"),
     lambda: counterexample_pair(Composition.of(3, 2),
                                 Composition.of(1, 2, 2))),
    (CatalogEntry, ("nf", "sig", "dim", "key"),
     lambda: enumerate_orbits(NN, MM).entries[4]),
    (OrbitCatalog, ("case", "nn", "mm", "family", "entries"),
     lambda: enumerate_orbits(NN, MM)),
    (OrbitPartition, ("q", "nn", "mm", "reps", "labels"),
     lambda: oracle_partition(NN, MM, 2)),
    (CheckResult, ("name", "passed", "detail"), _check),
    (ValidationReport, ("nn", "mm", "q", "checks"),
     lambda: ValidationReport(NN, MM, 2, (_check(),))),
]


@pytest.mark.parametrize("cls, fields, make", VALUES,
                         ids=[cls.__name__ for cls, _, _ in VALUES])
def test_value_class_semantics(cls, fields, make):
    x = make()
    assert type(x) is cls and isinstance(x, _Value)
    values = tuple(getattr(x, name) for name in fields)
    # equal to a copy, and to nothing of another class, even one of the
    # same name with the same fields and values
    assert copy.copy(x) == x and copy.copy(x) is not x
    twin_cls = type(cls.__name__, (_Value,), {"__slots__": cls.__slots__})
    twin = twin_cls.__new__(twin_cls)
    for name, value in zip(fields, values):
        object.__setattr__(twin, name, value)
    assert x != twin and twin != x
    # the hash of the field tuple, or the same refusal when a field is an
    # array
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected
    for name, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is value
    assert repr(x) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"


def test_value_class_reprs():
    assert repr(Composition.of(2, 1)) == "Composition(parts=(2, 1))"
    assert repr(CaseTag("I'", "m3=1", injective=False)) == \
        "CaseTag(label=\"I'\", subcase='m3=1', injective=False)"
    assert repr(Matrix.from_rows(QQ, [[1]])) == \
        "Matrix(field=QQ, rows=1, cols=1, data=((Fraction(1, 1),),))"


def test_keyword_construction_and_defaults():
    assert CaseTag("0") == CaseTag(label="0", subcase=None, injective=True)
    assert CaseTag("I'", "m3=1", injective=False).injective is False
    rows = ((1, 0), (0, 1), (0, 0))
    plain = NFPattern("II", "(2,n-2)", NN, Composition.of(2, 1), rows)
    assert (plain.row_perm, plain.dualize) == (None, False)
    assert NFPattern(case="II", subcase="(2,n-2)", nn=NN,
                     mm=Composition.of(2, 1), matrix01=rows) == plain
    dual = NFPattern("II", "(2,n-2)", NN, Composition.of(2, 1), rows,
                     dualize=True)
    assert dual.dualize and dual != plain


@pytest.mark.parametrize("parts, message", [
    ((), r"^invalid composition \(\)$"),
    ((2, 0), r"^invalid composition \(2, 0\)$"),
    ((-1,), r"^invalid composition \(-1,\)$"),
])
def test_composition_rejects_nonpositive_parts(parts, message):
    with pytest.raises(ValueError, match=message):
        Composition(parts)


def test_parabolic_spec_rejects_a_non_permutation():
    with pytest.raises(ValueError, match=r"^perm is not a permutation$"):
        ParabolicSpec(Composition.of(1, 2), (1, 1, 2))


def test_cached_properties_are_computed_once(monkeypatch):
    built = enumerate_orbits(NN, MM)
    # a fresh catalog with the same fields, so nothing is cached yet
    cat = OrbitCatalog(built.case, built.nn, built.mm, built.family,
                       built.entries)
    calls = []
    hasse = orbits_mod.hasse_candidate

    def counting(c):
        calls.append(c)
        return hasse(c)

    monkeypatch.setattr(orbits_mod, "hasse_candidate", counting)
    assert cat.covers is cat.covers
    assert calls == [cat] and cat.covers == built.covers
    assert cat.by_values[cat.entries[2].sig.values] is cat.entries[2]
    entry = CatalogEntry(*(getattr(cat.entries[2], name)
                           for name in ("nf", "sig", "dim", "key")))
    assert entry.flag is entry.flag
    assert entry.flag == entry.nf.realize(QQ)
    fam = cat.family
    assert fam.line_heads is fam.line_heads
