import functools
import hashlib
import io
import itertools
import os
import re
import subprocess
import sys
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flagorbits
from flagorbits import cli
from flagorbits import orbits as orbits_mod
from flagorbits.cli import build_parser, main
from flagorbits.flags import Composition, parse_flag_literal
from flagorbits.normalforms import counterexample_pair


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


# every name the package exports, submodules aside; the benchmark worker
# (perfbench/worker.py) reads Composition, parse_flag_literal,
# reduce_flag, signature, invariant_family and orbit_dimension
PACKAGE_SURFACE = [
    "CaseTag", "CatalogLookupError", "Composition", "Flag", "GF",
    "InfinitePairError", "JFamily", "Matrix", "NonInjectiveError",
    "OrbitCatalog", "ParabolicSpec", "QQ", "Signature",
    "UnsupportedCaseError", "WitnessPair", "act", "bruhat_rij",
    "bruhat_vector", "catalog_to_text", "classify_pair",
    "count_multiplicity_free", "counterexample_pair",
    "decode_signature_case0", "decode_signature_case3prime", "emit_dot",
    "enumerate_orbits", "gf", "hasse_candidate", "invariant_family",
    "orbit_dimension", "parse_flag_literal", "parse_matrix_literal",
    "qfamily", "rank_js", "reduce_by_catalog", "reduce_case0",
    "reduce_case3prime", "reduce_flag", "signature",
]


def test_package_surface_is_pinned():
    exported = sorted(name for name in flagorbits.__all__
                      if not isinstance(getattr(flagorbits, name),
                                        types.ModuleType))
    assert exported == PACKAGE_SURFACE


def test_classify_outputs():
    code, out, _ = run_cli(["classify", "--nn", "2,1", "--mm", "1,1,1"])
    assert code == 0 and out.strip() == "III'"
    code, out, _ = run_cli(["classify", "--nn", "4,2", "--mm", "2,2,2"])
    assert code == 0 and out.strip() == "II' (non-injective)"
    code, out, _ = run_cli(["classify", "--nn", "1,1,1,1", "--mm", "2,2"])
    assert code == 0 and out.strip() == "infinite"


def test_count_figure_one():
    code, out, _ = run_cli(["count", "--n", "3", "--mm", "1,1,1"])
    assert code == 0 and out.strip() == "13"


def test_enumerate_and_determinism():
    args = ["enumerate", "--nn", "2,2", "--mm", "1,3"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "count=8" in out1


def test_enumerate_infinite_exit_2():
    code, _, err = run_cli(["enumerate", "--nn", "1,1,1,1", "--mm", "2,2"])
    assert code == 2 and "infinite" in err


def test_enumerate_non_injective_exit_3():
    code, _, err = run_cli(["enumerate", "--nn", "4,2", "--mm", "2,2,2"])
    assert code == 3


def test_usage_exit_1():
    code, _, _ = run_cli(["no-such-verb"])
    assert code == 1
    code, _, _ = run_cli(["classify", "--nn", "2,1"])
    assert code == 1
    code, _, err = run_cli(["enumerate", "--nn", "2,2", "--mm", "1,2,1"])
    assert code == 1  # separable but unclassified: reported as unsupported


def test_hasse_dot():
    code, out, _ = run_cli(["hasse", "--nn", "2,1", "--mm", "1,1,1", "--dot"])
    assert code == 0
    assert out.count("->") == 23
    assert out.startswith("//")


def test_enumerate_then_hasse_reduce_dominance_once(monkeypatch):
    # the catalog is built afresh for this test, and its covers are
    # computed by the enumerate verb and read again by the hasse verb
    monkeypatch.setattr(cli, "enumerate_orbits", functools.lru_cache(
        orbits_mod.enumerate_orbits.__wrapped__))
    calls = []
    hasse = orbits_mod.hasse_candidate

    def counting(cat):
        calls.append(cat)
        return hasse(cat)

    # every binding of the function, as the benchmark's tracer counts it
    for mod in (cli, orbits_mod):
        if hasattr(mod, "hasse_candidate"):
            monkeypatch.setattr(mod, "hasse_candidate", counting)
    pair = ["--nn", "1,5", "--mm", "2,2,2"]
    code1, text, _ = run_cli(["enumerate"] + pair)
    code2, dot, _ = run_cli(["hasse", "--dot"] + pair)
    assert code1 == code2 == 0
    assert len(calls) == 1
    covers = re.findall(r"^cover (\d+) (\d+)$", text, re.M)
    assert len(covers) == 1230
    assert re.findall(r"^  n(\d+) -> n(\d+);$", dot, re.M) == covers


def test_reused_parser_keeps_no_state(tmp_path):
    # each call through main in this process prints what a fresh process
    # prints and exits with its code
    assert build_parser() is build_parser()
    src = os.path.dirname(os.path.dirname(flagorbits.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    pair = ["--nn", "2,1", "--mm", "1,1,1"]
    runs = [["enumerate", *pair, "--out", "{}.txt"], ["no-such-verb"],
            ["classify", *pair], ["hasse", *pair]]
    for argv in runs:
        here = [a.format(tmp_path / "here") for a in argv]
        fresh = [a.format(tmp_path / "fresh") for a in argv]
        code, out, _ = run_cli(here)
        proc = subprocess.run([sys.executable, "-m", "flagorbits.cli", *fresh],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert (code, out) == (proc.returncode, proc.stdout), argv
    text = (tmp_path / "here.txt").read_text()
    assert text.startswith("case=III' nn=2,1 mm=1,1,1 count=13\n")
    assert text == (tmp_path / "fresh.txt").read_text()


def test_verbs_import_neither_dataclasses_nor_inspect(tmp_path):
    # the value classes are plain classes: importing dataclasses, and the
    # inspect it pulls in, would add about 21 ms to every process start;
    # numpy imports inspect, so after the oracle only dataclasses is
    # checked
    src = os.path.dirname(os.path.dirname(flagorbits.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text("m: 1,1,1 of n=3\n3 2 Q\n1 0\n1 1\n1 0\n")
    pair = ["--nn", "2,1", "--mm", "1,1,1"]
    verbs = [["enumerate", *pair], ["hasse", "--dot", *pair],
             ["signature", *pair, "--flag", str(flag_file)],
             ["normalize", *pair, "--flag", str(flag_file)]]
    script = ("import sys\n"
              "from flagorbits.cli import main\n"
              f"for argv in {verbs!r}:\n"
              "    assert main(argv) == 0, argv\n"
              "for name in ('dataclasses', 'inspect'):\n"
              "    assert name not in sys.modules, name + ' imported'\n"
              f"assert main(['oracle', *{pair!r}, '--q', '3']) == 0\n"
              "assert 'numpy' in sys.modules\n"
              "assert 'dataclasses' not in sys.modules, "
              "'dataclasses imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("case=III' nn=2,1 mm=1,1,1 count=13\n")
    assert "oracle-report nn=2,1 mm=1,1,1 q=3 ok=1" in proc.stdout


def test_signature_normalize_dimension(tmp_path):
    # the README flag, and the same flag with its columns scaled by 1/2
    # and 1/3
    texts = {"flag.txt": "m: 1,1,1 of n=3\n3 2 Q\n1 0\n1 1\n1 0\n",
             "scaled.txt": "m: 1,1,1 of n=3\n3 2 Q\n1/2 0\n1/2 1/3\n1/2 0\n"}
    for name, text in texts.items():
        flag_file = tmp_path / name
        flag_file.write_text(text)
        code, out, _ = run_cli(["signature", "--nn", "2,1", "--mm", "1,1,1",
                                "--flag", str(flag_file)])
        assert code == 0 and out.startswith("s=1 "), name
        code, out, _ = run_cli(["normalize", "--nn", "2,1", "--mm", "1,1,1",
                                "--flag", str(flag_file)])
        assert code == 0 and out.startswith("case=III'"), name
        code, out, _ = run_cli(["dimension", "--nn", "2,1", "--mm", "1,1,1",
                                "--flag", str(flag_file)])
        assert code == 0 and out.strip() == "3", name


def test_flag_verbs_on_a_finite_field_file(tmp_path):
    # the README flag written over F5: the ranks and the normal form are
    # those of the Q file, and orbit dimensions are refused
    readme_flag = "m: 1,1,1 of n=3\n3 2 {}\n1 0\n1 1\n1 0\n"
    args = {}
    for fld in ("Q", "F5"):
        flag_file = tmp_path / f"{fld}.txt"
        flag_file.write_text(readme_flag.format(fld))
        args[fld] = ["--nn", "2,1", "--mm", "1,1,1", "--flag", str(flag_file)]
    for verb in ("signature", "normalize"):
        expected = run_cli([verb] + args["Q"])
        assert expected[0] == 0 and expected[1]
        assert run_cli([verb] + args["F5"]) == expected
    code, out, err = run_cli(["dimension"] + args["F5"])
    _assert_one_line_error(code, out, err)


FLAG_VERBS = ["normalize", "signature", "dimension"]


def _assert_one_line_error(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("nn", ["2,,1", "2,", ",2"])
def test_empty_composition_field_is_usage_error(nn):
    _assert_one_line_error(*run_cli(["enumerate", "--nn", nn, "--mm", "3"]))


def test_composition_separators():
    expected = run_cli(["enumerate", "--nn", "2,1", "--mm", "1,2"])
    assert expected[0] == 0
    for nn in ["2, 1", "2 1"]:
        assert run_cli(["enumerate", "--nn", nn, "--mm", "1,2"]) == expected


@pytest.mark.parametrize("nn,mm,part", [
    ("1_0,1", "11", "1_0"), ("２,1", "3", "２"), ("1,1", "1.5", "1.5")])
def test_composition_part_of_another_form_names_it(nn, mm, part):
    # int() reads 1_0 as 10 and a full-width digit as the digit
    code, out, err = run_cli(["classify", "--nn", nn, "--mm", mm])
    _assert_one_line_error(code, out, err)
    assert repr(part) in err and "invalid literal for int()" not in err


@pytest.mark.parametrize("verb", FLAG_VERBS)
@pytest.mark.parametrize("header,names", [("m: 1,x of n=2", "'x'"),
                                          ("m: 1,1 of n=1_0", "'1_0'")])
def test_flag_header_with_a_bad_number_names_it(verb, header, names,
                                                tmp_path):
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text(header + "\n2 1 Q\n1\n0\n")
    code, out, err = run_cli([verb, "--nn", "1,1", "--mm", "1,1",
                              "--flag", str(flag_file)])
    _assert_one_line_error(code, out, err)
    assert names in err and "invalid literal for int()" not in err


@pytest.mark.parametrize("verb", FLAG_VERBS)
@pytest.mark.parametrize("text", [
    "", "\n  \n", "m: 1,1,1 of n=3\n3 2 Q\n1 0\n1/0 1\n1 0\n"])
def test_bad_flag_file_is_usage_error(verb, text, tmp_path):
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text(text)
    _assert_one_line_error(*run_cli([verb, "--nn", "2,1", "--mm", "1,1,1",
                                     "--flag", str(flag_file)]))


@pytest.mark.parametrize("verb", FLAG_VERBS)
def test_flag_file_with_a_negative_size_names_it(verb, tmp_path):
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text("m: 1,1 of n=2\n-1 -2 Q\n1 1\n")
    code, out, err = run_cli([verb, "--nn", "1,1", "--mm", "1,1",
                              "--flag", str(flag_file)])
    _assert_one_line_error(code, out, err)
    assert "negative size" in err and "-1 -2 Q" in err


@pytest.mark.parametrize("verb", FLAG_VERBS)
@pytest.mark.parametrize("header,size", [("0_2 1 Q", "0_2"),
                                         ("２ 1 Q", "２"),
                                         ("2 +1_0 Q", "+1_0")])
def test_flag_file_with_a_size_of_another_form_names_it(verb, header, size,
                                                        tmp_path):
    # int() reads 0_2 as 2 and a full-width digit as the digit
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text(f"m: 1,1 of n=2\n{header}\n1\n1\n")
    code, out, err = run_cli([verb, "--nn", "1,1", "--mm", "1,1",
                              "--flag", str(flag_file)])
    _assert_one_line_error(code, out, err)
    assert repr(size) in err and repr(header) in err


def test_flag_file_size_may_carry_a_plus_sign(tmp_path):
    runs = []
    for header in ("2 1 Q", "+2 +1 Q"):
        flag_file = tmp_path / "flag.txt"
        flag_file.write_text(f"m: 1,1 of n=2\n{header}\n1\n1\n")
        runs.append(run_cli(["signature", "--nn", "1,1", "--mm", "1,1",
                             "--flag", str(flag_file)]))
    assert runs[0][0] == 0 and runs[1] == runs[0]


_ORACLE = ["oracle", "--nn", "2,1", "--mm", "1,1,1"]


@pytest.mark.parametrize("argv", [
    ["count", "--mm", "1,1,1", "--n", "３"],
    _ORACLE + ["--q", "1_1"],
    _ORACLE + ["--q", "７"],
    _ORACLE + ["--q", " 7"],
    _ORACLE + ["--budget", "1_000"],
])
def test_integer_option_of_another_form_is_a_usage_error(argv):
    # int() reads 1_1 as 11 and a full-width digit as the digit; the
    # option fails as a word in its place does, with the same message
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    as_word = run_cli(argv[:-1] + ["x"])
    assert as_word[0] == 1
    assert err == as_word[2].replace("'x'", repr(argv[-1]))


def test_integer_options_take_a_sign():
    assert run_cli(["count", "--n", "+3", "--mm", "1,1,1"]) == \
        run_cli(["count", "--n", "3", "--mm", "1,1,1"])
    assert run_cli(_ORACLE + ["--q", "+2", "--budget", "+100"]) == \
        run_cli(_ORACLE + ["--q", "2", "--budget", "100"])
    code, out, err = run_cli(_ORACLE + ["--budget", "-1"])
    assert code == 1 and out == "" and "budget" in err


def test_flag_file_over_a_prime_field_with_a_fraction(tmp_path):
    # 1/2 is 3 in F5, so both files hold the same flag
    runs = []
    for entry in ("1/2", "3"):
        flag_file = tmp_path / "flag.txt"
        flag_file.write_text(f"m: 1,1 of n=2\n2 1 F5\n{entry}\n1\n")
        runs.append(run_cli(["signature", "--nn", "1,1", "--mm", "1,1",
                             "--flag", str(flag_file)]))
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1]


@pytest.mark.parametrize("verb", FLAG_VERBS)
@pytest.mark.parametrize("body,names", [
    ("2 1 F5\n1/5\n0\n", "'1/5'"),
    ("2 x Q\n1\n0\n", "'2 x Q'"),
    ("2 1 F\n1\n0\n", "'2 1 F'"),
    ("2 1 Fx\n1\n0\n", "'2 1 Fx'"),
])
def test_flag_file_with_a_bad_token_names_it(verb, body, names, tmp_path):
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text("m: 1,1 of n=2\n" + body)
    code, out, err = run_cli([verb, "--nn", "1,1", "--mm", "1,1",
                              "--flag", str(flag_file)])
    _assert_one_line_error(code, out, err)
    assert names in err and "invalid literal for int()" not in err


@pytest.mark.parametrize("verb", FLAG_VERBS)
@pytest.mark.parametrize("field,token", [("Q", "0.5"), ("Q", "1e0"),
                                         ("Q", "1_0"), ("F5", ".5")])
def test_flag_file_with_a_decimal_entry_names_it(verb, field, token,
                                                 tmp_path):
    # the README flag with one entry written in a form Fraction() reads
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text(f"m: 1,1,1 of n=3\n3 2 {field}\n1 0\n{token} 1\n"
                         f"1 0\n")
    code, out, err = run_cli([verb, "--nn", "2,1", "--mm", "1,1,1",
                              "--flag", str(flag_file)])
    _assert_one_line_error(code, out, err)
    assert f"{token!r} is not an integer or a fraction" in err


@pytest.mark.parametrize("verb", FLAG_VERBS)
@pytest.mark.parametrize("nn,mm", [("2,1", "2,1"), ("2,1", "1,1,1,1"),
                                   ("2,2", "1,2"), ("1,1", "1,2")])
def test_flag_verbs_check_the_pair(verb, nn, mm, tmp_path):
    # the flag has type 1,2 in 3-space
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text("m: 1,2 of n=3\n3 1 Q\n1\n1\n0\n")
    code, out, err = run_cli([verb, "--nn", nn, "--mm", mm,
                              "--flag", str(flag_file)])
    _assert_one_line_error(code, out, err)
    assert "--mm" in err or "--nn" in err
    code, out, _ = run_cli([verb, "--nn", "2,1", "--mm", "1,2",
                            "--flag", str(flag_file)])
    assert code == 0 and out


def test_oracle_verb_pass():
    code, out, _ = run_cli(["oracle", "--nn", "2,2", "--mm", "1,3", "--q", "2"])
    assert code == 0
    assert "ok=1" in out


def test_oracle_over_budget_is_usage_error():
    # (2,2)/(1,3) over GF(2) has 15 flags
    code, out, err = run_cli(["oracle", "--nn", "2,2", "--mm", "1,3",
                              "--q", "2", "--budget", "10"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_oracle_budget_checked_before_catalog(monkeypatch):
    import flagorbits.cli as cli

    def no_catalog(nn, mm):
        raise AssertionError("catalog built before the budget check")

    monkeypatch.setattr(cli, "enumerate_orbits", no_catalog)
    code, out, err = run_cli(["oracle", "--nn", "2,2", "--mm", "1,3",
                              "--q", "2", "--budget", "10"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("q", ["0", "1", "4", str(2**31)])
def test_oracle_bad_q_rejected_up_front(q, recwarn):
    code, out, err = run_cli(["oracle", "--nn", "2,2", "--mm", "1,3",
                              "--q", q])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err
    assert len(recwarn) == 0


class _ClosedPipe(io.StringIO):
    """A stdout whose reader took ``limit`` characters and closed the pipe;
    a flush fails too, as a buffered stdout's does once the pipe is gone."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def write(self, s):
        if self.tell() + len(s) > self.limit:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(s)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("limit", [0, 40, 10**6])
@pytest.mark.parametrize("argv", [
    ["counterexample", "--case", "Iprime", "--variant", "m3"],
    ["hasse", "--nn", "2,1", "--mm", "1,1,1", "--dot"]])
def test_reader_closing_the_pipe_ends_the_verb_quietly(argv, limit):
    # `flagorbits ... | head -2`: exit 0, no error line, and stdout closed
    # so that the interpreter's final flush has nothing left to write
    out, err = _ClosedPipe(limit), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old
    assert code == 0 and err.getvalue() == ""
    assert out.closed


# sha256 of each counterexample verb's stdout: any change to the witness
# flags, their signature listing or the verdict line shows here
_TRANSCRIPT_SHA256 = {
    "3,2/1,2,2":
        "b61ec69ec68221eb2464db1925ae6e03626dbcc73027031ddca72a252f860ba6",
    "3,2/2,2,1":
        "7ed0dbefbb7bcd79528e008f9686ca0f41ca461424aad46be4fd5e0380df9b52",
    "4,2/2,2,2":
        "78713a6afd8aecd46ddc113be1ed21fd3da9111b44c227fcdf3677e5ae50c3f2",
}


def test_counterexample_verb():
    # m3 is the dualized witness: its rows are the nested integer
    # annihilators of linalg.integer_dual, realized over Q
    for argv, nn, mm in [(["--case", "Iprime"], "3,2", "1,2,2"),
                         (["--case", "Iprime", "--variant", "m3"],
                          "3,2", "2,2,1"),
                         (["--case", "IIprime"], "4,2", "2,2,2")]:
        code, out, _ = run_cli(["counterexample"] + argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            _TRANSCRIPT_SHA256[f"{nn}/{mm}"]
        assert "signatures equal: 1" in out
        pair = counterexample_pair(Composition.parse(nn),
                                   Composition.parse(mm))
        d1, rest = out.split("flag D1:\n")[1].split("flag D2:\n")
        d2 = rest.split("signatures equal:")[0]
        assert parse_flag_literal(d1) == pair.d1
        assert parse_flag_literal(d2) == pair.d2


def test_oracle_validation_mismatch_exit_4(monkeypatch, tmp_path):
    # force a deliberate catalog/oracle disagreement through a tiny stub
    import flagorbits.cli as cli
    import flagorbits.oracle as oracle_mod
    from flagorbits.oracle import CheckResult, ValidationReport
    from flagorbits.flags import Composition

    def fake_cross_validate(part, cat, exhaustive=None):
        return ValidationReport(
            Composition.of(2, 2), Composition.of(1, 3), 2,
            (CheckResult("class-count", False, "forced"),))

    monkeypatch.setattr(oracle_mod, "cross_validate", fake_cross_validate)
    code, out, _ = run_cli(["oracle", "--nn", "2,2", "--mm", "1,3"])
    assert code == 4
    assert "status=fail" in out


# -- the whole argument surface ---------------------------------------------

FLAG_TEXTS = {
    "empty": "",
    "junk": "not a flag\n",
    "f2": "m: 1,1,1 of n=3\n3 2 F2\n1 0\n1 1\n1 0\n",
    "rank-deficient": "m: 1,1,1 of n=3\n3 2 Q\n1 1\n1 1\n0 0\n",
    "zero-denominator": "m: 1,1,1 of n=3\n3 2 Q\n1 0\n1/0 1\n1 0\n",
    "one-block": "m: 3 of n=3\n3 0 Q\n",
}


@pytest.fixture(scope="module")
def flag_paths(tmp_path_factory):
    """Every fixed ``--flag`` argument: the texts above, a missing path
    and a directory."""
    root = tmp_path_factory.mktemp("flags")
    paths = [str(root / "missing.txt"), str(root)]
    for name, text in FLAG_TEXTS.items():
        (root / name).write_text(text)
        paths.append(str(root / name))
    return paths


_JUNK = st.sampled_from(["", ",", "2,,1", "a", "1.5", "-"])
_PARTS = st.lists(st.integers(-1, 3), min_size=1, max_size=4)
# every composition of up to 4 parts in 1..3, by its sum; parts of at
# most 3 keep every reachable catalog at n <= 6
_BY_SUM: dict[int, list[str]] = {}
for _parts in itertools.chain.from_iterable(
        itertools.product(range(1, 4), repeat=k) for k in range(1, 5)):
    _BY_SUM.setdefault(sum(_parts), []).append(",".join(map(str, _parts)))


@st.composite
def _pair(draw, sums):
    """``--nn`` and ``--mm``: half the time two compositions of one n
    drawn from ``sums``, else each one drawn alone, parts in -1..3 or a
    malformed string."""
    if draw(st.booleans()):
        same_n = st.sampled_from(_BY_SUM[draw(sums)])
        return draw(same_n), draw(same_n)
    alone = _PARTS.map(lambda parts: ",".join(map(str, parts))) | _JUNK
    return draw(alone), draw(alone)


_SMALL_INTS = st.integers(-2, 13).map(str) | _JUNK

# the options each verb takes; the unknown verb borrows a few
_OPTIONS = {
    "classify": ("--nn", "--mm"),
    "normalize": ("--nn", "--mm", "--flag"),
    "signature": ("--nn", "--mm", "--flag"),
    "dimension": ("--nn", "--mm", "--flag"),
    "enumerate": ("--nn", "--mm"),
    "hasse": ("--nn", "--mm", "--dot"),
    "count": ("--n", "--mm"),
    "oracle": ("--nn", "--mm", "--q", "--budget"),
    "counterexample": ("--case", "--variant"),
    "no-such-verb": ("--nn", "--mm", "--q"),
}


@st.composite
def _argv(draw, flag_paths):
    """One argument list; ``--budget`` stays at most 20,000, so that no
    example enumerates a large variety."""
    verb = draw(st.sampled_from(sorted(_OPTIONS)))
    # every flag file declares n = 3, so a flag verb's pair agrees with it
    sums = st.just(3) if "--flag" in _OPTIONS[verb] else st.integers(1, 6)
    nn, mm = draw(_pair(sums))
    values = {
        "--nn": st.just(nn),
        "--mm": st.just(mm),
        "--n": _SMALL_INTS,
        "--q": _SMALL_INTS,
        "--budget": st.integers(-1, 20_000).map(str) | _JUNK,
        "--flag": st.sampled_from(flag_paths),
        "--case": st.sampled_from(["Iprime", "IIprime", "III"]),
        "--variant": st.sampled_from(["m1", "m3", "m2"]),
    }
    argv = [verb]
    for option in _OPTIONS[verb]:
        # each option is left out now and then, to reach argparse errors
        if draw(st.integers(0, 5)) == 0:
            continue
        argv.append(option)
        if option != "--dot":
            argv.append(draw(values[option]))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argument_list_ends_in_an_exit_code(flag_paths, data):
    """300 argument lists over every verb: ``main`` returns a documented
    exit code, raises nothing and prints no traceback."""
    code, out, err = run_cli(data.draw(_argv(flag_paths)))
    assert code in range(5)
    assert "Traceback" not in out + err
