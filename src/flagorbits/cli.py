"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 infinite pair, 3 non-injective
case where a catalog was requested, 4 validation mismatch.  A reader that
closes the pipe early (``| head``) ends a verb with exit 0 and nothing on
stderr: every verb has finished its work before it prints.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from functools import lru_cache

from .flags import Composition, Flag, parse_flag_literal
from .invariants import invariant_family, signature
from .linalg import _is_integer, gf
from .normalforms import (InfinitePairError, NonInjectiveError,
                          UnsupportedCaseError, classify_pair,
                          counterexample_pair, reduce_flag)
from .orbits import (catalog_to_text, count_multiplicity_free, emit_dot,
                     enumerate_orbits, orbit_dimension)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFINITE = 2
EXIT_NON_INJECTIVE = 3
EXIT_VALIDATION = 4


def _comp(text: str) -> Composition:
    return Composition.parse(text)


def _int(text: str) -> int:
    """An integer option: ASCII digits with an optional sign, where
    ``int`` alone also reads ``1_0`` and full-width digits."""
    if not _is_integer(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _read_flag(args) -> tuple[Composition, Flag]:
    """``--nn`` and the flag of ``--flag``, checked against the pair."""
    nn = _comp(args.nn)
    with open(args.flag) as fh:
        f = parse_flag_literal(fh.read())
    if _comp(args.mm).parts != f.typ.parts:
        raise ValueError(f"flag file type {f.typ} differs from --mm {args.mm}")
    if nn.n != f.n:
        raise ValueError(
            f"--nn {args.nn} sums to {nn.n}, the flag has n={f.n}")
    return nn, f


def _case_name(tag) -> str:
    if tag is None:
        return "infinite"
    name = tag.label
    if not tag.injective:
        name += " (non-injective)"
    return name


def cmd_classify(args) -> int:
    tag = classify_pair(_comp(args.nn), _comp(args.mm))
    print(_case_name(tag))
    return EXIT_OK


def cmd_normalize(args) -> int:
    nn, f = _read_flag(args)
    nf = reduce_flag(f, nn)
    print(nf.serialize())
    return EXIT_OK


def cmd_signature(args) -> int:
    nn, f = _read_flag(args)
    fam = invariant_family(nn, f.typ)
    print(signature(f, fam).serialize())
    return EXIT_OK


def cmd_enumerate(args) -> int:
    cat = enumerate_orbits(_comp(args.nn), _comp(args.mm))
    text = catalog_to_text(cat)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_count(args) -> int:
    print(count_multiplicity_free(args.n, _comp(args.mm)))
    return EXIT_OK


def cmd_hasse(args) -> int:
    cat = enumerate_orbits(_comp(args.nn), _comp(args.mm))
    if args.dot:
        sys.stdout.write(emit_dot(cat.covers, cat))
    else:
        for a, b in cat.covers:
            print(f"{a} < {b}")
    return EXIT_OK


def cmd_dimension(args) -> int:
    nn, f = _read_flag(args)
    print(orbit_dimension(f, nn))
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import (BudgetExceededError, check_budget, cross_validate,
                         oracle_partition)

    gf(args.q)  # a q that is not a prime below 2**31 fails before any work
    nn, mm = _comp(args.nn), _comp(args.mm)
    try:
        check_budget(nn.n, mm, args.q, args.budget)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cat = enumerate_orbits(nn, mm)
    part = oracle_partition(nn, mm, args.q, budget=args.budget)
    report = cross_validate(part, cat)
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.ok else EXIT_VALIDATION


_WITNESS_SHAPES = {
    ("Iprime", "m1"): ("3,2", "1,2,2"),
    ("Iprime", "m3"): ("3,2", "2,2,1"),
    ("IIprime", None): ("4,2", "2,2,2"),
}


def cmd_counterexample(args) -> int:
    key = (args.case, args.variant)
    if key not in _WITNESS_SHAPES and (args.case, None) in _WITNESS_SHAPES:
        key = (args.case, None)
    if key not in _WITNESS_SHAPES:
        print(f"unknown witness case {args.case}/{args.variant}",
              file=sys.stderr)
        return EXIT_USAGE
    nn, mm = (_comp(t) for t in _WITNESS_SHAPES[key])
    pair = counterexample_pair(nn, mm)
    fam = invariant_family(nn, mm)
    print(f"case {pair.case} nn={nn} mm={mm}")
    print("flag D1:")
    print(pair.d1.to_literal())
    print("flag D2:")
    print(pair.d2.to_literal())
    s1, s2 = signature(pair.d1, fam), signature(pair.d2, fam)
    print("signatures equal:", int(s1.values == s2.values))
    print(s1.serialize())
    print("orbits distinct over GF(2): 1 (transporter is empty)")
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` keeps
    no state in it, so ``main`` reuses it on every call."""
    top = argparse.ArgumentParser(
        prog="flagorbits",
        description="double coset orbits of a block Borel on flag varieties")
    sub = top.add_subparsers(dest="verb", required=True)

    def pair_args(p):
        p.add_argument("--nn", required=True, help="row blocks, e.g. 2,1")
        p.add_argument("--mm", required=True, help="column blocks, e.g. 1,1,1")

    p = sub.add_parser("classify", help="finiteness/separability row of a pair")
    pair_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("normalize", help="normal form of a flag")
    pair_args(p)
    p.add_argument("--flag", required=True, help="flag literal file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("signature", help="all invariant ranks of a flag")
    pair_args(p)
    p.add_argument("--flag", required=True)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("enumerate", help="full orbit catalog")
    pair_args(p)
    p.add_argument("--out", help="write the catalog to a file")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="closed-form orbit count, row blocks (n-1,1)")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--mm", required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("hasse", help="dominance candidate order")
    pair_args(p)
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("dimension", help="orbit dimension of a flag")
    pair_args(p)
    p.add_argument("--flag", required=True)
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("oracle", help="brute-force cross-validation over GF(q)")
    pair_args(p)
    p.add_argument("--q", type=_int, default=2)
    p.add_argument("--budget", type=_int, default=10**6)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("counterexample", help="equal-signature witness pair")
    p.add_argument("--case", required=True, choices=["Iprime", "IIprime"])
    p.add_argument("--variant", choices=["m1", "m3"], default="m1")
    p.set_defaults(func=cmd_counterexample)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # closing stdout drops its unwritten buffer, or the exit flush fails
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        return EXIT_OK
    except InfinitePairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFINITE
    except NonInjectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_INJECTIVE
    except (UnsupportedCaseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
