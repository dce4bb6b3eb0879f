"""The four workloads: inputs made from the seed, and checks on the outputs.

Each workload is a list of operations that a worker runs in one fresh
process (a round), plus the check the parent applies to each operation's
output.  Every check compares the program's output with an independent
reference from ``reference.py`` or with a property the method must have;
none compares it with a stored copy of an earlier output.  Pairs are
written nn/mm: row blocks of B', column blocks of P.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

import reference as ref

# Rounds are kept to a few seconds, so that a run has five or more of
# them: a shared machine's speed changes from one round to the next, and
# a figure over many rounds is steadier than one over three.

# Signature-lookup pairs: over-generated 0/1 candidates, deduplicated by
# signature.  (2,2,2)/(2,4) (case II) emits 3,906 candidates for 172
# orbits; (3,2)/(1,1,3) is case I' with a middle block of size 1.  With
# two operations the median is their mean.  With a third, short one it
# was that operation alone, and a short operation's time moves by up to
# half with the machine's speed from round to round.
CATALOG_PAIRS = [((2, 2, 2), (2, 4)), ((3, 2), (1, 1, 3))]

# A constructive III' pair, enumerate then hasse --dot in one process.
# Its 330 orbits are under the 400-entry eager-cover limit, so the hasse
# verb builds the catalog again and computes the diagram twice.
POSET_PAIRS = [((1, 5), (2, 2, 2))]

# (nn, mm, q): 62,920 flags at q = 3; 20,306 flags at q = 5, small enough
# for the exhaustive level-set check; a case-0 pair at q = 7.
ORACLE_RUNS = [((4, 1), (1, 1, 2, 1), 3), ((2, 1, 2), (3, 2), 5),
               ((3, 3), (1, 5), 7)]

# One pair per reducer kind: case 0, III' in both orientations, and the
# two catalog-lookup cases, whose first lookup builds the catalog.
QUERY_PAIRS = [((3, 3), (2, 4)), ((5, 1), (1, 1, 2, 2)),
               ((1, 5), (2, 1, 1, 2)), ((2, 1, 2), (3, 2)),
               ((3, 2), (1, 1, 3))]
LOOKUP_PAIRS = QUERY_PAIRS[3:]
QUERIES_PER_PAIR = 24  # seeded flags per pair, each queried with a translate


def _csv(parts) -> str:
    return ",".join(map(str, parts))


def _pair(nn, mm) -> str:
    return f"{_csv(nn)}/{_csv(mm)}"


def _is_hook(nn) -> bool:
    return len(nn) == 2 and min(nn) == 1


@dataclass
class Workload:
    ops: list            # JSON-ready operations, the same in every round
    labels: list         # one readable label per operation
    check: Callable      # (op index, outputs of one round) -> reason or None
    warmup: list         # untimed calls the program itself needs first


def build(name: str, seed: int) -> Workload:
    """The workload's operations and checks.  Only ``query`` draws its
    inputs from the seed; the other three run a fixed ladder of pairs in
    a fixed order, so that no seed moves a one-off cost (such as the
    oracle's numpy import) onto another operation."""
    if name == "query":
        return _query(random.Random(seed))
    builders = {"catalog": _catalog, "poset": _poset, "oracle": _oracle}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose one of "
                         f"{', '.join(builders)}, query")
    return builders[name]()


def _cli(argv) -> dict:
    return {"kind": "cli", "argv": argv}


# The exit code of a verb that ran to its end but found its own result
# inconsistent (``cli.EXIT_VALIDATION``: an oracle report with ok=0).
EXIT_VALIDATION = 4


def ran_to_end(out) -> bool:
    """Whether the operation produced its output: it did not raise, and it
    exited 0 or with EXIT_VALIDATION.  A failed check on such an operation
    is a wrong output; any other failure is an operation that failed."""
    return "error" not in out and out.get("rc", 0) in (0, EXIT_VALIDATION)


def _cli_failure(out) -> Optional[str]:
    if "error" in out:
        return f"raised {out['error']}"
    if out["rc"] != 0:
        return f"exit code {out['rc']}: {out['err'].strip()[-200:]}"
    return None


# -- catalog text and DOT ------------------------------------------------------


def parse_catalog(text: str):
    """(header fields, [(dim, closed, sig hash)], [(lower, upper)])."""
    lines = text.splitlines()
    head = dict(tok.split("=", 1) for tok in lines[0].split())
    entries, covers = [], []
    for line in lines[1:]:
        tokens = line.split()
        if tokens[0] == "entry":
            if int(tokens[1]) != len(entries):
                raise ValueError(f"entry out of order: {line}")
            fields = dict(t.split("=", 1) for t in tokens[2:5])
            entries.append((int(fields["dim"]), int(fields["closed"]),
                            fields["sig"]))
        elif tokens[0] == "cover":
            covers.append((int(tokens[1]), int(tokens[2])))
    return head, entries, covers


def check_catalog(text: str, nn, mm, expected_count: int) -> Optional[str]:
    head, entries, covers = parse_catalog(text)
    top = ref.dim_flag_variety(mm)
    dims = [d for d, _, _ in entries]
    closed = [c for _, c, _ in entries]
    if int(head["count"]) != len(entries):
        return f"header count {head['count']} != {len(entries)} entries"
    if len(entries) != expected_count:
        return f"{len(entries)} orbits, reference count {expected_count}"
    if len({h for _, _, h in entries}) != len(entries):
        return "signature hashes are not pairwise distinct"
    if dims.count(top) != 1 or max(dims) != top:
        return f"need exactly one orbit of top dimension {top}"
    if any((c == 1) != (d == 0) for d, c, _ in entries):
        return "closed=1 does not coincide with dim=0"
    if sum(closed) != ref.fixed_point_count(nn, mm):
        return (f"{sum(closed)} closed orbits, "
                f"{ref.fixed_point_count(nn, mm)} fixed points")
    if any(dims[a] >= dims[b] for a, b in covers):
        return "a cover does not raise the dimension"
    return None


_DOT_NODE = re.compile(r'^\s*n(\d+) \[label="dim=(\d+) ')
_DOT_EDGE = re.compile(r"^\s*n(\d+) -> n(\d+);$")


def check_hasse(dot: str, catalog_text: str, mm) -> Optional[str]:
    """The DOT diagram against the same pair's catalog output."""
    _, entries, covers = parse_catalog(catalog_text)
    nodes, edges = {}, []
    for line in dot.splitlines():
        m = _DOT_NODE.match(line)
        if m:
            nodes[int(m.group(1))] = int(m.group(2))
        m = _DOT_EDGE.match(line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2))))
    if nodes != {i: d for i, (d, _, _) in enumerate(entries)}:
        return "DOT nodes and dimensions differ from the catalog entries"
    if sorted(edges) != sorted(covers):
        return "DOT edges differ from the catalog's covers"
    if any(nodes[a] >= nodes[b] for a, b in edges):
        return "a cover does not raise the dimension"
    maximal = set(nodes) - {a for a, _ in edges}
    minimal = set(nodes) - {b for _, b in edges}
    if len(maximal) != 1 or nodes[maximal.pop()] != ref.dim_flag_variety(mm):
        return "the diagram needs one maximal node, the open orbit"
    if any(entries[i][1] != 1 for i in minimal):
        return "a minimal node is not a closed orbit"
    return None


# -- workloads -------------------------------------------------------------------


def _catalog() -> Workload:
    pairs = CATALOG_PAIRS
    counts = {p: ref.gf2_orbit_count(*p) for p in pairs}

    def check(i, outputs):
        nn, mm = pairs[i]
        return _cli_failure(outputs[i]) or \
            check_catalog(outputs[i]["out"], nn, mm, counts[(nn, mm)])

    return Workload(
        [_cli(["enumerate", "--nn", _csv(nn), "--mm", _csv(mm)])
         for nn, mm in pairs],
        [f"enumerate {_pair(nn, mm)}" for nn, mm in pairs], check, [])


def _poset() -> Workload:
    pairs = POSET_PAIRS
    ops, labels = [], []
    for nn, mm in pairs:
        args = ["--nn", _csv(nn), "--mm", _csv(mm)]
        ops += [_cli(["enumerate"] + args), _cli(["hasse", "--dot"] + args)]
        labels += [f"enumerate {_pair(nn, mm)}", f"hasse {_pair(nn, mm)}"]

    def check(i, outputs):
        nn, mm = pairs[i // 2]
        enum = outputs[i - i % 2]
        if i % 2 == 0:
            return _cli_failure(enum) or check_catalog(
                enum["out"], nn, mm, ref.hook_orbit_count(mm))
        # without the pair's catalog the diagram cannot be checked
        hasse = outputs[i]
        return _cli_failure(hasse) or (
            None if _cli_failure(enum)
            else check_hasse(hasse["out"], enum["out"], mm))

    return Workload(ops, labels, check, [])


def _class_count(report: str) -> int:
    m = re.search(r"^check=class-count status=\w+ detail=oracle=(\d+) ",
                  report, re.M)
    if not m:
        raise ValueError("report has no class-count line")
    return int(m.group(1))


def _oracle() -> Workload:
    runs = ORACLE_RUNS
    counts = {(nn, mm): ref.gf2_orbit_count(nn, mm) for nn, mm, _ in runs}

    def check(i, outputs) -> Optional[str]:
        nn, mm, q = runs[i]
        out = outputs[i]
        if not ran_to_end(out):
            return _cli_failure(out)
        # a report printed with EXIT_VALIDATION reads ok=0
        report = out["out"]
        if not report.startswith("oracle-report ") or \
                "ok=1" not in report.splitlines()[0].split():
            return "oracle report is not ok=1"
        classes = _class_count(report)
        if classes != counts[(nn, mm)]:
            return f"{classes} classes, GF(2) reference count {counts[(nn, mm)]}"
        if _is_hook(nn) and classes != ref.hook_orbit_count(mm):
            return f"{classes} classes, formula {ref.hook_orbit_count(mm)}"
        # traced rounds also see each partition the verb built
        for probe in out.get("probes", []):
            if probe["size"] != ref.flag_count(mm, q):
                return f"{probe['size']} flags, expected {ref.flag_count(mm, q)}"
            if sum(probe["class_sizes"]) != probe["size"] or \
                    len(probe["class_sizes"]) != classes:
                return "partition sizes do not add up"
            order = ref.borel_order(nn, q)
            if any(order % size for size in probe["class_sizes"]):
                return f"a class size does not divide |B'(GF({q}))| = {order}"
        return _cli_failure(out)

    return Workload(
        [_cli(["oracle", "--nn", _csv(nn), "--mm", _csv(mm), "--q", str(q)])
         for nn, mm, q in runs],
        [f"oracle {_pair(nn, mm)} q={q}" for nn, mm, q in runs], check, [])


def _query(rng: random.Random) -> Workload:
    ops, labels, expect = [], [], []
    for nn, mm in QUERY_PAIRS:
        maps = ref.invariant_rank_maps(nn, mm)
        for k in range(QUERIES_PER_PAIR):
            base = ref.sparse_flag(mm, rng)
            moved = ref.translate(base, nn, mm, rng)
            for kind, mat in (("flag", base), ("translate", moved)):
                ops.append({"kind": "query", "nn": list(nn),
                            "literal": ref.flag_literal(mat, mm)})
                labels.append(f"query {_pair(nn, mm)} {kind} {k}")
                expect.append((nn, mm, ref.signature_ranks(mat, mm, maps)))

    def check(i, outputs) -> Optional[str]:
        out = outputs[i]
        if "error" in out:
            return f"raised {out['error']}"
        nn, mm, ranks = expect[i]
        got = {(s, tuple(J)): v for s, J, v in out["sig"]}
        if got != ranks:
            return "signature differs from the reference Bareiss ranks"
        if not 0 <= out["dim"] <= ref.dim_flag_variety(mm):
            return f"dimension {out['dim']} out of range"
        base = outputs[i - 1]
        if i % 2 and "error" not in base and \
                (out["nf"], out["dim"]) != (base["nf"], base["dim"]):
            return "a B' x P translate changed the normal form or dimension"
        return None

    # the first lookup on a catalog-backed pair builds its catalog; a
    # coordinate flag, the same for every seed, pays for it before timing
    warmup = []
    for nn, mm in LOOKUP_PAIRS:
        n, stored = sum(mm), sum(mm) - mm[-1]
        eye = [[1 if i == j else 0 for j in range(stored)] for i in range(n)]
        warmup.append({"kind": "query", "nn": list(nn),
                       "literal": ref.flag_literal(eye, mm)})
    return Workload(ops, labels, check, warmup)
