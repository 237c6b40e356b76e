"""Seeded benchmark inputs for catverify, each with its known answer.

Every input is an `.async`/`.cat` source text plus the CLI arguments that
query it. The answer is derived from how the input was built, never from
running catverify: trace counts from the scheduling tree, blamed clauses
from the planted mutation, subtype verdicts from the lattice order. The
`verify` workload is the exception; its answers come from the brute-force
adherence oracle (see `verdicts.py`).

A seed changes names, file names, literal values and where a mutation is
planted, but never the sizes or the kind of each input, so the work per
operation and therefore the timings stay comparable from seed to seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field


@dataclass
class Case:
    """One input of a workload: the files, the query and the known answer."""
    name: str          # unique in its workload and the same for every seed
    family: str
    shape: str
    size: str
    argv: list         # CLI arguments; file names are relative to the work dir
    files: dict        # file name -> text
    expect: dict = field(default_factory=dict)


FILE_NAMES = ("data", "log", "cfg", "out", "tmp", "idx", "db", "img")


def _file_name(rng):
    return f"{rng.choice(FILE_NAMES)}{rng.randint(0, 99)}.txt"


def _proc_names(rng, count, prefix):
    """Distinct procedure names; the seed picks the suffixes."""
    suffixes = rng.sample(range(100, 1000), count)
    return [f"{prefix}{s}" for s in suffixes]


TRIVIAL = "assume: ~; pre: [true]; internal: ~; post: [true]; continue: ~;"


# --- wide family: tree-shaped asynchronous fan-out ----------------------------

def _tree_size(tree):
    return 1 + sum(_tree_size(k) for k in tree)


def wide_program(rng, tree, closer_path=None):
    """A root that opens a file and fans out asynchronously along `tree`.

    `tree` is a list of child subtrees (each a list). Every node but the
    root reads or writes the file when it runs; the node at `closer_path` (a
    tuple of child indices) closes it instead. Returns the source and the
    procedure names in preorder.
    """
    fname = _file_name(rng)
    names = _proc_names(rng, _tree_size(tree), "n")
    procs = []
    counter = itertools.count()

    def emit(sub, path):
        name = names[next(counter)]
        kids = [emit(k, path + (i,)) for i, k in enumerate(sub)]
        if not path:
            op = "open(file)"
        elif path == closer_path:
            op = "close(file)"
        else:
            op = rng.choice(("write(file)", "read(file)"))
        calls = "".join(f" !{k}();" for k in kids)
        procs.append(f"{name}() {{ {op};{calls} return }}")
        return name

    root = emit(tree, ())
    procs.reverse()
    src = "\n".join(procs) + f'\n{{ file; file = "{fname}"; {root}() }}\n'
    return src, names


def wide_counts(tree, closer_path=None):
    """Trace count and file-violating trace count, from the tree alone.

    A scope's asynchronous children run in any order, each subtree as a
    block, so there are prod(k!) traces over the scopes' child counts k.
    Every node but the closer uses the file, so a trace is file-correct
    exactly when the closer runs last, that is when each node on its path
    is the last of its siblings: a 1/k share at each ancestor.
    """
    def count(sub):
        return math.factorial(len(sub)) * math.prod(count(k) for k in sub)

    total = count(tree)
    if closer_path is None:
        return total, 0
    correct, sub = total, tree
    for i in closer_path:
        correct //= len(sub)
        sub = sub[i]
    return total, total - correct


def _random_leaf_path(rng, tree):
    path, sub = (), tree
    while sub:
        i = rng.randrange(len(sub))
        path, sub = path + (i,), sub[i]
    return path


def flat(width):
    return [[] for _ in range(width)]


# --- deep family: self-recursion ---------------------------------------------

def deep_program(rng, n, violating):
    """`m` increments x, writes, and recurses while x < n: one trace of
    about 11n items. At a seeded depth k the violating variant closes the
    file (so the write at depth k+1 breaks file correctness); the correct
    variant reads it there instead."""
    fname = _file_name(rng)
    m = _proc_names(rng, 1, "r")[0]
    k = rng.randint(n // 4, 3 * n // 4)
    op = "close" if violating else "read"
    src = (f'{m}() {{ x = x + 1; write("{fname}"); '
           f'if (x == {k}) {{ {op}("{fname}") }}; '
           f'if (x < {n}) {{ {m}() }}; return }}\n'
           f'{{ x; open("{fname}"); {m}() }}\n')
    return src, fname, m


# --- enumerate --------------------------------------------------------------

NESTED_A = [[[], [], []], [[], [], []]]          # 2! * 3! * 3! = 72 traces
NESTED_B = [[[], []], [[], []], [[], []]]        # 3! * 2!^3   = 48 traces


# One cycle of the `enumerate` workload, in run order. By cost the inputs
# rank: W=4 (4), 3x2 (2), then 2x3 and W=5 (3), N=100 (3), N=150, W=6, N=250.
# p50 thus falls in the middle of the 2x3/W=5 group and p90 on W=6, whatever
# the seed, since the seed never changes a size.
ENUMERATE = (
    ("flat", "W=4", flat(4), False), ("deep", "N=100", 100, False),
    ("flat", "W=4", flat(4), True), ("nested", "3x2", NESTED_B, False),
    ("flat", "W=5", flat(5), False), ("deep", "N=150", 150, True),
    ("nested", "2x3", NESTED_A, True), ("flat", "W=4", flat(4), False),
    ("deep", "N=250", 250, False), ("flat", "W=5", flat(5), True),
    ("nested", "3x2", NESTED_B, True), ("flat", "W=6", flat(6), True),
    ("flat", "W=4", flat(4), True), ("deep", "N=100", 100, True),
    ("deep", "N=100", 100, False),
)
ENUMERATE_SMOKE = (("flat", "W=3", flat(3), True), ("deep", "N=5", 5, True))


def enumerate_cases(rng, smoke=False):
    """`run` on wide and deep programs, file-correct and file-violating.

    Known answers: the trace count and the number of file-violating traces
    (see `wide_counts`); a deep program has one trace, violating exactly
    when the file is closed before the recursion ends.
    """
    cases = []
    for i, (shape, size, arg, violating) in enumerate(
            ENUMERATE_SMOKE if smoke else ENUMERATE):
        tag = "violating" if violating else "correct"
        if shape == "deep":
            src, _, _ = deep_program(rng, arg, violating)
            family, shape, counts = "deep", "recursion", (1, int(violating))
        else:
            closer = _random_leaf_path(rng, arg) if violating else None
            src, _ = wide_program(rng, arg, closer)
            family, counts = "wide", wide_counts(arg, closer)
        cases.append(Case(
            f"{i:02d}-{family}-{shape}-{size}-{tag}", family, shape, size,
            ["run", "prog.async"], {"prog.async": src},
            {"command": "run", "trace_count": counts[0],
             "violating": counts[1]}))
    return cases


# --- adhere -----------------------------------------------------------------

def _wide_contracts(root, kids, mutated=None):
    """Root opens the file and never closes it; each child uses it while it
    is open. The mutated child also demands a later close (post-trace)."""
    out = [f"contract init {{ {TRIVIAL} }}",
           f"contract {root} {{ assume: ~ obs file as f . ~[open(f)]; "
           f"pre: [true] obs(file as f); internal: open(f) ~[close(f)]; "
           f"post: [true]; continue: ~; }}"]
    for k in kids:
        cont = "~ close(f) ~" if k == mutated else "~"
        out.append(f"contract {k} {{ assume: ~ obs file as f . "
                   f"(open(f) ~[close(f)]); pre: [true] obs(file as f); "
                   f"internal: ~[close(f)]; post: [true]; continue: {cont}; }}")
    return "\n".join(out) + "\n"


def _deep_contracts(m, fname, limit):
    """The recursion runs with the file open; the boundary predicate bounds
    the depth counter x observed at activation by `limit`."""
    return (f"contract init {{ {TRIVIAL} }}\n"
            f'contract {m} {{ assume: ~ open("{fname}") ~[close("{fname}")]; '
            f"pre: [y < {limit}] obs(x as y); "
            f'internal: ~[close("{fname}")]; post: [true]; continue: ~; }}\n')


# One cycle of the `adhere` workload: (shape, size, mutated). Most inputs
# are small so that a run holds enough samples. By cost they rank: N=5,
# N=6 and N=5 mutated (6), N=6 mutated (3), W=3, N=8, N=7 mutated, W=3
# mutated, N=9 mutated, N=12; p50 falls in the middle of the N=6 mutated
# group and p90 on N=9 mutated. (Wide W=4 takes 1.5 s per operation,
# half a cycle, so the wide shape stays at W=3 here.)
ADHERE = (
    ("flat", 3, False), ("deep", 5, False), ("deep", 6, True),
    ("deep", 12, False), ("deep", 6, False), ("deep", 5, True),
    ("deep", 7, True), ("deep", 6, True), ("flat", 3, True),
    ("deep", 6, False), ("deep", 5, False), ("deep", 9, True),
    ("deep", 6, True), ("deep", 5, True), ("deep", 8, False),
)
ADHERE_SMOKE = (("flat", 3, True), ("deep", 5, True))


def adhere_cases(rng, smoke=False):
    """`adhere` on small wide and deep programs, with planted mutations.

    Wide mutation: one child's post-trace demands a close that never comes,
    so that child fails at the post-trace on every trace. Deep mutation: the
    boundary predicate admits two levels fewer than the recursion reaches,
    so exactly the two deepest call ids fail at the boundary predicate.
    """
    cases = []
    argv = ["adhere", "--program", "prog.async", "--contracts", "prog.cat"]
    for i, (shape, size, mutated) in enumerate(
            ADHERE_SMOKE if smoke else ADHERE):
        tag = "mutated" if mutated else "correct"
        if shape == "flat":
            src, names = wide_program(rng, flat(size))
            root, kids = names[0], names[1:]
            bad = rng.choice(kids) if mutated else None
            cat = _wide_contracts(root, kids, bad)
            failing = {bad: {"post-trace": math.factorial(size)}} if mutated else {}
            family, label = "wide", f"W={size}"
        else:
            src, fname, m = deep_program(rng, size, violating=False)
            cat = _deep_contracts(m, fname, size - 2 if mutated else size)
            failing = {m: {"boundary-pred": 2}} if mutated else {}
            family, shape, label = "deep", "recursion", f"N={size}"
        cases.append(Case(
            f"{i:02d}-{family}-{shape}-{label}-{tag}", family, shape, label,
            argv, {"prog.async": src, "prog.cat": cat},
            {"command": "adhere", "correct": not mutated, "failing": failing}))
    return cases


# --- verify -----------------------------------------------------------------

CASE_STUDY_CONTRACTS = """\
contract init { assume: ~; pre: [true]; internal: ~; post: [true]; continue: ~; }
contract do {
  assume: ~ obs file as f . ~[open(f)];
  pre: [true] obs(file as f);
  internal: ~ close(f) ~;
  post: [true];
  continue: ~;
}
contract closeF {
  assume: ~ obs file as f . (open(f) ~[close(f)]);
  pre: [true] obs(file as f);
  internal: close(f) ~[open(f)];
  post: [true];
  continue: ~;
}
contract operate {
  assume: ~ obs file as f . (open(f) ~[close(f)]);
  pre: [true] obs(file as f);
  internal: write(f) ~[close(f)];
  post: [true];
  continue: ~ close(f) ~;
}
"""

# closeF may do anything: the abstract proof of `do` can then no longer show
# that the file gets closed, and stays open at its final post obligation only
WEAK_CLOSE = CASE_STUDY_CONTRACTS.replace(
    "internal: close(f) ~[open(f)];", "internal: ~;")


def case_study_program(files):
    """The file-handling case study with one do() call per file name."""
    calls = " ".join(f'file = "{f}"; do();' for f in files)
    return ("do() { open(file); !closeF(); operate(); return; }\n"
            "operate() { write(file); return; }\n"
            "closeF() { close(file); return; }\n"
            f"{{ file; {calls} }}\n")


GEN_VARS = ("x", "y")


def gen_program(shape_rng, rng, procs, stmts, file_safe):
    """A random terminating program in the style of `catverify.gen`: calls
    only target later procedures, so the call graph is acyclic. `shape_rng`
    draws the statements, `rng` (the benchmark seed) the procedure and file
    names. A `file_safe` body opens a file before its first other use.
    Returns the source, the procedure names and, per procedure, the files
    it uses before opening them itself."""
    files = [f"f{i}{rng.randint(0, 99)}" for i in range(2)]
    names = _proc_names(rng, procs, "p")
    pick = shape_rng

    def body(callees, count):
        out, opened, needs = [], set(), set()
        for _ in range(count):
            r = pick.random()
            if r < 0.25:
                v = pick.choice(GEN_VARS)
                out.append(f"{v} = {pick.choice(GEN_VARS)} + {pick.randint(0, 2)}")
            elif r < 0.5 and callees:
                c = pick.choice(callees)
                out.append(f"{c}()" if pick.random() < 0.5 else f"!{c}()")
            elif r < 0.8:
                f = pick.choice(files)
                op = pick.choice(("open", "close", "read", "write"))
                if file_safe and f not in opened:
                    op = "open"
                if op == "open":
                    opened.add(f)
                elif f not in opened:
                    needs.add(f)
                out.append(f'{op}("{f}")')
            else:
                g = f"{pick.choice(GEN_VARS)} {pick.choice('<>')} {pick.randint(0, 2)}"
                f = pick.choice(files)
                if file_safe and f not in opened:
                    out.append(f'open("{f}")')
                    opened.add(f)
                if f not in opened:
                    needs.add(f)
                out.append(f'if ({g}) {{ write("{f}") }}')
        return out, needs

    procs_src, needs = [], {}
    for i, name in enumerate(names):
        stmts_i, needs[name] = body(names[i + 1:], stmts)
        procs_src.append(f"{name}() {{ {'; '.join(stmts_i + ['return'])} }}")
    init, _ = body(names, stmts)
    src = ("\n".join(procs_src)
           + f"\n{{ {' '.join(v + ';' for v in GEN_VARS)} {'; '.join(init)} }}\n")
    return src, names, needs


def gen_contracts(shape_rng, names, needs):
    """Trivial contracts, except that a procedure may assume the files it
    uses before opening them were opened and not closed."""
    out = [f"contract init {{ {TRIVIAL} }}"]
    for n in names:
        if needs[n] and shape_rng.random() < 0.6:
            pre = " ".join(f'open("{f}") ~[close("{f}")]' for f in sorted(needs[n]))
            out.append(f"contract {n} {{ assume: ~ {pre}; pre: [true]; "
                       f"internal: ~; post: [true]; continue: ~; }}")
        else:
            out.append(f"contract {n} {{ {TRIVIAL} }}")
    return "\n".join(out) + "\n"


# One cycle of the `verify` workload: (input, mode, cross-check). "gen-k"
# is generated program shape k (file-safe for odd k): its statements are
# fixed, the seed only renames, so its cost does not depend on the seed.
# By cost: five generated programs and the weakened closeF abstract (6),
# the case study and the concrete weakened closeF (3), gen-2, the three
# cross-checks, the 3-file case study concrete and abstract. p50 falls in
# the middle of the case-study group, p90 on the 3-file concrete.
VERIFY = (
    ("casestudy", "abstract", False), ("gen-0", "abstract", False),
    ("weakclose", "concrete", False), ("scaled3", "abstract", False),
    ("gen-1", "abstract", False), ("casestudy", "concrete", True),
    ("gen-2", "abstract", False), ("casestudy", "abstract", True),
    ("weakclose", "abstract", False), ("gen-3", "abstract", False),
    ("scaled3", "concrete", False), ("gen-4", "abstract", False),
    ("casestudy", "concrete", False), ("weakclose", "concrete", True),
    ("gen-5", "abstract", False),
)
VERIFY_SMOKE = (("casestudy", "abstract", False),
                ("weakclose", "abstract", False),
                ("casestudy", "abstract", True), ("gen-0", "abstract", False))


def verify_cases(rng, smoke=False):
    """`verify` on the case study, its weakened-closeF mutation, scaled
    case-study variants, and generated programs with generated contracts.

    Known answers: the case study is accepted in both modes; with the
    weakened closeF the abstract proof is open exactly at PostObligation.
    Every acceptance must also agree with the adherence oracle, which the
    run computes before timing (see `verdicts.oracle_answers`).
    """
    study = case_study_program(["file1.txt", "file2.txt"])
    scaled = case_study_program(
        [f"{n}{rng.randint(0, 99)}.txt" for n in rng.sample(FILE_NAMES, 3)])
    cases = []
    for i, (kind, mode, cross) in enumerate(VERIFY_SMOKE if smoke else VERIFY):
        argv = ["verify", "--program", "prog.async", "--contracts", "prog.cat",
                "--discharge", mode] + (["--cross-check"] if cross else [])
        expect = {"command": "verify", "cross_check": cross}
        family, shape, size = "casestudy", "files", "calls=2"
        if kind == "casestudy":
            src, cat = study, CASE_STUDY_CONTRACTS
            expect["accepted"] = True
        elif kind == "weakclose":
            src, cat, family = study, WEAK_CLOSE, "mutation"
            if mode == "abstract":
                expect.update(accepted=False, open_rules=["PostObligation"])
        elif kind == "scaled3":
            src, cat, size = scaled, CASE_STUDY_CONTRACTS, "calls=3"
            expect["accepted"] = True
        else:
            shape_rng = random.Random(kind)
            src, names, needs = gen_program(shape_rng, rng, procs=3, stmts=4,
                                            file_safe=int(kind[-1]) % 2 == 1)
            cat = gen_contracts(shape_rng, names, needs)
            family, shape, size = "gen", kind, "procs=3"
        name = f"{i:02d}-{kind}-{mode}" + ("-crosscheck" if cross else "")
        cases.append(Case(name, family, shape, size, argv,
                          {"prog.async": src, "prog.cat": cat}, expect))
    return cases


# --- subtype ----------------------------------------------------------------

# continue clauses in inclusion order: each language contains the previous one
POSTS = ("~ close({f}) ~[open({f})]", "~ close({f}) ~", "~")


def lattice_contract(name, point, fterm, events):
    """A file-protocol contract at lattice point (threshold, excluded, post).

    Generality (c1 >= c2, conditions L1..L3): L1 needs c1's threshold to be
    at least c2's, L2 c1's excluded-event set to be a subset of c2's, and
    L3 c1's continue clause to be included in c2's.
    """
    t, excluded, post = point
    excl = ", ".join(events[e] for e in sorted(excluded))
    internal = f"~[{excl}]" if excl else "~"
    if fterm == "f":
        assume, binders = "~ obs file as f . (open(f) ~[close(f)])", "file as f, "
    else:
        assume, binders = f"~ open({fterm}) ~[close({fterm})]", ""
    return (f"contract {name} {{ assume: {assume}; "
            f"pre: [y > {t}] obs({binders}x as y); internal: {internal}; "
            f"post: [true]; continue: {POSTS[post].format(f=fterm)}; }}\n")


def more_general(p1, p2):
    """(status, failed condition) for "p1 >= p2", from the lattice order."""
    if not p1[0] >= p2[0]:
        return "disproved", "L1"
    if not p1[1] <= p2[1]:
        return "disproved", "L2"
    if not p1[2] <= p2[2]:
        return "disproved", "L3"
    return "proved", None


def maximal(points):
    """Indices of the points no other point is strictly more general than."""
    keep = []
    for i, p in enumerate(points):
        if not any(more_general(q, p)[0] == "proved"
                   and more_general(p, q)[0] != "proved"
                   for j, q in enumerate(points) if j != i):
            keep.append(i)
    return keep


def _lattice_alphabet(rng, binder):
    """The file term (the binder f, or a literal) and the distinct event
    patterns that excluded sets draw from."""
    f = "f" if binder else f'"{_file_name(rng)}"'
    return f, [f"close({f})", f"write({f})", f'read("aux{rng.randint(0, 99)}")']


def _pair_for(rng, slot):
    """Two lattice points whose order makes `slot` the expected verdict:
    "proved", or the condition (L1, L2, L3) that fails first."""
    t = rng.randint(0, 5)
    base_ex = frozenset(rng.sample(range(3), 1))
    more_ex = base_ex | {rng.choice([e for e in range(3) if e not in base_ex])}
    if slot == "proved":
        return (t + 2, base_ex, 0), (t, more_ex, 1)
    if slot == "L1":
        return (t, base_ex, 0), (t + 2, more_ex, 1)
    if slot == "L2":
        return (t + 2, more_ex, 0), (t, base_ex, 1)
    return (t + 2, base_ex, 2), (t, more_ex, 1)


# Groups for `max-contracts`: points (threshold level, excluded set, post),
# with the seed choosing the two threshold values and the file names.
GROUPS = (
    ((1, (0,), 0), (0, (0, 1), 2), (1, (), 2), (0, (0,), 0)),
    ((0, (), 0), (1, (0, 1), 0), (1, (0,), 2), (0, (0, 1), 2), (1, (), 0)),
    ((1, (), 0), (0, (0,), 0), (0, (0, 1), 2), (1, (0,), 2), (0, (), 2)),
)

# One cycle of the `subtype` workload: ("pair", slot, binder) or
# ("group", index, binder). p50 falls among the L2/L3 pairs, p90 on a group.
SUBTYPE = (
    ("pair", "proved", True), ("pair", "L1", False), ("pair", "L2", True),
    ("group", 0, True), ("pair", "L3", False), ("pair", "proved", False),
    ("pair", "L1", True), ("group", 1, False), ("pair", "L2", False),
    ("pair", "L3", True), ("pair", "proved", True), ("group", 2, True),
    ("pair", "L1", False), ("pair", "L2", True), ("pair", "L3", False),
)
SUBTYPE_SMOKE = (("pair", "proved", True), ("pair", "L2", False),
                 ("group", 0, True))


def subtype_cases(rng, smoke=False):
    """`subtype` on planted pairs and `max-contracts` on lattice groups, in
    both binder styles (`obs file as f`, or a literal file name). The known
    answers follow from the lattice order (`more_general`, `maximal`). No
    program is explored."""
    cases = []
    for i, (kind, which, binder) in enumerate(
            SUBTYPE_SMOKE if smoke else SUBTYPE):
        style = "obs" if binder else "literal"
        fterm, events = _lattice_alphabet(rng, binder)
        if kind == "pair":
            g, s = _pair_for(rng, which)
            cat = (lattice_contract("general", g, fterm, events)
                   + lattice_contract("specific", s, fterm, events))
            status, failed = more_general(g, s)
            cases.append(Case(
                f"{i:02d}-pair-{style}-{which}", "lattice", style, "pair",
                ["subtype", "lat.cat", "general", "specific"], {"lat.cat": cat},
                {"command": "subtype", "status": status,
                 "failed_condition": failed}))
            continue
        # levels three apart, so that the integers the inclusion check
        # samples around them never overlap and its work is the same
        low = rng.randint(0, 4)
        levels = (low, low + 3)
        points = [(levels[t], frozenset(ex), post)
                  for t, ex, post in GROUPS[which]]
        name = _proc_names(rng, 1, "c")[0]
        cat = "".join(lattice_contract(name, p, fterm, events) for p in points)
        cases.append(Case(
            f"{i:02d}-group{which}-{style}", "lattice", style,
            f"n={len(points)}", ["max-contracts", "lat.cat"], {"lat.cat": cat},
            {"command": "max-contracts", "maximal": {name: maximal(points)}}))
    return cases


WORKLOADS = {
    "enumerate": enumerate_cases,
    "adhere": adhere_cases,
    "verify": verify_cases,
    "subtype": subtype_cases,
}


def make_cases(workload, seed, smoke=False):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), smoke)
