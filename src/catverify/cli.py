"""Command-line interface.

Subcommands: parse | run | calltree | check-member | adhere | verify |
subtype | max-contracts. Exit codes: 0 ok, 1 semantic violation, 2 unproved,
3 error (malformed input included). Default bounds come from
CATVERIFY_MAX_STEPS and CATVERIFY_MAX_TRACES when set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import contracts as ct
from . import verifier as vf
from .formula import FormulaError, member
from .interp import (BoundExceeded, TooManyTraces, check_file_correct,
                     enumerate_traces)
from .parser import parse_contracts, parse_formula, parse_program
from .syntax import AsyncSyntaxError, INIT_NAME, pretty_program
from .trace import (MalformedTrace, Trace, call_tree, schedule,
                    trace_from_json, trace_to_json)

OK, VIOLATION, UNPROVED, ERROR = 0, 1, 2, 3


class UsageError(Exception):
    """A malformed command line."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # exit 2 would read as "unproved"
        raise UsageError(message)


def _env_int(name, default):
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        return default


def _add_common(p):
    p.add_argument("--max-steps", type=int,
                   default=_env_int("CATVERIFY_MAX_STEPS", 10_000))
    p.add_argument("--max-traces", type=int,
                   default=_env_int("CATVERIFY_MAX_TRACES", 10_000))
    p.add_argument("--json", action="store_true", dest="as_json")


def build_parser():
    parser = _ArgumentParser(
        prog="catverify",
        description="Trace semantics, trace contracts, and a modular "
                    "verifier for a small asynchronous language.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a program (and optional contracts)")
    p.add_argument("program")
    p.add_argument("--contracts")
    _add_common(p)

    p = sub.add_parser("run", help="enumerate all maximal traces")
    p.add_argument("program")
    p.add_argument("--full", action="store_true",
                   help="dump full traces instead of digests")
    _add_common(p)

    p = sub.add_parser("calltree", help="call tree of a trace prefix")
    p.add_argument("program")
    p.add_argument("--prefix", type=int, required=True,
                   help="number of leading trace items")
    p.add_argument("--trace-index", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("check-member",
                       help="membership of a JSON trace in a formula")
    p.add_argument("--trace", required=True, help="path to a JSON trace file")
    p.add_argument("--formula", required=True, help="formula source text")
    _add_common(p)

    p = sub.add_parser("adhere", help="brute-force contract adherence oracle")
    p.add_argument("--program", required=True)
    p.add_argument("--contracts", required=True)
    p.add_argument("--procedure")
    _add_common(p)

    p = sub.add_parser("verify", help="run the sequent-calculus verifier")
    p.add_argument("--program", required=True)
    p.add_argument("--contracts", required=True)
    p.add_argument("--procedure")
    p.add_argument("--discharge", choices=("abstract", "concrete"),
                   default="abstract")
    p.add_argument("--schedule-rule", choices=("auto", "actOrder"),
                   default="auto")
    p.add_argument("--split", help="comma list of j:k split overrides")
    p.add_argument("--cross-check", action="store_true",
                   help="on acceptance, confirm with the adherence oracle")
    _add_common(p)

    p = sub.add_parser("subtype", help="compare two contracts (more general?)")
    p.add_argument("contracts")
    p.add_argument("general", help="name of the claimed more-general contract")
    p.add_argument("specific", help="name of the claimed subcontract")
    _add_common(p)

    p = sub.add_parser("max-contracts",
                       help="maximal contracts per procedure name")
    p.add_argument("contracts")
    _add_common(p)

    return parser


def _load_program(path):
    with open(path) as fh:
        return parse_program(fh.read())


def _load_contracts(path):
    with open(path) as fh:
        return parse_contracts(fh.read())


def _contract_map(decls):
    out = {}
    for c in decls:
        if c.name in out:
            raise ct.ContractError(f"duplicate contract for {c.name!r}")
        out[c.name] = c
    return out


def cmd_parse(args):
    program = _load_program(args.program)
    if args.contracts:
        decls = _load_contracts(args.contracts)
    else:
        decls = []
    if args.as_json:
        print(json.dumps({
            "procedures": program.proc_names(),
            "init_decls": list(program.init_decls),
            "contracts": [c.name for c in decls],
        }, indent=2))
    else:
        print(pretty_program(program))
        for c in decls:
            print(f"contract {c.name}: ok")
    return OK


def _trace_digest(trace):
    payload = json.dumps(trace_to_json(trace), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _traces(program, args):
    return enumerate_traces(program, step_bound=args.max_steps,
                            max_traces=args.max_traces)


def cmd_run(args):
    program = _load_program(args.program)
    traces = _traces(program, args)
    entries = []
    any_violation = False
    for i, t in enumerate(traces):
        verdict = check_file_correct(t)
        any_violation = any_violation or not verdict.correct
        entry = {"index": i, "items": len(t), "digest": _trace_digest(t),
                 "file_correct": verdict.correct}
        if not verdict.correct:
            entry["violation_position"] = verdict.violation_position
            entry["file"] = verdict.file
        if args.full:
            entry["trace"] = trace_to_json(t)
        entries.append(entry)
    report = {"trace_count": len(traces), "traces": entries}
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        print(f"maximal traces: {len(traces)}")
        for e in entries:
            status = "ok" if e["file_correct"] else \
                f"file violation at item {e['violation_position']} ({e['file']})"
            print(f"  [{e['index']}] {e['items']} items {e['digest']} {status}")
    return VIOLATION if any_violation else OK


def cmd_calltree(args):
    program = _load_program(args.program)
    traces = _traces(program, args)
    if not (0 <= args.trace_index < len(traces)):
        print(f"error: trace index out of range", file=sys.stderr)
        return ERROR
    trace = traces[args.trace_index]
    if not (1 <= args.prefix <= len(trace)):
        print(f"error: prefix length must be in 1..{len(trace)}", file=sys.stderr)
        return ERROR
    prefix = Trace(trace.items[:args.prefix])
    tree = call_tree(prefix)
    sched = schedule(prefix)
    if args.as_json:
        print(json.dumps({
            "vertices": sorted([list(v) for v in tree.vertices]),
            "edges": sorted([[list(a), list(b)] for a, b in tree.edges]),
            "idle": sorted([list(v) for v in tree.idle]),
            "schedule": sorted([list(v) for v in sched]),
        }, indent=2))
        return OK
    print("vertices:", sorted(tree.vertices, key=lambda s: s[1]))
    for parent, child in sorted(tree.edges, key=lambda e: (e[0][1], e[1][1])):
        print(f"  {parent} -> {child}")
    print("idle:", sorted(tree.idle, key=lambda s: s[1]))
    print("schedule:", sorted(sched, key=lambda s: s[1]))
    return OK


def cmd_check_member(args):
    with open(args.trace) as fh:
        trace = trace_from_json(json.load(fh))
    phi = parse_formula(args.formula)
    result = member(trace, phi)
    print("member" if result else "not a member")
    return OK if result else VIOLATION


def cmd_adhere(args):
    program = _load_program(args.program)
    cmap = _contract_map(_load_contracts(args.contracts))
    if args.procedure:
        if args.procedure not in cmap:
            print(f"error: no contract for {args.procedure!r}", file=sys.stderr)
            return ERROR
        report = ct.adheres_procedure(program, args.procedure,
                                      cmap[args.procedure],
                                      traces=_traces(program, args))
        reports = {args.procedure: report}
        ok = report.adherent
    else:
        ok, reports = ct.program_correct(program, cmap,
                                         traces=_traces(program, args))
    payload = {"correct": ok,
               "procedures": {n: r.to_json() for n, r in reports.items()}}
    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        for n, r in sorted(reports.items()):
            print(f"{n}: {'adheres' if r.adherent else 'VIOLATION'}")
            for e in r.entries:
                status = "ok" if e.adheres else f"fails ({e.failing_clause})"
                print(f"  trace {e.trace_index} id {e.call_id}: {status}")
    return OK if ok else VIOLATION


def cmd_verify(args):
    program = _load_program(args.program)
    cmap = _contract_map(_load_contracts(args.contracts))
    overrides = None
    if args.split:
        try:
            overrides = [(int(j), int(k)) for j, k in
                         (part.split(":") for part in args.split.split(","))]
        except ValueError:
            raise UsageError(f"--split takes comma-separated j:k pairs, "
                             f"not {args.split!r}") from None
    names = [args.procedure] if args.procedure else \
        [p.name for p in program.procedures] + [INIT_NAME]
    trees = {}
    for name in names:
        trees[name] = vf.verify_procedure(
            program, cmap, name, mode=args.discharge,
            schedule_variant=args.schedule_rule, split_overrides=overrides)
    accepted = all(t.accepted for t in trees.values())
    report = {
        "accepted": accepted,
        "procedures": {n: {"accepted": t.accepted, "proof": t.to_json()}
                       for n, t in trees.items()},
    }
    if args.cross_check and accepted and not args.procedure:
        traces = _traces(program, args)
        correct, _ = ct.program_correct(program, cmap, traces=traces)
        files_ok = all(check_file_correct(t) for t in traces)
        report["cross_check"] = {"program_correct": correct,
                                 "file_correct": files_ok}
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        for n, t in trees.items():
            print(f"=== {n}: {'accepted' if t.accepted else 'OPEN'}")
            print(t.render(1))
        if "cross_check" in report:
            print("cross-check:", report["cross_check"])
    if not accepted:
        return UNPROVED
    if "cross_check" in report and not (
            report["cross_check"]["program_correct"]
            and report["cross_check"]["file_correct"]):
        return VIOLATION
    return OK


def cmd_subtype(args):
    decls = _load_contracts(args.contracts)
    by_name = {}
    for c in decls:
        by_name.setdefault(c.name, []).append(c)
    try:
        general = by_name[args.general][0]
        specific = by_name[args.specific][0]
    except KeyError as exc:
        print(f"error: unknown contract {exc}", file=sys.stderr)
        return ERROR
    verdict = vf.subtype(general, specific)
    if args.as_json:
        print(json.dumps({"status": verdict.status,
                          "failed_condition": verdict.failed_condition,
                          "bounded": verdict.bounded}))
    else:
        if verdict.status == "proved":
            print(f"{args.general} >= {args.specific}: proved")
        elif verdict.status == "disproved":
            print(f"{args.general} >= {args.specific}: disproved "
                  f"at {verdict.failed_condition}")
        else:
            print(f"{args.general} >= {args.specific}: unknown"
                  + (" (bounded evidence only)" if verdict.bounded else ""))
    return {"proved": OK, "disproved": VIOLATION,
            "unknown": UNPROVED}[verdict.status]


def cmd_max_contracts(args):
    decls = _load_contracts(args.contracts)
    by_name = {}
    for c in decls:
        by_name.setdefault(c.name, []).append(c)
    out = {}
    for name, group in sorted(by_name.items()):
        keep = vf.max_contracts(group)
        out[name] = [group.index(c) for c in keep]
    if args.as_json:
        print(json.dumps(out, indent=2))
    else:
        for name, idxs in out.items():
            print(f"{name}: {len(by_name[name])} contracts, "
                  f"maximal: {[i + 1 for i in idxs]}")
    return OK


_COMMANDS = {
    "parse": cmd_parse,
    "run": cmd_run,
    "calltree": cmd_calltree,
    "check-member": cmd_check_member,
    "adhere": cmd_adhere,
    "verify": cmd_verify,
    "subtype": cmd_subtype,
    "max-contracts": cmd_max_contracts,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, AsyncSyntaxError, FormulaError, MalformedTrace,
            ct.ContractError, vf.VerifierError, BoundExceeded, TooManyTraces,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
