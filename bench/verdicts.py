"""Known-answer checks for the benchmark's operations.

Each check reads the `--json` output and exit code of one CLI call and
compares the verdict with the answer the input was built to have. They run
outside the timed region. A verdict is *wrong* when it contradicts the known
answer; it is *decided* when the CLI returned a definite verdict (a subtype
`unknown` is not one); it *failed* when the call raised or exited 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

ERROR_EXIT = 3


@dataclass(frozen=True)
class Outcome:
    verdict: str       # short human-readable verdict, for the per-input rows
    wrong: bool
    decided: bool
    failed: bool


def oracle_answers(catverify, case):
    """Brute-force answers for a `verify` input, from the adherence oracle:
    `program_correct` over every trace, and file correctness of each trace."""
    program = catverify.parse_program(case.files["prog.async"])
    contracts = {c.name: c for c in
                 catverify.parse_contracts(case.files["prog.cat"])}
    correct, _ = catverify.program_correct(program, contracts)
    traces = catverify.enumerate_traces(program)
    files_ok = all(catverify.check_file_correct(t) for t in traces)
    case.expect["program_correct"] = correct
    case.expect["file_correct"] = files_ok


def check(case, status, rc, stdout):
    """Judge one operation. `status` is "ok", "raised" or "timeout"."""
    if status == "timeout":
        return Outcome("timeout", wrong=False, decided=False, failed=False)
    if status != "ok" or rc == ERROR_EXIT:
        return Outcome(f"error (exit {rc})", wrong=False, decided=False,
                       failed=True)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return Outcome("unreadable output", wrong=True, decided=False,
                       failed=False)
    return _CHECKS[case.expect["command"]](case.expect, rc, report)


def _check_run(exp, rc, report):
    count = report["trace_count"]
    bad = sum(1 for t in report["traces"] if not t["file_correct"])
    wrong = (count != exp["trace_count"] or bad != exp["violating"]
             or len(report["traces"]) != count
             or rc != (1 if exp["violating"] else 0))
    return Outcome(f"{count} traces, {bad} violating", wrong, True, False)


def _check_adhere(exp, rc, report):
    failing = {}
    for name, proc in report["procedures"].items():
        for c in proc["checks"]:
            if not c["adheres"]:
                clauses = failing.setdefault(name, {})
                clauses[c["failing_clause"]] = clauses.get(c["failing_clause"], 0) + 1
    wrong = (report["correct"] != exp["correct"] or failing != exp["failing"]
             or rc != (0 if exp["correct"] else 1))
    blamed = ", ".join(f"{n}:{c}x{k}" for n, cs in sorted(failing.items())
                       for c, k in sorted(cs.items()))
    verdict = "adheres" if report["correct"] else f"violation ({blamed})"
    return Outcome(verdict, wrong, True, False)


def _leaves(node):
    if "premises" in node:
        for p in node["premises"]:
            yield from _leaves(p)
    else:
        yield node


def _check_verify(exp, rc, report):
    accepted = report["accepted"]
    leaves = [leaf for p in report["procedures"].values()
              for leaf in _leaves(p["proof"])]
    open_rules = sorted({leaf["rule"] for leaf in leaves
                         if leaf["status"] == "open"})
    wrong = "accepted" in exp and accepted != exp["accepted"]
    if "open_rules" in exp:
        wrong = wrong or not open_rules or not set(open_rules) <= set(exp["open_rules"])
    # soundness: an accepted proof must agree with the oracle
    wrong = wrong or (accepted and not exp["program_correct"])
    if accepted and exp["cross_check"] and not wrong:
        oracle = {"program_correct": exp["program_correct"],
                  "file_correct": exp["file_correct"]}
        wrong = report.get("cross_check") != oracle
        want_rc = 0 if all(oracle.values()) else 1
    else:
        want_rc = 0 if accepted else 2
    wrong = wrong or rc != want_rc
    bounded = sum(1 for leaf in leaves if leaf.get("bounded"))
    verdict = (f"accepted ({bounded}/{len(leaves)} leaves bounded)" if accepted
               else f"open at {', '.join(open_rules)}")
    return Outcome(verdict, wrong, True, False)


def _check_subtype(exp, rc, report):
    status = report["status"]
    if status == "unknown":
        return Outcome("unknown", wrong=rc != 2, decided=False, failed=False)
    wrong = (status != exp["status"]
             or report["failed_condition"] != exp["failed_condition"]
             or rc != (0 if status == "proved" else 1))
    verdict = status + (f" at {report['failed_condition']}"
                        if report["failed_condition"] else "")
    return Outcome(verdict, wrong, True, False)


def _check_max_contracts(exp, rc, report):
    wrong = report != exp["maximal"] or rc != 0
    verdict = "; ".join(f"{n}: maximal {idx}" for n, idx in sorted(report.items()))
    return Outcome(verdict, wrong, True, False)


_CHECKS = {
    "run": _check_run,
    "adhere": _check_adhere,
    "verify": _check_verify,
    "subtype": _check_subtype,
    "max-contracts": _check_max_contracts,
}
