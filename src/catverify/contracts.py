"""Context-aware trace contracts and the brute-force adherence oracle.

A contract has three trace parts. The pre-trace describes the history up to
the moment the procedure's scope is activated, the internal behavior covers
everything between activation and the closing pop (including asynchronously
called children), and the post-trace constrains what the callers do after
the scope completes. Boundary predicates ``q_a``/``q_c`` hold at the
activation and pop states; observation binders snapshot program variables
for use across the three parts.

Sequencing inside the assembled formulas is the semantic chop, so the
assembled contract can denote machine traces directly (plain concatenation
would demand duplicated states that the interpreter never produces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import formula as fm
from .formula import (Chop, Concat, Formula, NoEv, Obs, Pred, TRUE,
                      free_lvars, member, normalize)
from .trace import Event, Trace


class ContractError(Exception):
    pass


@dataclass(frozen=True)
class ContractDecl:
    name: str
    pre_body: Formula                   # assume clause, may anchor obs binders
    pre_binders: tuple                  # ((program var, logic var), ...)
    pre_pred: fm.LExpr                  # q_a
    internal_body: Formula              # internal clause
    post_binders: tuple
    post_pred: fm.LExpr                 # q_c
    post_body: Formula                  # continue clause


def spine_obs_vars(phi) -> list:
    """Observation binders on the right spine, whose scope can extend."""
    out = []
    while True:
        if isinstance(phi, Obs):
            out.append((phi.pvar, phi.lvar))
            phi = phi.body
        elif isinstance(phi, (Chop, Concat)):
            phi = phi.rhs
        else:
            return out


def append_under_binders(phi, suffix) -> Formula:
    """Chop the suffix onto the formula, inside any right-spine binder scopes.

    This keeps observation variables bound in the material that follows,
    which is how a binder anchored inside the pre-trace can scope over the
    internal behavior and post-trace.
    """
    if isinstance(phi, Obs):
        return Obs(phi.pvar, phi.lvar, append_under_binders(phi.body, suffix))
    if isinstance(phi, Chop):
        return Chop(phi.lhs, append_under_binders(phi.rhs, suffix))
    if isinstance(phi, Concat):
        return Concat(phi.lhs, append_under_binders(phi.rhs, suffix))
    return Chop(phi, suffix)


def wrap_obs(binders, phi) -> Formula:
    for pvar, lvar in reversed(list(binders)):
        phi = Obs(pvar, lvar, phi)
    return phi


def validate_contract(c: ContractDecl) -> None:
    """Binder scoping: the pre-trace is closed, the internal behavior may
    use only the pre-binders, the post-trace only pre- and post-binders."""
    all_binders = list(c.pre_binders) + list(c.post_binders)
    lvars = [y for _, y in all_binders]
    if len(set(lvars)) != len(lvars):
        raise ContractError(f"contract {c.name!r}: binder names must be distinct")
    pre_anchored = {y for _, y in spine_obs_vars(c.pre_body)}
    declared_pre = {y for _, y in c.pre_binders}
    undeclared = pre_anchored - declared_pre
    if undeclared:
        raise ContractError(
            f"contract {c.name!r}: obs binders {sorted(undeclared)} in the assume "
            f"trace are not declared in the pre clause")
    y1 = declared_pre
    y2 = {y for _, y in c.post_binders}
    fv_pre = (free_lvars(c.pre_body) | fm._lexpr_vars(c.pre_pred)) - y1
    if fv_pre:
        raise ContractError(
            f"contract {c.name!r}: pre-trace has free variables {sorted(fv_pre)} "
            f"(fv(pre) must be empty)")
    fv_internal = free_lvars(c.internal_body) - y1
    if fv_internal:
        raise ContractError(
            f"contract {c.name!r}: internal behavior has free variables "
            f"{sorted(fv_internal)} outside the pre binders")
    fv_post = (free_lvars(c.post_body) | fm._lexpr_vars(c.post_pred)) - y1 - y2
    if fv_post:
        raise ContractError(
            f"contract {c.name!r}: post-trace has free variables {sorted(fv_post)} "
            f"outside the declared binders")
    for part in (c.pre_body, c.internal_body, c.post_body):
        fm.validate_no_recvar_under_obs(part)
        if fm.free_recvars(part):
            raise ContractError(f"contract {c.name!r}: unbound recursion variable")


# --- classification --------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    context_aware: bool
    state_contract: bool

    @property
    def proper_trace(self) -> bool:
        return not self.state_contract


def _is_trivial_segment(phi) -> bool:
    return normalize(phi) == NoEv(frozenset())


def classify(c: ContractDecl) -> Classification:
    aware = not (_is_trivial_segment(c.pre_body) and _is_trivial_segment(c.post_body))
    state = _is_trivial_segment(c.internal_body)
    return Classification(context_aware=aware, state_contract=state)


# --- assembled formulas -----------------------------------------------------

def unanchored_pre_binders(c: ContractDecl) -> list:
    anchored = {y for _, y in spine_obs_vars(c.pre_body)}
    return [(x, y) for x, y in c.pre_binders if y not in anchored]


def adherence_formula(c: ContractDecl, m: str, call_id: int) -> Formula:
    """The full trace formula whose membership defines adherence at one call.

    Shape: pre-trace, then under the pre binders the boundary predicate and
    the activation of scope (m, i), the internal behavior, and under the post
    binders the closing predicate, the pop, and the post-trace.
    """
    qa = Pred(c.pre_pred)
    qc = Pred(c.post_pred)
    inner = fm.chop_of([qc, fm.EventF("pop", m, fm.TLit(call_id)), qc,
                        c.post_body])
    inner = wrap_obs(c.post_binders, inner)
    mid = fm.chop_of([qa, fm.EventF("start", m, fm.TLit(call_id)), qa])
    mid = append_under_binders(mid, append_under_binders(c.internal_body, inner))
    mid = wrap_obs(unanchored_pre_binders(c), mid)
    return append_under_binders(c.pre_body, mid)


def weak_variant(c: ContractDecl) -> ContractDecl:
    """Same contract with the post-trace relaxed to the unconstrained segment."""
    return ContractDecl(
        name=c.name,
        pre_body=c.pre_body,
        pre_binders=c.pre_binders,
        pre_pred=c.pre_pred,
        internal_body=c.internal_body,
        post_binders=c.post_binders,
        post_pred=c.post_pred,
        post_body=NoEv(frozenset()),
    )


# --- adherence oracle -------------------------------------------------------

def id_of(m: str, trace: Trace) -> list:
    """Call identifiers of call/invoc events naming the procedure."""
    out = []
    for item in trace:
        if isinstance(item, Event) and item.tag in ("call", "invoc") \
                and item.name == m:
            out.append(item.id)
    return sorted(set(out))


def adheres_trace(trace: Trace, call_id: int, c: ContractDecl, m: str) -> bool:
    return member(trace, adherence_formula(c, m, call_id))


_CLAUSES = ("pre-trace", "internal", "post-trace", "boundary-pred")


def blame_clause(trace: Trace, call_id: int, c: ContractDecl, m: str) -> Optional[str]:
    """Which contract part fails first for this (trace, id); None if adherent."""
    if adheres_trace(trace, call_id, c, m):
        return None
    anyseg = NoEv(frozenset())
    pre_only = ContractDecl(c.name, c.pre_body, c.pre_binders, c.pre_pred,
                            anyseg, (), TRUE, anyseg)
    if not adheres_trace(trace, call_id, pre_only, m):
        qa_relaxed = ContractDecl(c.name, c.pre_body, c.pre_binders, TRUE,
                                  anyseg, (), TRUE, anyseg)
        if adheres_trace(trace, call_id, qa_relaxed, m):
            return "boundary-pred"
        return "pre-trace"
    weak = weak_variant(c)
    if not adheres_trace(trace, call_id, weak, m):
        internal_relaxed = ContractDecl(c.name, c.pre_body, c.pre_binders,
                                        c.pre_pred, anyseg, c.post_binders,
                                        c.post_pred, anyseg)
        if adheres_trace(trace, call_id, internal_relaxed, m):
            return "internal"
        return "boundary-pred"
    return "post-trace"


@dataclass(frozen=True)
class AdherenceEntry:
    trace_index: int
    call_id: int
    adheres: bool
    failing_clause: Optional[str] = None


@dataclass
class AdherenceReport:
    procedure: str
    entries: list = field(default_factory=list)

    @property
    def adherent(self) -> bool:
        return all(e.adheres for e in self.entries)

    def to_json(self):
        return {
            "procedure": self.procedure,
            "adherent": self.adherent,
            "checks": [
                {"trace": e.trace_index, "call_id": e.call_id,
                 "adheres": e.adheres, "failing_clause": e.failing_clause}
                for e in self.entries
            ],
        }


def adheres_procedure(program, m: str, c: ContractDecl,
                      step_bound: int = 10_000,
                      traces=None) -> AdherenceReport:
    """Check every maximal program trace at every call id of the procedure."""
    from .interp import enumerate_traces
    if traces is None:
        traces = enumerate_traces(program, step_bound=step_bound)
    report = AdherenceReport(m)
    for t_idx, trace in enumerate(traces):
        for call_id in id_of(m, trace):
            ok = adheres_trace(trace, call_id, c, m)
            clause = None if ok else blame_clause(trace, call_id, c, m)
            report.entries.append(AdherenceEntry(t_idx, call_id, ok, clause))
    return report


def program_correct(program, contracts: dict, step_bound: int = 10_000,
                    traces=None):
    """Conjunction of procedure adherence over all procedures including init.

    ``contracts`` maps procedure names (and "init") to contract declarations.
    Returns (correct, reports).
    """
    from .interp import enumerate_traces
    from .syntax import INIT_NAME
    names = [p.name for p in program.procedures] + [INIT_NAME]
    missing = [n for n in names if n not in contracts]
    if missing:
        raise ContractError(f"missing contracts for procedures: {missing}")
    if traces is None:
        traces = enumerate_traces(program, step_bound=step_bound)
    reports = {}
    for n in names:
        reports[n] = adheres_procedure(program, n, contracts[n],
                                       step_bound=step_bound, traces=traces)
    return all(r.adherent for r in reports.values()), reports
