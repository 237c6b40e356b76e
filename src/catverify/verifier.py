"""Sequent-calculus verifier over symbolic trace updates.

Symbolic execution accumulates a trace update: a sequence of elementary
assignments, event emissions, run markers standing for contracted procedure
executions, and an uninterpreted prefix for the unknown history. The proof
rules connect updates, the remaining program, and a target trace formula;
leaf obligations are semantic update-vs-formula judgments discharged by one
of two engines:

* abstract: translate the update into a trace formula (run markers become
  the callee's contracted internal behavior) and decide its inclusion in
  the target with ``formula.included``, which is exact unless a predicate
  outruns its value pool;
* concrete: evaluate the update with real procedure bodies over sampled
  initial states (and sampled traces of a havoc prefix) and check
  membership of every resulting trace; its closures are bounded evidence.

The abstract engine is the default; the concrete engine only backs it up
for run-free updates, so that a proof never silently inlines a body that a
contract was supposed to abstract.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from . import formula as fm
from .contracts import ContractDecl
from .formula import (ALL_EVENTS, And, Chop, EventF, Formula, NoEv, Pred,
                      TConst, TLit, TRUE, WILDCARD, chop_chain, chop_of,
                      conjuncts, included, member, normalize, strip_obs,
                      subst_terms)
from .interp import BoundExceeded, Configuration, _explore
from .syntax import (Assign, AsyncCall, BinOp, Expr, FileOp, If, Lit, Not,
                     Program, Return, Skip, Stmt, SyncCall, Var, lookup, seq,
                     seq_items)
from .trace import (FILE_TAGS, Event, State, Trace, chop, event_trace,
                    event_triple, push_ev, singleton)


class VerifierError(Exception):
    pass


class HavocPresent(VerifierError):
    pass


O_ID = 0  # distinguished identifier of the scope under verification


# --- trace updates -----------------------------------------------------------

@dataclass(frozen=True)
class UAssign:
    var: str
    expr: Expr

    def __repr__(self):
        return f"{{{self.var} := {self.expr}}}"


@dataclass(frozen=True)
class UEvent:
    """Elementary event update. File payloads carry the program expression
    (evaluated when the update is run) plus the symbolic term the store
    resolved it to (used when the update is read as a formula)."""
    tag: str  # invoc | start | ret | pop | open | close | read | write
    name: Optional[str] = None
    id: Optional[int] = None
    file_expr: Optional[Expr] = None
    file_term: object = None

    def __repr__(self):
        if self.tag == "invoc" or self.tag == "start":
            return f"{{{self.tag}({self.name},{self.id})}}"
        if self.tag == "ret":
            return f"{{ret({self.id})}}"
        if self.tag == "pop":
            return f"{{pop({self.name},{self.id})}}"
        return f"{{{self.tag}({self.file_expr})}}"


@dataclass(frozen=True)
class URun:
    name: str
    id: int
    mode: str  # "sy" | "as"

    def __repr__(self):
        return f"{{run({self.name},{self.id},{self.mode})}}"


@dataclass(frozen=True)
class UHavoc:
    symbol: str

    def __repr__(self):
        return f"{{{self.symbol}}}"


Update = tuple  # of UAssign | UEvent | URun | UHavoc


def update_repr(update: Update) -> str:
    return "".join(repr(u) for u in update)


def validate_update(update: Update) -> None:
    run_ids = [u.id for u in update if isinstance(u, URun)]
    if len(run_ids) != len(set(run_ids)):
        raise VerifierError("run identifiers must be unique within an update")
    for i, u in enumerate(update):
        if isinstance(u, UHavoc) and i != 0:
            raise VerifierError("a havoc symbol may only head an update")


# --- update evaluation (concrete semantics) ----------------------------------

def _run_scope(base: Trace, name: str, run_id: int, mode: str,
               program: Program, step_bound: int, id_floor: int) -> list:
    """Traces of one scheduled procedure execution, bracketed push .. pop."""
    state = base.last_state()
    if mode == "sy":
        base = chop(base, event_triple(state, "call", (name, run_id)))
    body = lookup(name, program)
    start = Configuration(
        chop(base, event_trace(base.last_state(), push_ev(name, run_id))), body)
    baseline = len(base) + 2

    def popped(cfg):
        return (cfg.continuation is None
                and any(isinstance(it, Event) and it.tag == "pop"
                        and it.id == run_id and it.name == name
                        for it in cfg.trace.items[baseline:]))

    configs = _explore(start, program, step_bound, 10_000, stop=popped,
                       id_floor=id_floor)
    out = []
    for cfg in configs:
        if not popped(cfg):
            raise BoundExceeded("scheduled procedure did not complete",
                                trace=cfg.trace)
        out.append(cfg.trace)
    return out


def update_max_id(update: Update) -> int:
    """Largest call identifier an update mentions; inner executions of run
    markers must generate ids above this (the calculus assumes freshness)."""
    best = 0
    for u in update:
        if isinstance(u, UEvent) and u.id is not None:
            best = max(best, u.id)
        elif isinstance(u, URun):
            best = max(best, u.id)
    return best


def eval_update(update: Update, base: Trace, program: Program,
                step_bound: int = 10_000, consts=None) -> list:
    """All traces an update denotes over a base trace (full traces).

    Run markers execute the callee's real body globally inside a fresh
    pushed scope, through to its pop; everything inner is resolved, nothing
    outer is touched.
    """
    consts = consts or {}
    id_floor = update_max_id(update)
    traces = [base]
    for u in update:
        if isinstance(u, UHavoc):
            raise HavocPresent("cannot evaluate an update with a havoc prefix")
        nxt = []
        for t in traces:
            state = t.last_state()
            if isinstance(u, UAssign):
                nxt.append(Trace(t.items + (state.update(u.var, state.eval(u.expr)),)))
            elif isinstance(u, UEvent):
                nxt.extend(_eval_event_update(u, t, state, consts))
            elif isinstance(u, URun):
                nxt.extend(_run_scope(t, u.name, u.id, u.mode, program,
                                      step_bound, id_floor))
            else:
                raise TypeError(f"not an elementary update: {u!r}")
        traces = nxt
    return sorted(set(traces), key=Trace.sort_key)


def _eval_event_update(u: UEvent, t: Trace, state: State, consts) -> list:
    if u.tag == "start":
        step = chop(event_triple(state, "call", (u.name, u.id)),
                    event_triple(state, "push", (u.name, u.id)))
        return [chop(t, step)]
    if u.tag == "invoc":
        return [chop(t, event_triple(state, "invoc", (u.name, u.id)))]
    if u.tag == "ret":
        return [chop(t, event_triple(state, "ret", u.id))]
    if u.tag == "pop":
        return [chop(t, event_triple(state, "pop", (u.name, u.id)))]
    if u.tag in ("open", "close", "read", "write"):
        if u.file_expr is not None:
            payload = state.eval(u.file_expr)
        else:
            payload = fm.eval_term(u.file_term, {}, consts)
        value = payload if isinstance(payload, str) else str(payload)
        return [chop(t, event_triple(state, u.tag, value))]
    raise ValueError(f"unknown event update tag {u.tag!r}")


def schedule_update(update: Update, oid: int = O_ID) -> frozenset:
    """Invocations before the scope's return that no run marker resolved."""
    out = set()
    ret_positions = [i for i, u in enumerate(update)
                     if isinstance(u, UEvent) and u.tag == "ret" and u.id == oid]
    for i, u in enumerate(update):
        if isinstance(u, UEvent) and u.tag == "invoc":
            later_rets = [r for r in ret_positions if r > i]
            if not later_rets:
                continue
            r = later_rets[0]
            resolved = any(isinstance(v, URun) and v.mode == "as"
                           and (v.name, v.id) == (u.name, u.id)
                           for v in update[r + 1:])
            if not resolved:
                out.add((u.name, u.id))
    return frozenset(out)


# --- judgments and proof nodes ------------------------------------------------

@dataclass(frozen=True)
class LocalJudgment:
    update: Update
    phi: Formula

    def __repr__(self):
        return f"{update_repr(self.update)} : {self.phi!r}"


@dataclass(frozen=True)
class ContractJudgment:
    name: str
    contract: ContractDecl

    def __repr__(self):
        return f"{self.name} : C_{self.name}"


@dataclass(frozen=True)
class GlobalStmtJudgment:
    update: Update
    stmt: Optional[Stmt]
    phi: Formula

    def __repr__(self):
        s = self.stmt if self.stmt is not None else "o"
        return f"{update_repr(self.update)} {s} :G {self.phi!r}"


@dataclass(frozen=True)
class GlobalUpdJudgment:
    update: Update
    phi: Formula

    def __repr__(self):
        return f"{update_repr(self.update)} :G {self.phi!r}"


CLOSED = "closed"
OPEN = "open"


@dataclass
class ProofNode:
    rule: str
    conclusion: str
    premises: list = field(default_factory=list)
    status: Optional[str] = None   # leaves only
    evidence: str = ""
    bounded: bool = False
    notes: tuple = ()              # root only: rule-variant caveats

    @property
    def is_leaf(self):
        return self.status is not None

    @property
    def accepted(self) -> bool:
        if self.is_leaf:
            return self.status == CLOSED
        return all(p.accepted for p in self.premises)

    def open_leaves(self) -> list:
        if self.is_leaf:
            return [self] if self.status == OPEN else []
        return [leaf for p in self.premises for leaf in p.open_leaves()]

    def leaves(self) -> list:
        if self.is_leaf:
            return [self]
        return [leaf for p in self.premises for leaf in p.leaves()]

    def main_spine(self) -> list:
        """Rule names along the continuation branch (last premise chain)."""
        names = [self.rule]
        node = self
        while node.premises:
            node = node.premises[-1]
            names.append(node.rule)
        return names

    def contains_rule(self, name) -> bool:
        if self.rule == name:
            return True
        return any(p.contains_rule(name) for p in self.premises)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.is_leaf:
            mark = "CLOSED" if self.status == CLOSED else "OPEN"
            extra = " [bounded]" if self.bounded else ""
            return f"{pad}{self.rule}: {mark}{extra} {self.evidence}".rstrip()
        lines = [f"{pad}{self.rule}: {self.conclusion}"]
        for p in self.premises:
            lines.append(p.render(indent + 1))
        return "\n".join(lines)

    def to_json(self):
        d = {"rule": self.rule, "conclusion": self.conclusion}
        if self.notes:
            d["notes"] = list(dict.fromkeys(self.notes))
        if self.is_leaf:
            d["status"] = self.status
            d["evidence"] = self.evidence
            if self.bounded:
                d["bounded"] = True
        else:
            d["premises"] = [p.to_json() for p in self.premises]
        return d


# --- instantiated contract views ----------------------------------------------

@dataclass(frozen=True)
class ContractInstance:
    """A callee contract with its observation binders resolved for one call
    site: pre binders take the caller's symbolic values for the observed
    program variables, post binders become fresh opaque constants."""
    name: str
    pre: Formula        # theta'_a . <q_a>
    internal: Formula   # <q_a> . theta'_s . <q_c>
    post: Formula       # <q_c> . theta'_c

    def internal_chain(self):
        return chop_chain(normalize(self.internal))


def instantiate_contract(c: ContractDecl, store: dict,
                         fresh_const) -> ContractInstance:
    """Resolve a contract's binders against the caller's symbolic store."""
    mapping = {}
    for pvar, lvar in c.pre_binders:
        value = store.get(pvar)
        if value is None:
            value = TConst(fresh_const(f"c_{lvar}"))
        mapping[lvar] = value
    for _, lvar in c.post_binders:
        mapping[lvar] = TConst(fresh_const(f"c_{lvar}"))
    y1 = [y for _, y in c.pre_binders]
    y2 = [y for _, y in c.post_binders]
    pre_body = subst_terms(strip_obs(c.pre_body, y1), mapping)
    internal_body = subst_terms(strip_obs(c.internal_body, y1 + y2), mapping)
    post_body = subst_terms(strip_obs(c.post_body, y1 + y2), mapping)
    qa = Pred(subst_terms(Pred(c.pre_pred), mapping).expr)
    qc = Pred(subst_terms(Pred(c.post_pred), mapping).expr)
    pre = normalize(Chop(pre_body, qa))
    internal = normalize(chop_of([qa, internal_body, qc]))
    post = normalize(Chop(qc, post_body))
    return ContractInstance(c.name, pre, internal, post)


# --- event-shape matching ---------------------------------------------------------

def _witness_value(const_name: str) -> str:
    """The value a payload constant takes in witness traces and sampled
    valuations; witness events match a valuation only by this identity."""
    return f"~{const_name}~"


def _ground_term(t):
    """Ground view of an event term: WILDCARD when absent or a wildcard, a
    literal's value, a constant's witness value; None when not ground."""
    if t is None or t is WILDCARD:
        return WILDCARD
    if isinstance(t, TLit):
        return t.value
    if isinstance(t, TConst):
        return _witness_value(t.name)
    return None


def _witness_view(p: EventF):
    """The value an event needs to have shape p in witness matching; a term
    that is not ground (a logic variable) may take any value."""
    value = _ground_term(p.term)
    return WILDCARD if value is None else value


def _may_match(p: EventF, q: EventF) -> bool:
    """Whether an event of the ground shape q may also have shape p."""
    if not set(p.trace_tags()) & set(q.trace_tags()):
        return False
    if p.name not in (None, WILDCARD) and q.name not in (None, WILDCARD) \
            and p.name != q.name:
        return False
    mine, theirs = _witness_view(p), _witness_view(q)
    return mine is WILDCARD or theirs is WILDCARD or mine == theirs


# --- witness sampling of a chain's language -------------------------------------

def _witness_events(chain) -> list:
    return sorted({ev for atom in chain for part in conjuncts(atom)
                   for p in fm.event_shapes(part)
                   if _ground_term(p.term) is not None
                   for ev in _shape_events(p)}, key=repr)


def _shape_events(p: EventF) -> list:
    """Witness events of a ground shape; wildcards take default values."""
    value = _ground_term(p.term)
    if p.tag in FILE_TAGS:
        return [Event(p.tag, file=str("~f~" if value is WILDCARD else value))]
    i = value if isinstance(value, int) else 0
    if p.tag == "ret":
        return [Event("ret", id=i)]
    name = "m" if p.name in (None, WILDCARD) else p.name
    return [Event(tag, name=name, id=i) for tag in p.trace_tags()]


def _generation_chain(chain: list) -> Optional[list]:
    """Flatten conjunction atoms into a plain generation chain; candidates
    built from it are filtered by exact membership afterwards."""
    out = []
    for atom in chain:
        if isinstance(atom, And):
            first = conjuncts(atom)[0]
            sub = _generation_chain(chop_chain(normalize(first)))
            if sub is None:
                return None
            out.extend(sub)
        elif isinstance(atom, (Pred, EventF, NoEv)):
            out.append(atom)
        else:
            return None
    return out


def sample_chain_traces(chain: list, sigma: State) -> Optional[list]:
    """At most 600 witnesses of a chop chain's well-formed traces.

    Flexible segments are instantiated with a singleton state or with an
    admissible event of the chain's own atoms; event atoms yield their
    triple; other atoms make sampling impossible (None). Witnesses carry at
    most two inserted events beyond the chain's own, generated sparsest
    first, so single- and double-event violations of an obligation are both
    exercised. All traces share the state sigma: predicates over constants
    decide membership, not state contents.
    """
    gen = _generation_chain(chain)
    if gen is None:
        return None
    alphabet = _witness_events(chain)
    options_per_seg = []
    for atom in gen:
        opts = _atom_witness_options(atom, alphabet, sigma)
        if opts is None:
            return None
        options_per_seg.append(opts)
    out = []
    flexible = [i for i, opts in enumerate(options_per_seg) if len(opts) > 1]

    def build(choice):
        items = [sigma]
        for i, opts in enumerate(options_per_seg):
            items.extend(opts[choice.get(i, 0)])
        return Trace(items)

    out.append(build({}))
    for i in flexible:
        for k in range(1, len(options_per_seg[i])):
            out.append(build({i: k}))
    for i, j in itertools.combinations_with_replacement(flexible, 2):
        if i == j:
            continue
        for k1 in range(1, len(options_per_seg[i])):
            for k2 in range(1, len(options_per_seg[j])):
                out.append(build({i: k1, j: k2}))
                if len(out) >= 600:
                    return out
    return out


def _atom_witness_options(atom, alphabet, sigma) -> Optional[list]:
    # each option is the item list that FOLLOWS the shared boundary state
    if isinstance(atom, Pred):
        return [[]]
    if isinstance(atom, EventF):
        if _ground_term(atom.term) is None:
            return None
        items = []
        for ev in _shape_events(atom):
            items.extend([ev, sigma])
        return [items]
    if isinstance(atom, NoEv):
        opts = [[]]
        if atom.excluded is not ALL_EVENTS:
            for ev in alphabet:
                if not any(p.fits(ev) and p.has_value(ev, _witness_view(p))
                           for p in atom.excluded):
                    opts.append([ev, sigma])
        return opts
    return None


# --- the discharge engines -------------------------------------------------------

@dataclass
class Discharge:
    closed: bool
    evidence: str
    bounded: bool = False


def _translate_update(context, gamma, update: Update) -> Optional[Formula]:
    """The update as a trace formula.

    Two sound overapproximations are conjoined: the longest matching
    antecedent judgment followed by the remainder's translation (carries the
    proof knowledge accumulated so far), and a direct per-element
    translation with the havoc prefix unconstrained (keeps event knowledge
    that a judgment's formula may not spell out)."""
    best = None
    for j in gamma:
        if isinstance(j, LocalJudgment):
            k = len(j.update)
            if update[:k] == j.update and (best is None or k > len(best.update)):
                best = j
    via_judgment = None
    if best is not None:
        tail = _translate_elements(context, update[len(best.update):],
                                   havoc_as_any=False)
        if tail is not None:
            via_judgment = normalize(chop_of([normalize(best.phi)] + tail))
    direct_parts = _translate_elements(context, update, havoc_as_any=True)
    direct = normalize(chop_of(direct_parts)) if direct_parts else None
    if via_judgment is not None and direct is not None:
        if via_judgment == direct:
            return via_judgment
        return normalize(And(via_judgment, direct))
    return via_judgment or direct


def _translate_elements(context, elements, havoc_as_any: bool) -> Optional[list]:
    parts = []
    for u in elements:
        if isinstance(u, UHavoc):
            if not havoc_as_any:
                return None
            parts.append(NoEv(frozenset()))
        elif isinstance(u, UAssign):
            parts.append(NoEv(ALL_EVENTS))
        elif isinstance(u, UEvent):
            parts.append(_event_update_formula(u))
        elif isinstance(u, URun):
            inst = context.run_instances.get((u.name, u.id, u.mode))
            if inst is None:
                return None
            segs = []
            if u.mode == "sy":
                segs.append(EventF("call", u.name, TLit(u.id)))
            segs.append(EventF("push", u.name, TLit(u.id)))
            segs.append(inst.internal)
            segs.append(EventF("pop", u.name, TLit(u.id)))
            parts.append(chop_of(segs))
        else:
            return None
    return parts


def _event_update_formula(u: UEvent) -> Formula:
    if u.tag == "start":
        return Chop(EventF("call", u.name, TLit(u.id)),
                    EventF("push", u.name, TLit(u.id)))
    if u.tag == "invoc":
        return EventF("invoc", u.name, TLit(u.id))
    if u.tag == "ret":
        return EventF("ret", id=TLit(u.id))
    if u.tag == "pop":
        return EventF("pop", u.name, TLit(u.id))
    term = u.file_term
    if term is None and isinstance(u.file_expr, Lit):
        term = TLit(u.file_expr.value)
    if term is None:
        term = WILDCARD
    return EventF(u.tag, payload=term)


def _sample_consts(formulas) -> list:
    """Constant valuations for membership checks in the concrete engine, at
    most nine.

    Constants used as event payloads take one opaque string each (the
    sampled havoc events use the same encoding, so matching is by
    identity); constants in predicates or identifier positions range over
    the integers around the comparison atoms, and closure must hold under
    every sampled valuation.
    """
    info = fm._collect_alphabet([phi for phi in formulas if phi is not None])
    ctx = {}
    for name, where in info["consts"]:
        ctx.setdefault(name, set()).add(where)
    ints = sorted(info["ints"]) or [0, 1]
    valuations = [{}]
    for name in sorted(ctx):
        pool = [_witness_value(name)] if ctx[name] <= {"file"} else ints
        valuations = [dict(v, **{name: x}) for v in valuations
                      for x in pool][:9]
    return valuations


def discharge_local(gamma: list, update: Update, phi: Formula,
                    mode: str = "abstract", context=None,
                    program: Optional[Program] = None) -> Discharge:
    """Decide the local update judgment ``update : phi`` under the context.

    Never closes unsoundly: both engines answer Open when out of their
    depth, and closures that rest on sampling or on a bounded value pool
    are flagged as bounded evidence.
    """
    context = context or ProofContext(program)
    want = normalize(phi)

    if mode == "abstract":
        translated = _translate_update(context, gamma, update)
        result = None
        if translated is not None:
            result = _inclusion_discharge(translated, want)
            if result.closed:
                return result
        # concrete fallback, but only for run-free updates: evaluating a run
        # marker would inline the body a contract is meant to abstract
        if any(isinstance(u, URun) for u in update):
            if result is not None:
                return result
            return Discharge(
                False, "abstract engine failed and the update contains run "
                       "markers (concrete evaluation would inline bodies)")
        concrete = _discharge_concrete(gamma, update, want, context, program)
        if concrete.closed or result is None:
            return concrete
        return result

    if mode == "concrete":
        return _discharge_concrete(gamma, update, want, context, program)
    raise ValueError(f"unknown discharge mode {mode!r}")


def _inclusion_discharge(lhs: Formula, rhs: Formula) -> Discharge:
    verdict = included(lhs, rhs)
    if verdict.status == "included":
        return Discharge(True, "language inclusion", bounded=verdict.bounded)
    if verdict.status == "counterexample":
        return Discharge(
            False, f"counterexample to inclusion: {verdict.counterexample!r}")
    return Discharge(False, f"inclusion unknown: {verdict.detail}")


def _discharge_concrete(gamma, update, want, context, program) -> Discharge:
    if program is None:
        return Discharge(False, "concrete engine needs the program")
    sigma = _store_state(context)
    havoc_traces = [None]
    bound_formula = None
    rest = update
    if update and isinstance(update[0], UHavoc):
        for j in gamma:
            if isinstance(j, LocalJudgment) and len(j.update) >= 1 \
                    and j.update[0] == update[0]:
                bound_formula = normalize(j.phi)
                break
        if bound_formula is None:
            return Discharge(False, "havoc prefix has no bounding judgment")
        chain = chop_chain(bound_formula)
        havoc_traces = sample_chain_traces(chain, sigma)
        if havoc_traces is None:
            return Discharge(False, "cannot sample the havoc prefix language")
        rest = update[1:]
    valuations = _sample_consts(
        [want] + ([bound_formula] if bound_formula is not None else []))
    checked = 0
    for consts in valuations:
        for hv in havoc_traces:
            if hv is not None:
                try:
                    if not member(hv, bound_formula, consts):
                        continue  # not actually in the havoc's language
                except fm.FormulaError:
                    continue
            base = hv if hv is not None else singleton(sigma)
            try:
                results = eval_update(rest, base, program, consts=consts)
            except (BoundExceeded, HavocPresent) as exc:
                return Discharge(False, f"concrete evaluation failed: {exc}")
            for t in results:
                checked += 1
                try:
                    if not member(t, want, consts):
                        return Discharge(
                            False, f"concrete trace violates the obligation: {t!r}")
                except fm.FormulaError as exc:
                    return Discharge(False, f"evaluation failed: {exc}")
    if checked == 0:
        return Discharge(False, "no concrete traces could be sampled")
    return Discharge(True, f"{checked} sampled evaluations satisfy the obligation",
                     bounded=True)


def _store_state(context) -> State:
    """Evaluation state consistent with the proof's symbolic store: each
    observed program variable carries its constant's sampled value."""
    if context is None or not context.store:
        return State({})
    bindings = {}
    for var, term in context.store.items():
        if isinstance(term, TLit):
            bindings[var] = term.value
        elif isinstance(term, TConst):
            bindings[var] = _witness_value(term.name)
    return State(bindings)


# --- proof context ----------------------------------------------------------------

class ProofContext:
    """Mutable bookkeeping for one procedure proof: fresh symbols, the
    symbolic store, instantiated callee contracts, and options."""

    def __init__(self, program=None, contracts=None, mode="abstract",
                 schedule_variant="auto", split_overrides=None):
        self.program = program
        self.contracts = contracts or {}
        self.mode = mode
        self.schedule_variant = schedule_variant
        self.store = {}
        self.run_instances = {}
        self._counter = itertools.count(1)
        self._const_counter = itertools.count(1)
        self.split_overrides = list(split_overrides or [])
        self.notes = []

    def fresh_id(self) -> int:
        return next(self._counter)

    def fresh_const(self, base: str) -> str:
        return f"{base}{next(self._const_counter)}"

    def next_split_override(self):
        if self.split_overrides:
            return self.split_overrides.pop(0)
        return None


def _store_term(store: dict, expr: Expr):
    if isinstance(expr, Lit):
        return TLit(expr.value)
    if isinstance(expr, Var) and expr.name in store:
        return store[expr.name]
    return None


# --- target chains and split selection ----------------------------------------------

@dataclass
class Target:
    """The positioned proof target plus the superseded targets it refines.

    ``chain`` is the top-level chop chain the cursor walks; every call or
    schedule rule replaces it with the contract-refined version and pushes
    the old formula onto ``carried``. The final obligation conjoins both, so
    acceptance never depends on how a split was chosen.
    """
    chain: list
    cursor: int = 0
    carried: list = field(default_factory=list)

    def formula(self) -> Formula:
        phi = chop_of(self.chain)
        for prev in self.carried:
            phi = And(phi, prev)
        return phi

    def positioned(self) -> Formula:
        return chop_of(self.chain)

    def copy(self) -> "Target":
        return Target(list(self.chain), self.cursor, list(self.carried))

    def clamp(self):
        self.cursor = max(0, min(self.cursor, len(self.chain) - 1))

    def advance_over_event(self, probe: EventF):
        """Move the cursor past the event atom equal to the emitted event's
        shape.

        Flexible segments ahead are skipped during the search (they may be
        arbitrarily thin); an unmatched event atom stops it, since that atom
        must be produced by an earlier emission. Without a matching atom the
        cursor settles into the first flexible segment that admits the
        event; conservative otherwise.
        """
        j = self.cursor
        while j < len(self.chain):
            seg = self.chain[j]
            if isinstance(seg, EventF):
                if seg == probe:
                    self.cursor = min(j + 1, len(self.chain) - 1)
                    return
                break
            if isinstance(seg, (NoEv, Pred)):
                j += 1
                continue
            break
        j = self.cursor
        while j < len(self.chain):
            seg = self.chain[j]
            if isinstance(seg, NoEv):
                if seg.excluded is ALL_EVENTS:
                    fits = False
                else:
                    fits = not any(_may_match(p, probe)
                                   for p in seg.excluded)
                if fits:
                    self.cursor = j
                    return
                j += 1
                continue
            if isinstance(seg, Pred):
                j += 1
                continue
            return
        self.clamp()


def _match_chain_events(chain: list, events: list, start: int):
    """Split one chop chain around an in-order embedding of the events.

    Returns (theta segments, tail segments) with flexible boundary segments
    shared, or None when the events do not all occur from ``start`` on.
    """
    n = len(chain)
    positions = []
    j = start
    for ev in events:
        found = None
        while j < n:
            seg = chain[j]
            if isinstance(seg, EventF) and seg == ev:
                found = j
                j += 1
                break
            j += 1
        if found is None:
            return None
        positions.append(found)
    lo, hi = start, positions[-1] + 1
    theta = chain[lo:hi]
    if hi < n and isinstance(chain[hi], NoEv):
        theta = chain[lo:hi + 1]
        tail = chain[hi:]
    else:
        tail = chain[hi:]
    return theta, tail


def select_split(target: Target, callee: ContractInstance, override=None):
    """Choose prefix, fit slot, and remainder for a call or schedule step.

    The slot is found by embedding the callee's internal events into the
    target chain from the cursor onward, looking inside conjunctions when
    necessary; without a match the slot degrades to the unconstrained
    segment (the fit premise is then trivial, and the carried original
    target keeps the final obligation honest).
    """
    chain = target.chain
    n = len(chain)
    c = min(target.cursor, n - 1)
    if override is not None:
        j, k = override
        j = max(0, min(j, n))
        k = max(j, min(k, n))
        prefix = chain[:j]
        theta = chop_of(chain[j:k]) if k > j else NoEv(frozenset())
        rest = chain[k:] or [Pred(TRUE)]
        return prefix, theta, rest

    internal_events = [seg for seg in callee.internal_chain()
                       if isinstance(seg, EventF)]
    if internal_events:
        hit = _match_chain_events(chain, internal_events, c)
        if hit is not None:
            theta, tail = hit
            prefix = chain[:c + 1] if isinstance(chain[c], NoEv) else chain[:c]
            return prefix, chop_of(theta), (tail or [Pred(TRUE)])
        seg = chain[c]
        if isinstance(seg, And):
            conj = conjuncts(seg)
            thetas, tails = [], []
            matched_any = False
            for part in conj:
                part_chain = chop_chain(part)
                hit = _match_chain_events(part_chain, internal_events, 0)
                if hit is None:
                    thetas.append(None)
                    tails.append(part)
                else:
                    matched_any = True
                    theta, tail = hit
                    thetas.append(chop_of(theta))
                    tails.append(chop_of(tail) if tail else Pred(TRUE))
            if matched_any:
                theta = None
                for t in thetas:
                    if t is None:
                        continue
                    theta = t if theta is None else And(theta, t)
                rest_atom = None
                for t in tails:
                    rest_atom = t if rest_atom is None else And(rest_atom, t)
                prefix = chain[:c]
                return prefix, theta, [normalize(rest_atom)]

    # no embedding: lenient slot, remainder keeps everything from the cursor
    if isinstance(chain[c], NoEv):
        prefix = chain[:c + 1]
    else:
        prefix = chain[:c]
    return prefix, NoEv(frozenset()), chain[c:]


def _rebuild_target(target: Target, prefix, callee: ContractInstance,
                    rest) -> tuple:
    """Target after a call rule: (prefix /\\ pre) ** internal ** (rest /\\ post),
    with the superseded target carried along for the final obligation.

    Parts that normalize to plain chop chains are spliced as segments so the
    cursor and later splits keep seeing event atoms.
    """
    pre_part = callee.pre
    if prefix:
        pre_part = normalize(And(chop_of(prefix), callee.pre))
    else:
        pre_part = normalize(pre_part)
    post_part = callee.post
    if rest:
        post_part = normalize(And(chop_of(rest), callee.post))
    else:
        post_part = normalize(post_part)
    internal = callee.internal_chain()
    new_chain = chop_chain(pre_part) + internal + chop_chain(post_part)
    carried = list(target.carried) + [target.positioned()]
    new = Target(chain=[normalize(seg) for seg in new_chain], carried=carried)
    new.cursor = len(chop_chain(pre_part)) + len(internal)
    new.clamp()
    return new, pre_part


# --- the proof rules ------------------------------------------------------------------

def _discharge_node(gamma, update, phi, context, label) -> ProofNode:
    d = discharge_local(gamma, update, phi, mode=context.mode, context=context,
                        program=context.program)
    status = CLOSED if d.closed else OPEN
    return ProofNode(rule=label,
                     conclusion=f"{update_repr(update)} : {normalize(phi)!r}",
                     status=status, evidence=d.evidence, bounded=d.bounded)


def _included_node(lhs, rhs, label) -> ProofNode:
    d = _inclusion_discharge(lhs, rhs)
    return ProofNode(rule=label, conclusion=f"{lhs!r} (= {rhs!r}",
                     status=CLOSED if d.closed else OPEN, evidence=d.evidence,
                     bounded=d.bounded)


def apply_contract_rule(m: str, c: ContractDecl, gamma: list,
                        program: Program, context: ProofContext) -> ProofNode:
    """Root inference: skolemize the observation binders, assume the
    pre-trace for a havoc prefix, and verify the inlined body globally."""
    havoc = UHavoc("V")
    y1 = [y for _, y in c.pre_binders]
    y2 = [y for _, y in c.post_binders]
    c1 = [context.fresh_const(f"c_{y}") for y in y1]
    c2 = [context.fresh_const(f"c_{y}") for y in y2]
    # the store maps observed program variables to their skolem constants
    for (pvar, _), cname in zip(c.pre_binders, c1):
        context.store.setdefault(pvar, TConst(cname))
    sub1 = {y: TConst(cn) for y, cn in zip(y1, c1)}
    sub2 = {y: TConst(cn) for y, cn in zip(y2, c2)}
    pre_body = subst_terms(strip_obs(c.pre_body, y1), sub1)
    qa = Pred(subst_terms(Pred(c.pre_pred), sub1).expr)
    internal = subst_terms(strip_obs(c.internal_body, y1 + y2), {**sub1, **sub2})
    qc = Pred(subst_terms(Pred(c.post_pred), {**sub1, **sub2}).expr)
    theta_pre = normalize(Chop(pre_body, qa))
    theta_post = normalize(chop_of([pre_body, qa, internal, qc]))

    u0 = (havoc, UEvent("start", name=m, id=O_ID))
    pre_judgment = LocalJudgment(u0, theta_pre)
    gamma2 = gamma + [pre_judgment]
    body = lookup(m, program) if m != "init" else program.init_body
    target = Target(chain=chop_chain(theta_post))
    target.advance_over_event(EventF("start", m, TLit(O_ID)))
    subtree = _symexec(gamma2, u0, body, target, m, context)
    node = ProofNode(rule="Contract",
                     conclusion=f"|- {m} : C_{m}", premises=[subtree])
    return node


def _symexec(gamma: list, update: Update, stmt: Optional[Stmt], target: Target,
             m: str, context: ProofContext) -> ProofNode:
    """Symbolic execution of the remaining statement under the update."""
    if stmt is None:
        return _update_phase(gamma, update, target, m, context)
    items = seq_items(stmt)
    head, rest = items[0], (seq(*items[1:]) if len(items) > 1 else None)

    if isinstance(head, Skip):
        return _symexec(gamma, update, rest, target, m, context)

    if isinstance(head, Assign):
        term = _store_term(context.store, head.expr)
        if term is not None:
            context.store[head.var] = term
        else:
            context.store.pop(head.var, None)
        u2 = update + (UAssign(head.var, head.expr),)
        sub = _symexec(gamma, u2, rest, target, m, context)
        return ProofNode(rule="Assign",
                         conclusion=f"{update_repr(update)} {head} ...",
                         premises=[sub])

    if isinstance(head, If):
        guard = _guard_formula(head.cond, context.store)
        neg = _guard_formula(Not(head.cond), context.store)
        then_gamma = gamma + [LocalJudgment(update, guard)]
        else_gamma = gamma + [LocalJudgment(update, neg)]
        then_target = target.copy()
        else_target = target.copy()
        then_branch = _symexec(then_gamma, update,
                               _cont(head.body, rest), then_target, m, context)
        else_branch = _symexec(else_gamma, update, rest, else_target, m, context)
        return ProofNode(rule="Cond",
                         conclusion=f"{update_repr(update)} if({head.cond}) ...",
                         premises=[then_branch, else_branch])

    if isinstance(head, Return):
        u2 = update + (UEvent("ret", id=O_ID),)
        target.advance_over_event(EventF("ret", id=TLit(O_ID)))
        sub = _symexec(gamma, u2, rest, target, m, context)
        return ProofNode(rule="Return",
                         conclusion=f"{update_repr(update)} return",
                         premises=[sub])

    if isinstance(head, AsyncCall):
        i = context.fresh_id()
        u2 = update + (UEvent("invoc", name=head.name, id=i),)
        sub = _symexec(gamma, u2, rest, target, m, context)
        return ProofNode(rule="AsyncCall",
                         conclusion=f"{update_repr(update)} !{head.name}() ...",
                         premises=[sub])

    if isinstance(head, FileOp):
        term = _store_term(context.store, head.operand)
        u2 = update + (UEvent(head.op, file_expr=head.operand, file_term=term),)
        premises = []
        if head.op in ("close", "read", "write"):
            guard = _file_guard(term, head.operand)
            premises.append(_discharge_node(gamma, update, guard, context,
                                            "FileGuard"))
        target.advance_over_event(EventF(
            head.op, payload=term if isinstance(term, (TLit, TConst)) else None))
        sub = _symexec(gamma, u2, rest, target, m, context)
        premises.append(sub)
        rule = head.op.capitalize()
        return ProofNode(rule=rule,
                         conclusion=f"{update_repr(update)} {head} ...",
                         premises=premises)

    if isinstance(head, SyncCall):
        return _apply_call(gamma, update, head.name, rest, target, m, context)

    raise TypeError(f"cannot symbolically execute {head!r}")


def _cont(body: Stmt, rest: Optional[Stmt]) -> Stmt:
    if rest is None:
        return body
    return seq(*(seq_items(body) + seq_items(rest)))


def _guard_formula(expr, store) -> Formula:
    """The branch guard as a trace formula over the symbolic store."""
    term = _expr_to_term(expr, store)
    if term is None:
        return NoEv(frozenset())  # unknown guard: no usable constraint
    return Chop(NoEv(frozenset()), Pred(term))


def _expr_to_term(expr, store):
    if isinstance(expr, Lit):
        return TLit(expr.value)
    if isinstance(expr, Var):
        return store.get(expr.name)
    if isinstance(expr, Not):
        inner = _expr_to_term(expr.arg, store)
        return None if inner is None else fm.LNot(inner)
    if isinstance(expr, BinOp):
        a = _expr_to_term(expr.lhs, store)
        b = _expr_to_term(expr.rhs, store)
        if a is None or b is None:
            return None
        return fm.LBinOp(expr.op, a, b)
    return None


def _file_guard(term, operand) -> Formula:
    """close/read/write require an open with no close since."""
    payload = term if term is not None else WILDCARD
    return chop_of([
        NoEv(frozenset()),
        EventF("open", payload=payload),
        NoEv(frozenset([EventF("close", payload=payload)])),
    ])


def _apply_call(gamma, update, callee: str, rest, target: Target, m: str,
                context: ProofContext) -> ProofNode:
    contract = _contract_for(gamma, callee)
    if contract is None:
        leaf = ProofNode(rule="Call",
                         conclusion=f"{update_repr(update)} {callee}() ...",
                         status=OPEN,
                         evidence=f"no contract judgment for {callee!r}")
        return leaf
    i = context.fresh_id()
    inst = instantiate_contract(contract, context.store, context.fresh_const)
    context.run_instances[(callee, i, "sy")] = inst
    prefix, theta, rest_chain = select_split(
        target, inst, context.next_split_override())
    premises = []
    pre_target = inst.pre if not prefix else And(chop_of(prefix), inst.pre)
    premises.append(_discharge_node(gamma, update, pre_target, context, "CallPre"))
    premises.append(_included_node(inst.internal, theta, "CallFit"))
    u2 = update + (URun(callee, i, "sy"),)
    new_target, pre_part = _rebuild_target(target, prefix, inst, rest_chain)
    gamma2 = gamma + [LocalJudgment(
        u2, normalize(chop_of([pre_part] + inst.internal_chain())))]
    sub = _symexec(gamma2, u2, rest, new_target, m, context)
    premises.append(sub)
    return ProofNode(rule="Call",
                     conclusion=f"{update_repr(update)} {callee}() ...",
                     premises=premises)


def _contract_for(gamma, name) -> Optional[ContractDecl]:
    for j in gamma:
        if isinstance(j, ContractJudgment) and j.name == name:
            return j.contract
    return None


def _update_phase(gamma, update: Update, target: Target, m: str,
                  context: ProofContext) -> ProofNode:
    eligible = sorted(schedule_update(update), key=lambda s: (s[1], s[0]))
    if not eligible:
        return apply_finish_rule(gamma, update, target, m, context)
    if context.schedule_variant == "actOrder":
        rule = "actOrder"
        choices = eligible
    elif len(eligible) == 1:
        rule = "ScheduleD"
        choices = [eligible[0]]
    else:
        rule = "ScheduleN"
        choices = eligible
    premises = []
    contracts_by_name = context.contracts
    for (name, i) in choices:
        clist = contracts_by_name.get(name)
        if isinstance(clist, ContractDecl):
            clist = [clist]
        if rule == "actOrder" and clist:
            clist = max_contracts(clist)
            context.notes.append(
                "actOrder applies the maximal contracts of each schedulable "
                "procedure; the ordering over scheduled pairs follows the "
                "contract order")
        contract = _contract_for(gamma, name)
        use = clist if clist else ([contract] if contract else [])
        if not use:
            premises.append(ProofNode(
                rule=rule, conclusion=f"schedule {(name, i)}",
                status=OPEN, evidence=f"no contract for {name!r}"))
            continue
        for c in use:
            premises.extend(
                _schedule_premises(gamma, update, name, i, c, target, m, context))
    return ProofNode(rule=rule,
                     conclusion=f"{update_repr(update)} :G schedule {eligible}",
                     premises=premises)


def _schedule_premises(gamma, update, name, i, c: ContractDecl, target: Target,
                       m: str, context: ProofContext) -> list:
    inst = instantiate_contract(c, context.store, context.fresh_const)
    context.run_instances[(name, i, "as")] = inst
    prefix, theta, rest_chain = select_split(
        target, inst, context.next_split_override())
    premises = []
    pre_target = inst.pre if not prefix else And(chop_of(prefix), inst.pre)
    premises.append(_discharge_node(gamma, update, pre_target, context,
                                    "SchedulePre"))
    premises.append(_included_node(inst.internal, theta, "ScheduleFit"))
    u2 = update + (URun(name, i, "as"),)
    new_target, pre_part = _rebuild_target(target, prefix, inst, rest_chain)
    gamma2 = gamma + [LocalJudgment(
        u2, normalize(chop_of([pre_part] + inst.internal_chain())))]
    sub = _update_phase(gamma2, u2, new_target, m, context)
    premises.append(sub)
    return premises


def apply_finish_rule(gamma, update: Update, target: Target, m: str,
                      context: ProofContext) -> ProofNode:
    """No invocation left to schedule: add the pop and reduce to a local
    judgment against the accumulated target."""
    if schedule_update(update):
        raise VerifierError("Finish requires an empty schedule")
    u2 = update + (UEvent("pop", name=m, id=O_ID),)
    leaf = _discharge_node(gamma, u2, target.formula(), context, "PostObligation")
    return ProofNode(rule="Finish",
                     conclusion=f"{update_repr(update)} :G {target.formula()!r}",
                     premises=[leaf])


# --- whole-procedure verification ----------------------------------------------------

def verify_procedure(program: Program, contracts: dict, m: str,
                     mode: str = "abstract", schedule_variant: str = "auto",
                     split_overrides=None) -> ProofNode:
    """Prove the weak-adherence contract judgment for one procedure."""
    if m not in contracts:
        raise VerifierError(f"no contract for procedure {m!r}")
    own = contracts[m]
    if isinstance(own, list):
        own = own[0]
    context = ProofContext(program=program, contracts=contracts, mode=mode,
                           schedule_variant=schedule_variant,
                           split_overrides=split_overrides)
    gamma = [ContractJudgment(n, c if isinstance(c, ContractDecl) else c[0])
             for n, c in sorted(contracts.items()) if n != m]
    root = apply_contract_rule(m, own, gamma, program, context)
    root.notes = tuple(context.notes)
    return root


def verify_program(program: Program, contracts: dict, mode: str = "abstract",
                   schedule_variant: str = "auto") -> dict:
    """Proof trees for every procedure including init."""
    from .syntax import INIT_NAME
    names = [p.name for p in program.procedures] + [INIT_NAME]
    missing = [n for n in names if n not in contracts]
    if missing:
        raise VerifierError(f"missing contracts for: {missing}")
    return {n: verify_procedure(program, contracts, n, mode=mode,
                                schedule_variant=schedule_variant)
            for n in names}


# --- Liskov subtyping ------------------------------------------------------------------

@dataclass(frozen=True)
class SubtypeVerdict:
    status: str  # "proved" | "disproved" | "unknown"
    failed_condition: Optional[str] = None  # "L1" | "L2" | "L3"
    counterexample: Optional[Trace] = None
    bounded: bool = False  # some condition held only on a bounded value pool

    def __bool__(self):
        return self.status == "proved"


def _shared_skolem(c1: ContractDecl, c2: ContractDecl):
    """Instantiate both contracts' binders with shared constants so the
    three inclusion conditions compare closed formulas."""
    def pairs(c):
        return list(c.pre_binders) + list(c.post_binders)

    if [x for x, _ in pairs(c1)] != [x for x, _ in pairs(c2)]:
        return None
    mapping1, mapping2 = {}, {}
    for idx, ((x1, y1), (_, y2)) in enumerate(zip(pairs(c1), pairs(c2))):
        const = TConst(f"c{idx}_{x1}")
        mapping1[y1] = const
        mapping2[y2] = const

    def inst(c, mapping):
        ys = [y for _, y in pairs(c)]
        pre = subst_terms(strip_obs(c.pre_body, ys), mapping)
        qa = subst_terms(Pred(c.pre_pred), mapping).expr
        internal = subst_terms(strip_obs(c.internal_body, ys), mapping)
        qc = subst_terms(Pred(c.post_pred), mapping).expr
        post = subst_terms(strip_obs(c.post_body, ys), mapping)
        return pre, qa, internal, qc, post

    return inst(c1, mapping1), inst(c2, mapping2)


def subtype(c1: ContractDecl, c2: ContractDecl) -> SubtypeVerdict:
    """Whether c1 is more general than c2 (conditions L1, L2, L3).

    "proved" needs all three inclusions decided exactly; one that holds only
    on a bounded value pool makes the verdict "unknown" and ``bounded``."""
    shared = _shared_skolem(c1, c2)
    if shared is None:
        return SubtypeVerdict("unknown")
    (pre1, qa1, int1, qc1, post1), (pre2, qa2, int2, qc2, post2) = shared

    verdicts = []
    for name, lhs, rhs in (("L1", Chop(pre1, Pred(qa1)), Chop(pre2, Pred(qa2))),
                           ("L2", Chop(int2, Pred(qc2)), Chop(int1, Pred(qc1))),
                           ("L3", post1, post2)):
        v = included(normalize(lhs), normalize(rhs))
        if v.status == "counterexample":
            return SubtypeVerdict("disproved", name, v.counterexample)
        verdicts.append(v)
    bounded = any(v.bounded for v in verdicts)
    if all(v.status == "included" for v in verdicts) and not bounded:
        return SubtypeVerdict("proved")
    return SubtypeVerdict("unknown", bounded=bounded)


def max_contracts(contracts: list) -> list:
    """Maximal elements under the more-general-than order; unknown
    comparisons count as incomparable."""
    result = []
    for c in contracts:
        dominated = False
        for other in contracts:
            if other is c:
                continue
            if subtype(other, c).status == "proved" \
                    and subtype(c, other).status != "proved":
                dominated = True
                break
        if not dominated:
            result.append(c)
    return result
