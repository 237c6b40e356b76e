"""Seeded random generators for programs, contracts, updates, and traces.

Generated programs always terminate: calls (synchronous and asynchronous)
only target later procedures, so the call graph is acyclic. Generated
updates have the shape of a completed scope — activation, body effects,
return, then a subset of the invoked procedures scheduled — which is the
shape the scheduling machinery is defined over.
"""

from __future__ import annotations

import random

from . import formula as fm
from .contracts import ContractDecl
from .formula import EventF, NoEv, Pred, TLit, TRUE
from .syntax import (Assign, AsyncCall, BinOp, FileOp, If, Lit, Program,
                     ProcDecl, Return, Skip, SyncCall, Var, seq,
                     validate_program)
from .trace import Event, State, Trace
from .verifier import UAssign, UEvent, URun

FILES = ("fa", "fb")
VARS = ("x", "y")


def gen_program(rng: random.Random, max_procs: int = 4, max_stmts: int = 6,
                file_ops: bool = True, force_file_safe: bool = False) -> Program:
    n = rng.randint(1, max_procs)
    names = [f"p{i}" for i in range(n)]
    procs = []
    for i, name in enumerate(names):
        callees = names[i + 1:]
        body = _gen_body(rng, callees, rng.randint(0, max_stmts - 1),
                         file_ops, force_file_safe)
        procs.append(ProcDecl(name, seq(*(body + [Return()]))))
    init_stmts = _gen_body(rng, names, rng.randint(1, max_stmts),
                           file_ops, force_file_safe)
    program = Program(tuple(procs), tuple(VARS),
                      seq(*(init_stmts + [Return()])))
    validate_program(program)
    return program


def _gen_body(rng, callees, count, file_ops, force_file_safe):
    stmts = []
    opened = set()
    for _ in range(count):
        kind = rng.random()
        if kind < 0.25:
            var = rng.choice(VARS)
            stmts.append(Assign(var, _gen_expr(rng)))
        elif kind < 0.45 and callees:
            name = rng.choice(callees)
            stmts.append(SyncCall(name) if rng.random() < 0.5 else AsyncCall(name))
        elif kind < 0.6 and file_ops:
            f = rng.choice(FILES)
            op = rng.choice(("open", "close", "read", "write"))
            if force_file_safe:
                if op == "open":
                    opened.add(f)
                elif f not in opened:
                    op = "open"
                    opened.add(f)
                elif op == "close":
                    opened.discard(f)
            stmts.append(FileOp(op, Lit(f)))
        elif kind < 0.75:
            guard = BinOp(rng.choice(("<", "==", ">")),
                          Var(rng.choice(VARS)), Lit(rng.randint(0, 2)))
            inner = _gen_body(rng, callees, 1, file_ops, force_file_safe)
            stmts.append(If(guard, seq(*(inner or [Skip()]))))
        else:
            stmts.append(Skip())
    return stmts or [Skip()]


def _gen_expr(rng):
    r = rng.random()
    if r < 0.4:
        return Lit(rng.randint(0, 3))
    if r < 0.7:
        return Var(rng.choice(VARS))
    return BinOp(rng.choice(("+", "-", "*")),
                 Var(rng.choice(VARS)), Lit(rng.randint(0, 2)))


ANY = NoEv(frozenset())


def trivial_contract(name: str) -> ContractDecl:
    """The always-satisfied contract: unconstrained everywhere."""
    return ContractDecl(name=name, pre_body=ANY, pre_binders=(), pre_pred=TRUE,
                        internal_body=ANY, post_binders=(), post_pred=TRUE,
                        post_body=ANY)


def _files_read_without_open(stmt) -> set:
    """Literal files a body touches before opening them itself."""
    from .syntax import seq_items
    needed, opened = set(), set()

    def walk(items):
        for s in items:
            if isinstance(s, FileOp) and isinstance(s.operand, Lit):
                if s.op == "open":
                    opened.add(s.operand.value)
                elif s.operand.value not in opened:
                    needed.add(s.operand.value)
            elif isinstance(s, If):
                walk(seq_items(s.body))

    walk(seq_items(stmt))
    return needed


def moderate_contract(name: str, body) -> ContractDecl:
    """A contract whose pre-trace supplies the opens the body relies on."""
    needed = sorted(_files_read_without_open(body))
    pre = ANY
    for f in needed:
        pre = fm.Chop(pre, fm.Chop(
            EventF("open", payload=TLit(f)),
            NoEv(frozenset([EventF("close", payload=TLit(f))]))))
    return ContractDecl(name=name, pre_body=pre, pre_binders=(), pre_pred=TRUE,
                        internal_body=ANY, post_binders=(), post_pred=TRUE,
                        post_body=ANY)


def gen_contracts(rng: random.Random, program: Program,
                  moderate: bool = False) -> dict:
    out = {"init": trivial_contract("init")}
    for p in program.procedures:
        if moderate and rng.random() < 0.6:
            out[p.name] = moderate_contract(p.name, p.body)
        else:
            out[p.name] = trivial_contract(p.name)
    return out


# --- updates -----------------------------------------------------------------

def gen_update(rng: random.Random, program: Program, owner: str = None):
    """A completed-scope update over the program: activation, body effects,
    return, then some of the invoked procedures scheduled asynchronously."""
    names = [p.name for p in program.procedures]
    owner = owner or rng.choice(names + ["init"])
    update = [UEvent("start", name=owner, id=0)]
    next_id = 1
    invoked = []
    for _ in range(rng.randint(0, 4)):
        r = rng.random()
        if r < 0.3:
            update.append(UAssign(rng.choice(VARS), _gen_expr(rng)))
        elif r < 0.55 and names:
            m = rng.choice(names)
            update.append(UEvent("invoc", name=m, id=next_id))
            invoked.append((m, next_id))
            next_id += 1
        elif r < 0.75 and names:
            m = rng.choice(names)
            update.append(URun(m, next_id, "sy"))
            next_id += 1
        else:
            f = rng.choice(FILES)
            update.append(UEvent(rng.choice(("open", "close", "read", "write")),
                                 file_expr=Lit(f), file_term=TLit(f)))
    update.append(UEvent("ret", id=0))
    rng.shuffle(invoked)
    scheduled = invoked[:rng.randint(0, len(invoked))]
    for (m, i) in scheduled:
        update.append(URun(m, i, "as"))
    return tuple(update)


# --- traces and formulas for the logic tests ------------------------------------

def _states(n: int):
    return [State({"x": i}) for i in range(n)]


def gen_trace(rng: random.Random, max_len: int = 10, n_states: int = 2,
              events=None, well_formed: bool = True) -> Trace:
    states = _states(n_states)
    events = events if events is not None else [
        Event("open", file="fa"), Event("close", file="fa"),
        Event("ret", id=1),
    ]
    items = [rng.choice(states)]
    while len(items) < rng.randint(1, max_len):
        if well_formed:
            if rng.random() < 0.5 and len(items) + 2 <= max_len and events:
                ev = rng.choice(events)
                items.extend([ev, items[-1] if isinstance(items[-1], State)
                              else rng.choice(states)])
                continue
            items.append(rng.choice(states))
        else:
            pool = states + events
            items.append(rng.choice(pool))
    if well_formed and not isinstance(items[-1], State):
        items.append(rng.choice(states))
    return Trace(items)


def gen_raw_trace(rng: random.Random, max_len: int, alphabet) -> Trace:
    n = rng.randint(1, max_len)
    return Trace([rng.choice(alphabet) for _ in range(n)])


def gen_formula(rng: random.Random, depth: int = 3):
    """Random closed formula over a small fixed alphabet of events."""
    if depth <= 0:
        r = rng.random()
        if r < 0.3:
            return Pred(fm.LBinOp(rng.choice(("<", ">", "==")),
                                  TLit(rng.randint(0, 2)), TLit(rng.randint(0, 2))))
        if r < 0.5:
            return NoEv(frozenset())
        if r < 0.7:
            return NoEv(frozenset([EventF("open", payload=TLit("fa"))]))
        if r < 0.85:
            return EventF("open", payload=TLit("fa"))
        return EventF("close", payload=TLit("fa"))
    r = rng.random()
    if r < 0.25:
        return fm.Chop(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1))
    if r < 0.45:
        return fm.Concat(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1))
    if r < 0.65:
        return fm.And(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1))
    if r < 0.85:
        return fm.Or(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1))
    return gen_formula(rng, 0)
