"""Fixed-point trace logic: formula AST, finite-trace membership, and
language inclusion.

Both questions are answered by one automaton: Antimirov partial
derivatives of formulas over trace items, residual terms interned as ints.
Membership of a concrete trace runs it over the trace's items, one letter
per distinct item, and accepts when a residual is nullable (derivative-based
monitoring, as in Rosu and Havelund). Inclusion is decided exactly for the
regular fragment: under each constant valuation from a finite pool, the
automata run over a finite alphabet of trace items, and a breadth-first
antichain search (De Wulf, Doyen, Henzinger and Raskin) finds the shortest
well-formed counterexample trace, if there is one. Recursion must be
right-linear for both.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .trace import EVENT_TAGS, FILE_TAGS, Event, State, Trace


class FormulaError(Exception):
    pass


class UnboundLogicVar(FormulaError):
    pass


class UnboundProgramVar(FormulaError):
    pass


class UnboundConstant(FormulaError):
    pass


# --- terms and predicate expressions ------------------------------------

class _Wildcard:
    def __repr__(self):
        return "_"


WILDCARD = _Wildcard()


@dataclass(frozen=True)
class TLit:
    value: object

    def __repr__(self):
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return '"%s"' % self.value
        return str(self.value)


@dataclass(frozen=True)
class TVar:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class TConst:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class LBinOp:
    op: str
    lhs: "LExpr"
    rhs: "LExpr"

    def __repr__(self):
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


@dataclass(frozen=True)
class LNot:
    arg: "LExpr"

    def __repr__(self):
        return f"!{self.arg!r}"


LExpr = TLit | TVar | TConst | LBinOp | LNot

TRUE = TLit(True)


def eval_term(term, obs_env, consts):
    """Value of a payload/predicate term under the observation environment."""
    if isinstance(term, TLit):
        return term.value
    if isinstance(term, TConst):
        if term.name not in consts:
            raise UnboundConstant(f"no valuation for constant {term.name!r}")
        return consts[term.name]
    if isinstance(term, TVar):
        if term.name not in obs_env:
            raise UnboundLogicVar(f"logic variable {term.name!r} is unbound")
        pvar, state = obs_env[term.name]
        if pvar not in state:
            raise UnboundProgramVar(
                f"observed program variable {pvar!r} is unbound in its state")
        return state.get(pvar)
    raise TypeError(f"not a term: {term!r}")


def eval_lexpr(expr, obs_env, consts):
    from .syntax import apply_binop, DEFAULT_VALUE
    if isinstance(expr, (TLit, TVar, TConst)):
        return eval_term(expr, obs_env, consts)
    if isinstance(expr, LNot):
        v = eval_lexpr(expr.arg, obs_env, consts)
        return (not v) if type(v) is bool else DEFAULT_VALUE
    if isinstance(expr, LBinOp):
        a = eval_lexpr(expr.lhs, obs_env, consts)
        b = eval_lexpr(expr.rhs, obs_env, consts)
        return apply_binop(expr.op, a, b)
    raise TypeError(f"not a predicate expression: {expr!r}")


def pred_holds(expr, obs_env, consts) -> bool:
    return eval_lexpr(expr, obs_env, consts) is True


# --- event shapes ---------------------------------------------------------

@dataclass(frozen=True)
class EventF:
    """Event shape: an event atom, and an entry of a ``~[...]`` exclusion.

    User-facing tags are start/ret/pop/open/close/read/write; the trace-level
    tags call/invoc/push occur in verifier-built formulas. ``start`` stands
    for both the call and the push of the scope; the other tags map one-to-one
    onto trace events. The id constrains scope events and ``ret``, the payload
    file events; a field that is None or WILDCARD matches anything.
    """
    tag: str
    name: object = None      # str or WILDCARD
    id: object = None        # term or WILDCARD
    payload: object = None   # term or WILDCARD

    def trace_tags(self):
        if self.tag == "start":
            return ("call", "push")
        return (self.tag,)

    @property
    def term(self):
        """The term the event's file (file tags) or id (other tags) must equal."""
        return self.payload if self.tag in FILE_TAGS else self.id

    def value(self, obs_env, consts):
        """The value of ``term`` under the environment, or WILDCARD."""
        t = self.term
        if t is None or t is WILDCARD:
            return WILDCARD
        return eval_term(t, obs_env, consts)

    def fits(self, ev: Event) -> bool:
        """Whether the event's tag and name agree with the shape."""
        return ev.tag in self.trace_tags() and (
            self.name is None or self.name is WILDCARD or ev.name == self.name)

    def has_value(self, ev: Event, value) -> bool:
        """Whether the event's file or id is ``value`` (WILDCARD: any)."""
        return value is WILDCARD or value == (
            ev.file if ev.tag in FILE_TAGS else ev.id)

    def matches(self, ev: Event, obs_env, consts) -> bool:
        # the term is evaluated only for an event whose tag and name agree
        return self.fits(ev) and self.has_value(ev, self.value(obs_env, consts))

    def __repr__(self):
        if self.tag in ("start", "pop", "call", "invoc", "push"):
            return f"{self.tag}({self.name},{self.id!r})"
        if self.tag == "ret":
            return f"ret({self.id!r})"
        return f"{self.tag}({self.payload!r})"


class _AllEvents:
    """Exclusion marker for 'any event at all'."""

    def __repr__(self):
        return "*"


ALL_EVENTS = _AllEvents()


def _excludes(excluded, ev: Event, obs_env, consts) -> bool:
    if excluded is ALL_EVENTS:
        return True
    return any(p.matches(ev, obs_env, consts) for p in excluded)


# --- formula AST ----------------------------------------------------------

@dataclass(frozen=True)
class Pred:
    expr: LExpr

    def __repr__(self):
        return f"[{self.expr!r}]"


@dataclass(frozen=True)
class RecVar:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"

    def __repr__(self):
        return f"({self.lhs!r} /\\ {self.rhs!r})"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"

    def __repr__(self):
        return f"({self.lhs!r} \\/ {self.rhs!r})"


def _seq_operand(phi, right: bool) -> str:
    # sequencing is parsed left-associatively at one precedence level, so a
    # right-nested sequence and any boolean child need parentheses
    if isinstance(phi, (And, Or)) or (right and isinstance(phi, (Concat, Chop))):
        return f"({phi!r})"
    return repr(phi)


@dataclass(frozen=True)
class Concat:
    lhs: "Formula"
    rhs: "Formula"

    def __repr__(self):
        return f"{_seq_operand(self.lhs, False)} . {_seq_operand(self.rhs, True)}"


@dataclass(frozen=True)
class Chop:
    lhs: "Formula"
    rhs: "Formula"

    def __repr__(self):
        return f"{_seq_operand(self.lhs, False)} ** {_seq_operand(self.rhs, True)}"


@dataclass(frozen=True)
class Mu:
    var: str
    body: "Formula"

    def __repr__(self):
        return f"(mu {self.var} . {self.body!r})"


@dataclass(frozen=True)
class Obs:
    pvar: str
    lvar: str
    body: "Formula"

    def __repr__(self):
        return f"(obs {self.pvar} as {self.lvar} . {self.body!r})"


@dataclass(frozen=True)
class NoEv:
    """All non-empty finite traces without events matching the exclusions.

    With an empty exclusion set this is the unconstrained segment; with
    ALL_EVENTS it admits only event-free runs of states.
    """
    excluded: object = frozenset()  # frozenset[EventF] or ALL_EVENTS

    def __repr__(self):
        if self.excluded is ALL_EVENTS:
            return "~[*]"
        if not self.excluded:
            return "~"
        inner = ",".join(repr(p) for p in sorted(self.excluded, key=repr))
        return f"~[{inner}]"


@dataclass(frozen=True)
class NoEvItem:
    """Single-item denotation: any state, or any event not excluded.

    This is the item-level predicate used to encode NoEv as a least fixed
    point; it is not part of the surface syntax.
    """
    excluded: object = frozenset()

    def __repr__(self):
        return f"item~[{self.excluded!r}]"


Formula = (Pred | RecVar | EventF | And | Or | Concat | Chop | Mu | Obs
           | NoEv | NoEvItem)

ANY = NoEv(frozenset())
STATES_ONLY = NoEv(ALL_EVENTS)


def noev_mu_encoding(excluded) -> Mu:
    """The least-fixed-point definition of the no-event segment."""
    item = NoEvItem(excluded)
    return Mu("X", Or(item, Concat(item, RecVar("X"))))


def event_shapes(phi):
    """The event shapes an atom mentions: an event atom itself, or the
    entries of a no-event segment's exclusion set."""
    if isinstance(phi, EventF):
        return (phi,)
    if isinstance(phi, (NoEv, NoEvItem)) and phi.excluded is not ALL_EVENTS:
        return phi.excluded
    return ()


# --- free variables -------------------------------------------------------

def free_lvars(phi) -> frozenset:
    if isinstance(phi, Pred):
        return _lexpr_vars(phi.expr)
    if isinstance(phi, (EventF, NoEv, NoEvItem)):
        out = set()
        for p in event_shapes(phi):
            for t in (p.id, p.payload):
                if isinstance(t, TVar):
                    out.add(t.name)
        return frozenset(out)
    if isinstance(phi, (And, Or, Concat, Chop)):
        return free_lvars(phi.lhs) | free_lvars(phi.rhs)
    if isinstance(phi, Mu):
        return free_lvars(phi.body)
    if isinstance(phi, Obs):
        return free_lvars(phi.body) - {phi.lvar}
    return frozenset()


def _lexpr_vars(e) -> frozenset:
    if isinstance(e, TVar):
        return frozenset([e.name])
    if isinstance(e, LBinOp):
        return _lexpr_vars(e.lhs) | _lexpr_vars(e.rhs)
    if isinstance(e, LNot):
        return _lexpr_vars(e.arg)
    return frozenset()


def free_recvars(phi) -> frozenset:
    if isinstance(phi, RecVar):
        return frozenset([phi.name])
    if isinstance(phi, (And, Or, Concat, Chop)):
        return free_recvars(phi.lhs) | free_recvars(phi.rhs)
    if isinstance(phi, Mu):
        return free_recvars(phi.body) - {phi.var}
    if isinstance(phi, Obs):
        return free_recvars(phi.body)
    return frozenset()


def constants_in(phi) -> frozenset:
    out = set()

    def walk_term(t):
        if isinstance(t, TConst):
            out.add(t.name)
        elif isinstance(t, LBinOp):
            walk_term(t.lhs)
            walk_term(t.rhs)
        elif isinstance(t, LNot):
            walk_term(t.arg)

    def walk(phi):
        if isinstance(phi, Pred):
            walk_term(phi.expr)
        elif isinstance(phi, (And, Or, Concat, Chop)):
            walk(phi.lhs)
            walk(phi.rhs)
        elif isinstance(phi, (Mu, Obs)):
            walk(phi.body)
        else:
            for p in event_shapes(phi):
                walk_term(p.id)
                walk_term(p.payload)

    walk(phi)
    return frozenset(out)


def validate_no_recvar_under_obs(phi) -> None:
    """No recursion may cross an observation boundary.

    A recursion variable bound outside an observation quantifier cannot be
    used inside it; fixpoints fully contained in the observation's scope
    (such as the no-event segments every contract uses) are fine.
    """
    def walk(phi, bound, forbidden):
        if isinstance(phi, RecVar):
            if phi.name in forbidden:
                raise FormulaError(
                    f"recursion variable {phi.name!r} crosses an observation")
        elif isinstance(phi, (And, Or, Concat, Chop)):
            walk(phi.lhs, bound, forbidden)
            walk(phi.rhs, bound, forbidden)
        elif isinstance(phi, Mu):
            walk(phi.body, bound | {phi.var}, forbidden - {phi.var})
        elif isinstance(phi, Obs):
            walk(phi.body, bound, forbidden | bound)
    walk(phi, frozenset(), frozenset())


# --- substitution and skolemization --------------------------------------

def subst_terms(phi, mapping):
    """Replace logic variables by terms throughout; respects Obs shadowing."""
    def sub_term(t, m):
        if isinstance(t, TVar) and t.name in m:
            return m[t.name]
        if isinstance(t, LBinOp):
            return LBinOp(t.op, sub_term(t.lhs, m), sub_term(t.rhs, m))
        if isinstance(t, LNot):
            return LNot(sub_term(t.arg, m))
        return t

    def sub_event(p, m):
        return EventF(p.tag, p.name, sub_term(p.id, m), sub_term(p.payload, m))

    def walk(phi, m):
        if not m:
            return phi
        if isinstance(phi, Pred):
            return Pred(sub_term(phi.expr, m))
        if isinstance(phi, EventF):
            return sub_event(phi, m)
        if isinstance(phi, And):
            return And(walk(phi.lhs, m), walk(phi.rhs, m))
        if isinstance(phi, Or):
            return Or(walk(phi.lhs, m), walk(phi.rhs, m))
        if isinstance(phi, Concat):
            return Concat(walk(phi.lhs, m), walk(phi.rhs, m))
        if isinstance(phi, Chop):
            return Chop(walk(phi.lhs, m), walk(phi.rhs, m))
        if isinstance(phi, Mu):
            return Mu(phi.var, walk(phi.body, m))
        if isinstance(phi, Obs):
            inner = {k: v for k, v in m.items() if k != phi.lvar}
            return Obs(phi.pvar, phi.lvar, walk(phi.body, inner))
        if isinstance(phi, (NoEv, NoEvItem)) and phi.excluded is not ALL_EVENTS:
            return type(phi)(frozenset(sub_event(p, m) for p in phi.excluded))
        return phi

    return walk(phi, dict(mapping))


def skolemize(phi, lvars, const_names):
    """Substitute observation variables by fresh constant symbols.

    Recursion variables are untouched; the constants must not already occur
    in the formula.
    """
    if len(lvars) != len(const_names):
        raise ValueError("binder and constant lists differ in length")
    present = constants_in(phi)
    for c in const_names:
        if c in present:
            raise FormulaError(f"constant {c!r} is not fresh in the formula")
    return subst_terms(phi, {y: TConst(c) for y, c in zip(lvars, const_names)})


def strip_obs(phi, lvars):
    """Remove observation binders for the given variables, keeping bodies."""
    lvars = set(lvars)
    if isinstance(phi, Obs) and phi.lvar in lvars:
        return strip_obs(phi.body, lvars)
    if isinstance(phi, And):
        return And(strip_obs(phi.lhs, lvars), strip_obs(phi.rhs, lvars))
    if isinstance(phi, Or):
        return Or(strip_obs(phi.lhs, lvars), strip_obs(phi.rhs, lvars))
    if isinstance(phi, Concat):
        return Concat(strip_obs(phi.lhs, lvars), strip_obs(phi.rhs, lvars))
    if isinstance(phi, Chop):
        return Chop(strip_obs(phi.lhs, lvars), strip_obs(phi.rhs, lvars))
    if isinstance(phi, Mu):
        return Mu(phi.var, strip_obs(phi.body, lvars))
    if isinstance(phi, Obs):
        return Obs(phi.pvar, phi.lvar, strip_obs(phi.body, lvars))
    return phi


# --- normalization to chop chains ----------------------------------------

def chop_chain(phi) -> list:
    """Flatten nested chops into a segment list."""
    if isinstance(phi, Chop):
        return chop_chain(phi.lhs) + chop_chain(phi.rhs)
    return [phi]


def conjuncts(phi) -> list:
    """Flatten nested conjunctions into a conjunct list."""
    if isinstance(phi, And):
        return conjuncts(phi.lhs) + conjuncts(phi.rhs)
    return [phi]


def chop_of(segments) -> Formula:
    if not segments:
        raise ValueError("empty chop chain")
    result = segments[0]
    for s in segments[1:]:
        result = Chop(result, s)
    return result


def is_true_pred(phi) -> bool:
    return isinstance(phi, Pred) and phi.expr == TRUE


def is_any_seg(phi) -> bool:
    return isinstance(phi, NoEv) and phi.excluded is not ALL_EVENTS \
        and not phi.excluded


def normalize(phi) -> Formula:
    """Apply the unit laws: drop [true] chop units, merge equal adjacent
    no-event segments, drop universal conjuncts; recurse into subterms."""
    if isinstance(phi, Chop):
        segs = []
        for part in chop_chain(phi):
            part = normalize(part)
            for seg in (chop_chain(part) if isinstance(part, Chop) else [part]):
                segs.append(seg)
        out = []
        for seg in segs:
            if is_true_pred(seg):
                continue
            if out and isinstance(seg, NoEv) and out[-1] == seg:
                continue
            out.append(seg)
        if not out:
            return Pred(TRUE)
        return chop_of(out)
    if isinstance(phi, And):
        lhs, rhs = normalize(phi.lhs), normalize(phi.rhs)
        if is_any_seg(lhs):
            return rhs
        if is_any_seg(rhs):
            return lhs
        if lhs == rhs:
            return lhs
        return And(lhs, rhs)
    if isinstance(phi, Or):
        lhs, rhs = normalize(phi.lhs), normalize(phi.rhs)
        if lhs == rhs:
            return lhs
        return Or(lhs, rhs)
    if isinstance(phi, Concat):
        return Concat(normalize(phi.lhs), normalize(phi.rhs))
    if isinstance(phi, Mu):
        return Mu(phi.var, normalize(phi.body))
    if isinstance(phi, Obs):
        return Obs(phi.pvar, phi.lvar, normalize(phi.body))
    return phi


# --- language inclusion -----------------------------------------------------

@dataclass(frozen=True)
class Included:
    """Verdict of ``included``. ``bounded`` marks an "included" that rests
    on a value pool a predicate could outrun; a counterexample is a real
    one under ``valuation``."""
    status: str  # "included" | "counterexample" | "unknown"
    counterexample: Optional[Trace] = None
    valuation: Optional[tuple] = None
    detail: str = ""
    bounded: bool = False

    def __bool__(self):
        return self.status == "included"


def _pool_may_miss(e) -> bool:
    """Whether the value pool can miss a valuation of the predicate: it does
    arithmetic, or orders other than one unknown against an integer literal
    (the literals and their neighbours give every order type of that)."""
    if isinstance(e, LNot):
        return _pool_may_miss(e.arg)
    if not isinstance(e, LBinOp):
        return False
    lits = [x for x in (e.lhs, e.rhs) if isinstance(x, TLit)]
    unknowns = [x for x in (e.lhs, e.rhs) if isinstance(x, (TConst, TVar))]
    if e.op in ("+", "-", "*") or e.op in ("<", "<=", ">", ">=") and not (
            len(lits) == 2 or lits and unknowns and type(lits[0].value) is int):
        return True
    return _pool_may_miss(e.lhs) or _pool_may_miss(e.rhs)


def _collect_alphabet(phis):
    """Literals, constants with the positions they occur in ("id", "file",
    "pred"), observed program variables and their logic variables, event
    shapes, predicates, and the unknowns a predicate orders. ``ints`` holds
    the predicates' integer literals and their neighbours, ``int_lits``
    every integer literal."""
    info = {"strings": set(), "ints": set(), "id_lits": set(),
            "int_lits": set(), "consts": set(),
            "pvars": [], "lvars": [], "events": [], "preds": [],
            "ordered": set()}

    def walk_term(t, context):
        if isinstance(t, TLit) and not isinstance(t.value, bool):
            if isinstance(t.value, str):
                info["strings"].add(t.value)
                return
            info["int_lits"].add(t.value)
            if context == "pred":
                info["ints"].update({t.value - 1, t.value, t.value + 1})
            else:
                info["id_lits"].add(t.value)
        elif isinstance(t, TConst):
            info["consts"].add((t.name, context))
        elif isinstance(t, (LBinOp, LNot)):
            subs = (t.lhs, t.rhs) if isinstance(t, LBinOp) else (t.arg,)
            if isinstance(t, LBinOp) and t.op in ("<", "<=", ">", ">="):
                info["ordered"].update((type(x).__name__, x.name) for x in subs
                                       if isinstance(x, (TConst, TVar)))
            for sub in subs:
                walk_term(sub, context)

    def walk(phi):
        if isinstance(phi, Pred):
            info["preds"].append(phi.expr)
            walk_term(phi.expr, "pred")
        elif isinstance(phi, (And, Or, Concat, Chop)):
            walk(phi.lhs)
            walk(phi.rhs)
        elif isinstance(phi, (Mu, Obs)):
            if isinstance(phi, Obs):
                info["pvars"].append(phi.pvar)
                info["lvars"].append(phi.lvar)
            walk(phi.body)
        else:
            for p in event_shapes(phi):
                walk_term(p.id, "id")
                walk_term(p.payload, "file")
                info["events"].append(p)

    for phi in phis:
        walk(phi)
    return info


def _int_pool(info) -> list:
    """Integers that realise every way the unknowns (constants and observed
    values) can relate to the integer literals and to each other by
    equality: each literal and, for k unknowns that a predicate orders, its
    k nearest neighbours on either side, so that k unknowns find k distinct
    values in every gap between literals."""
    ordered = info["ordered"]
    k = len({n for kind, n in ordered if kind == "TConst"}) + sum(
        ("TVar", lv) in ordered for lv in info["lvars"])
    return sorted({x + d for x in info["int_lits"] for d in range(-k, k + 1)})


def _fresh(kind, ints, k):
    """The k-th value of its kind that no literal or pool value equals."""
    if kind == "int":
        return max(ints + [0]) + 2 + k
    return f"~v{k}~"


def _valuations(info):
    """Each constant takes a literal of its kind or a fresh value, fresh
    values enumerated up to equality. Constants only in id positions are
    integers, only in file positions strings; any other constant may be
    either, or a boolean."""
    kinds = {}
    for name, ctx in info["consts"]:
        kinds.setdefault(name, set()).add(ctx)
    strings, ints = sorted(info["strings"]), _int_pool(info)
    pools = {name: (("int",), ints) if ctxs == {"id"} else (("str",), strings)
             if ctxs == {"file"} else (("str", "int"), strings + ints + [True, False])
             for name, ctxs in kinds.items()}
    valuations = [({}, {"int": 0, "str": 0})]  # with fresh values used
    for name in sorted(kinds):
        fresh_kinds, pool = pools[name]
        extended = []
        for v, used in valuations:
            extended += [({**v, name: x}, used) for x in pool]
            extended += [({**v, name: _fresh(kind, ints, k)},
                          {**used, kind: max(used[kind], k + 1)})
                         for kind in fresh_kinds for k in range(used[kind] + 1)]
        valuations = extended
        if len(valuations) > _WORK_LIMIT // _VALUATION_COST:
            break  # past the limit already: ``included`` gives up
    return [v for v, _ in valuations]


# ``included`` answers "unknown" rather than search past this many units of
# work, a unit being about one letter tried at one search state (a few
# microseconds). Valuations multiply with the constants and state letters
# with the observed variables, so a formula with many of them would
# otherwise run for minutes. Building the alphabet and the derivatives for
# one valuation costs about _VALUATION_COST units.
_WORK_LIMIT = 10 ** 6
_VALUATION_COST = 100


def _work(info, valuations) -> int:
    """Rough units of work of the search over these valuations: each
    builds its alphabet and may try every state letter at every state."""
    states = len(_observed(info, valuations[0])) ** len(set(info["pvars"]))
    return len(valuations) * (_VALUATION_COST + states * states)


def _other(taken, make):
    k = 0
    while make(k) in taken:
        k += 1
    return make(k)


def _observed(info, consts) -> list:
    """The values an observed variable takes: every literal and constant,
    and a fresh string and integer per observation."""
    if not info["pvars"]:
        return []
    # fresh values past those the constants may take
    n, ints = len(info["consts"]), _int_pool(info)
    return list({  # bools never equal ints in the logic
        (type(v).__name__, v): v for v in sorted(info["strings"])
        + [True, False] + list(consts.values()) + ints}.values()) + [
        _fresh(kind, ints, n + k) for kind in ("str", "int")
        for k in range(len(info["pvars"]))]


def _letters(info, consts) -> list:
    """A trace item per class of items the formulas tell apart: a state per
    valuation of the observed variables, an event per combination of shape
    matches, call and push keeping their scope for ``start``."""
    observed = _observed(info, consts)
    states = [State({})]
    for pv in sorted(set(info["pvars"])):
        states = [s.update(pv, v) for s in states for v in observed]

    # the value of a shape whose term is an observed variable comes later
    shapes = [(p, None if isinstance(p.term, TVar) else p.value({}, consts))
              for p in info["events"]]
    starts = [(p, v) for p, v in shapes if p.tag == "start"]
    names = sorted({p.name for p, _ in shapes if isinstance(p.name, str)})
    values = [v for _, v in shapes] + observed
    ids = sorted({v for v in values if type(v) is int and v >= 0})
    files = sorted({v for v in values if type(v) is str})
    # a start atom with a free name or id pairs scopes that may differ only
    # in values no formula mentions, so two of those are kept apart
    for _ in range(2 if any(not isinstance(p.name, str) or v in (WILDCARD, None)
                            for p, v in starts) else 1):
        names.append(_other(set(names), lambda k: f"~m{k}~"))
        ids.append(max(ids, default=-1) + 1)
    files.append(_other(set(files), lambda k: f"~f{k}~"))

    events, seen = [], set()
    for tag in EVENT_TAGS:
        if tag in FILE_TAGS:
            candidates = [Event(tag, file=f) for f in files]
        elif tag == "ret":
            candidates = [Event(tag, id=i) for i in ids]
        else:
            candidates = [Event(tag, name=n, id=i) for n in names for i in ids]
        for ev in candidates:
            field = ev.file if tag in FILE_TAGS else ev.id
            sig = tuple(p.fits(ev) and (field if v is None else p.has_value(ev, v))
                        for p, v in shapes)
            if starts:
                sig += (tag, ev.scope() if tag in ("call", "push") else None)
            if sig not in seen:
                seen.add(sig)
                events.append(ev)
    return states + events


def _right_linear(phi, recs=frozenset()) -> bool:
    """Whether recursion variables occur only at the right end of sequences,
    so that the formula denotes a regular language."""
    if isinstance(phi, (Concat, Chop)) and free_recvars(phi.lhs) & recs:
        return False
    if isinstance(phi, (And, Or, Concat, Chop)):
        return _right_linear(phi.lhs, recs) and _right_linear(phi.rhs, recs)
    if isinstance(phi, Mu):
        return _right_linear(phi.body, recs | {phi.var})
    if isinstance(phi, Obs):
        return _right_linear(phi.body, recs)
    return True


class _Derivatives:
    """Antimirov partial derivatives of formulas over a finite alphabet of
    trace items under one constant valuation, residual terms interned as
    ints. A residual denotes the words that may follow the letters read, the
    empty word included. ``Chop`` continues into its right side on the shared
    state letter; an event atom expects its event and then its first state;
    ``mu`` unfolds with its variable bound to itself; ``obs`` substitutes the
    value its state letter gives the observed variable. Letters are the
    given trace items and any added by ``letter``."""

    def __init__(self, letters, consts):
        self.letters, self.is_state, self.letter_ids = [], [], {}
        for item in letters:
            self.letter(item)
        self.consts = consts
        self.terms, self.ids = [], {}
        self.nodes = {}      # id(node) -> node, keeps compiled nodes alive
        self.compiled = {}   # (id(node), env) -> term
        self.memo = {}       # (term, letter) -> frozenset of terms
        self.active = set()  # (mu term, letter) being unfolded
        self.observed = {}   # (obs node id, value) -> term of the body
        self.eps = self.intern(("eps",))

    def letter(self, item) -> int:
        """The letter of a trace item, added to the alphabet when new."""
        if item not in self.letter_ids:
            self.letter_ids[item] = len(self.letters)
            self.letters.append(item)
            self.is_state.append(isinstance(item, State))
        return self.letter_ids[item]

    def intern(self, term) -> int:
        if term not in self.ids:
            self.ids[term] = len(self.terms)
            self.terms.append(term)
        return self.ids[term]

    def compile(self, phi, env=()) -> int:
        key = (id(phi), env)
        if key not in self.compiled:
            self.nodes[id(phi)] = phi
            self.compiled[key] = self._compile(phi, env)
        return self.compiled[key]

    def _compile(self, phi, env) -> int:
        if isinstance(phi, And):
            return self.conj([self.compile(phi.lhs, env),
                              self.compile(phi.rhs, env)])
        if isinstance(phi, (Or, Concat, Chop)):
            return self.intern((type(phi).__name__, self.compile(phi.lhs, env),
                                self.compile(phi.rhs, env)))
        if isinstance(phi, RecVar):
            return dict(env)[phi.name]
        if isinstance(phi, (Mu, Obs)):
            return self.intern((type(phi).__name__, id(phi), env))
        if isinstance(phi, Pred):
            return self.intern(("Pred", pred_holds(phi.expr, {}, self.consts)))
        if isinstance(phi, EventF):
            return self.intern(("EventF", phi, phi.value({}, self.consts)))
        # a segment (nullable, repeating): NoEv is (False, True), NoEvItem
        # (False, False); their residual after a letter is (True, True)
        return self.intern(("seg", phi.excluded, False, isinstance(phi, NoEv)))

    def conj(self, parts) -> int:
        members = frozenset(m for t in parts for m in (
            self.terms[t][1] if self.terms[t][0] == "And" else (t,)))
        return next(iter(members)) if len(members) == 1 else \
            self.intern(("And", members))

    def nullable(self, t) -> bool:
        # formulas never hold the empty word: a sequence's right side is one
        term = self.terms[t]
        if term[0] == "And":
            return all(self.nullable(m) for m in term[1])
        return term[0] == "eps" or term[0] == "seg" and term[2]

    def step(self, t, a) -> frozenset:
        """The partial derivatives of term t by letter a."""
        key = (t, a)
        if key in self.memo:
            return self.memo[key]
        term = self.terms[t]
        if term[0] != "Mu":
            out = self._step(term, a)
        elif key in self.active:
            # met again without reading a letter: a least fixpoint adds
            # nothing here
            return frozenset()
        else:
            self.active.add(key)
            _, node_id, env = term
            var = self.nodes[node_id].var
            body = self.compile(self.nodes[node_id].body, tuple(sorted(
                [(n, v) for n, v in env if n != var] + [(var, t)])))
            out = self.step(body, a)
            self.active.discard(key)
        # results met under an unfolding may miss that unfolding's words
        if not self.active:
            self.memo[key] = out
        return out

    def read(self, terms, a) -> frozenset:
        """The residuals of a set of terms after letter a."""
        return frozenset().union(*(self.step(t, a) for t in terms))

    def _step(self, term, a) -> frozenset:
        kind, state, eps = term[0], self.is_state[a], frozenset([self.eps])
        if kind == "Pred":
            return eps if state and term[1] else frozenset()
        if kind == "seg":
            if not state and _excludes(term[1], self.letters[a], {}, self.consts):
                return frozenset()
            return frozenset([self.intern(("seg", term[1], True, True))]) \
                if term[3] else eps
        if kind == "EventF":
            return frozenset([self.intern(("expect", (term, a)))]) \
                if state else frozenset()
        if kind == "expect":
            return self._expect(term[1], a)
        if kind == "And":
            out = [()]
            for m in term[1]:
                out = [prev + (d,) for prev in out for d in self.step(m, a)]
            return frozenset(self.conj(parts) for parts in out)
        if kind == "Or":
            return self.step(term[1], a) | self.step(term[2], a)
        if kind == "Concat":
            out = {term[2] if d == self.eps else self.intern(("Concat", d, term[2]))
                   for d in self.step(term[1], a)}
            return frozenset(out | (self.step(term[2], a)
                                    if self.nullable(term[1]) else set()))
        if kind == "Chop":
            ds = self.step(term[1], a)
            out = {self.intern(("Chop", d, term[2])) for d in ds if d != self.eps}
            if state and any(self.nullable(d) for d in ds):
                out |= self.step(term[2], a)
            return frozenset(out)
        if kind == "Obs" and state:
            node, item = self.nodes[term[1]], self.letters[a]
            if node.pvar not in item and node.lvar in free_lvars(node.body):
                raise UnboundProgramVar(
                    f"observed program variable {node.pvar!r} is unbound in its state")
            value = item.get(node.pvar)
            key = (term[1], type(value).__name__, value)
            if key not in self.observed:
                self.observed[key] = self.compile(
                    subst_terms(node.body, {node.lvar: TLit(value)}))
            return self.step(self.observed[key], a)
        return frozenset()

    def _expect(self, tests, a) -> frozenset:
        """An event atom after its first state: the event (for ``start`` a
        push, or a call and its scope's push), each followed by that state."""
        head, rest = tests[0], tests[1:]
        ev = self.letters[a]
        if isinstance(head, int):
            ok = head == a
        elif self.is_state[a]:
            ok = False
        elif head[0] == "EventF":
            ok = head[1].fits(ev) and head[1].has_value(ev, head[2])
            if ok and head[1].tag == "start" and ev.tag == "call":
                rest = (rest[0], ("push", ev.scope())) + rest
        else:
            ok = ev.tag == "push" and ev.scope() == head[1]
        if not ok:
            return frozenset()
        return frozenset([self.intern(("expect", rest)) if rest else self.eps])

    def counterexample(self, left, right) -> Optional[list]:
        """Shortest well-formed word of term ``left`` outside all ``right``
        terms: breadth-first search over (left residual, position, right
        residuals), the position being None or (last state letter, whether
        an event followed), pruned by an antichain on the right sets."""
        start = (left, None, frozenset(right))
        parent = {start: None}
        antichain = {start[:2]: [start[2]]}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            p, pos, rights = node
            if pos is not None and not pos[1] and self.nullable(p) \
                    and not any(self.nullable(q) for q in rights):
                word = []
                while parent[node] is not None:
                    node, a = parent[node]
                    word.append(self.letters[a])
                return word[::-1]
            for a, state in enumerate(self.is_state):
                if state and (pos is None or not pos[1] or pos[0] == a):
                    nxt = (a, False)
                elif not state and pos is not None and not pos[1]:
                    nxt = (pos[0], True)
                else:
                    continue
                lefts = self.step(p, a)
                if lefts:
                    rights2 = self.read(rights, a)
                for p2 in lefts:
                    seen = antichain.setdefault((p2, nxt), [])
                    if not any(old <= rights2 for old in seen):
                        seen[:] = [old for old in seen if not rights2 <= old]
                        seen.append(rights2)
                        parent[(p2, nxt, rights2)] = (node, a)
                        queue.append((p2, nxt, rights2))
        return None


def included(phi1, phi2) -> Included:
    """Whether every well-formed trace of phi1 lies in phi2 under every
    constant valuation, with the shortest counterexample if not.

    Valuations come from a finite pool (literals, as many neighbours of
    each integer literal as predicates order unknowns, fresh values up to
    equality) that is complete unless a predicate outruns it
    (``_pool_may_miss``); then "included" is ``bounded``. "unknown" is left for open formulas, recursion outside
    the right-linear fragment, and formulas with so many constants or
    observed variables that the search would exceed ``_WORK_LIMIT``.
    """
    if free_recvars(phi1) or free_recvars(phi2):
        return Included("unknown", detail="formulas must be closed")
    unbound = free_lvars(phi1) | free_lvars(phi2)
    if unbound:
        return Included("unknown",
                        detail=f"unbound logic variables {sorted(unbound)}")
    if not (_right_linear(phi1) and _right_linear(phi2)):
        return Included("unknown",
                        detail="recursion outside the right-linear fragment")
    info = _collect_alphabet([phi1, phi2])
    valuations = _valuations(info)
    if _work(info, valuations) > _WORK_LIMIT:
        return Included("unknown", detail=(
            f"{len(valuations)} constant valuations and "
            f"{len(set(info['pvars']))} observed variables exceed the search limit"))
    lefts = conjuncts(phi1)
    for consts in valuations:
        d = _Derivatives(_letters(info, consts), consts)
        for right in conjuncts(phi2):
            r = [d.compile(right)]
            # a conjunct of phi1 inside phi2 settles it without the product
            if len(lefts) > 1 and any(d.counterexample(d.compile(l), r) is None
                                      for l in lefts):
                continue
            word = d.counterexample(d.compile(phi1), r)
            if word is not None:
                return Included("counterexample", counterexample=Trace(word),
                                valuation=tuple(sorted(consts.items())))
    return Included("included",
                    bounded=any(_pool_may_miss(e) for e in info["preds"]))


# --- membership -------------------------------------------------------------

def _monitor(trace: Trace, phi, consts):
    """An automaton for the formula and the trace's items as its letters."""
    unbound = free_recvars(phi)
    if unbound:
        raise FormulaError(f"unbound recursion variable {min(unbound)!r}")
    unbound = free_lvars(phi)
    if unbound:
        raise UnboundLogicVar(f"logic variable {min(unbound)!r} is unbound")
    if not _right_linear(phi):
        raise FormulaError("recursion outside the right-linear fragment")
    d = _Derivatives([], consts or {})
    return d, [d.letter(item) for item in trace.items]


def member(trace: Trace, phi, consts=None) -> bool:
    """Whether the whole trace lies in the formula's denotation: each
    top-level conjunct's automaton reads the trace and must end on a
    nullable residual."""
    d, word = _monitor(trace, phi, consts)
    for start in [d.compile(part) for part in conjuncts(phi)]:
        residuals = {start}
        for a in word:
            residuals = d.read(residuals, a)
            if not residuals:
                return False
        if not any(d.nullable(t) for t in residuals):
            return False
    return True


def denotation(trace: Trace, phi, consts=None) -> frozenset:
    """All intervals (i, j) of the trace the formula denotes: the automaton
    run from every start. Only the benchmark's span tracer
    (``bench/spans.py``) refers to it."""
    d, word = _monitor(trace, phi, consts)
    start, out = d.compile(phi), set()
    for i in range(len(word)):
        residuals = {start}
        for j in range(i, len(word)):
            residuals = d.read(residuals, word[j])
            if not residuals:
                break
            if any(d.nullable(t) for t in residuals):
                out.add((i, j))
    return frozenset(out)


def noev_equiv_mu(excluded, trace: Trace):
    """Membership via the primitive segment and via its mu encoding."""
    prim = member(trace, NoEv(excluded))
    enc = member(trace, noev_mu_encoding(excluded))
    return prim, enc
