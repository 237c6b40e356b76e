"""Fixed-point trace logic: formula AST and finite-trace membership.

Membership of a concrete trace in a formula's denotation is decided by an
interval algorithm: for every subformula we compute the set of index
intervals ``(i, j)`` of the trace it denotes. Sequencing splits intervals
adjacently (concatenation) or overlapping on one shared state position
(chop); recursion is solved by Kleene iteration over interval sets, which
terminates because a finite trace has finitely many intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .trace import FILE_TAGS, Event, State, Trace


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


# --- interval semantics ---------------------------------------------------

class _Denoter:
    def __init__(self, trace: Trace, consts):
        self.items = trace.items
        self.n = len(self.items)
        self.consts = consts or {}
        self.memo = {}
        self.state_positions = tuple(
            i for i, it in enumerate(self.items) if isinstance(it, State))

    def denote(self, phi, obs_env, rho) -> frozenset:
        fv = free_lvars(phi)
        rv = free_recvars(phi)
        obs_key = tuple(sorted(((y, obs_env[y][0], obs_env[y][1])
                                for y in fv if y in obs_env),
                               key=lambda e: e[0]))
        rho_key = tuple(sorted(((x, rho[x]) for x in rv if x in rho),
                               key=lambda e: e[0]))
        key = (id(phi), obs_key, rho_key)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        result = self._compute(phi, obs_env, rho)
        self.memo[key] = result
        return result

    def _compute(self, phi, obs_env, rho) -> frozenset:
        items, n = self.items, self.n
        if isinstance(phi, Pred):
            if pred_holds(phi.expr, obs_env, self.consts):
                return frozenset((k, k) for k in self.state_positions)
            return frozenset()
        if isinstance(phi, RecVar):
            if phi.name not in rho:
                raise FormulaError(f"unbound recursion variable {phi.name!r}")
            return rho[phi.name]
        if isinstance(phi, NoEv):
            return self._noev_intervals(phi.excluded, obs_env)
        if isinstance(phi, NoEvItem):
            out = set()
            for k, it in enumerate(items):
                if isinstance(it, State) or not _excludes(
                        phi.excluded, it, obs_env, self.consts):
                    out.add((k, k))
            return frozenset(out)
        if isinstance(phi, EventF):
            return self._event_intervals(phi, obs_env)
        if isinstance(phi, And):
            return self.denote(phi.lhs, obs_env, rho) & self.denote(phi.rhs, obs_env, rho)
        if isinstance(phi, Or):
            return self.denote(phi.lhs, obs_env, rho) | self.denote(phi.rhs, obs_env, rho)
        if isinstance(phi, Concat):
            left = self.denote(phi.lhs, obs_env, rho)
            right = self.denote(phi.rhs, obs_env, rho)
            by_start = {}
            for (a, b) in right:
                by_start.setdefault(a, []).append(b)
            out = set()
            for (a, k) in left:
                for b in by_start.get(k + 1, ()):
                    out.add((a, b))
            return frozenset(out)
        if isinstance(phi, Chop):
            left = self.denote(phi.lhs, obs_env, rho)
            right = self.denote(phi.rhs, obs_env, rho)
            by_start = {}
            for (a, b) in right:
                by_start.setdefault(a, []).append(b)
            out = set()
            for (a, k) in left:
                if isinstance(items[k], State):
                    for b in by_start.get(k, ()):
                        out.add((a, b))
            return frozenset(out)
        if isinstance(phi, Mu):
            current = frozenset()
            while True:
                nxt = self.denote(phi.body, obs_env, {**rho, phi.var: current})
                if nxt == current:
                    return current
                if not (current <= nxt):
                    # monotone by construction; defensive check
                    raise FormulaError("non-monotone fixpoint iteration")
                current = nxt
        if isinstance(phi, Obs):
            out = set()
            for a in self.state_positions:
                env2 = {**obs_env, phi.lvar: (phi.pvar, items[a])}
                for (i, j) in self.denote(phi.body, env2, rho):
                    if i == a:
                        out.add((i, j))
            return frozenset(out)
        raise TypeError(f"not a formula: {phi!r}")

    def _noev_intervals(self, excluded, obs_env) -> frozenset:
        items, n = self.items, self.n
        bad = [isinstance(it, Event) and _excludes(excluded, it, obs_env, self.consts)
               for it in items]
        out = set()
        for i in range(n):
            if bad[i]:
                continue
            j = i
            while j < n and not bad[j]:
                out.add((i, j))
                j += 1
        return frozenset(out)

    def _event_intervals(self, phi: EventF, obs_env) -> frozenset:
        items = self.items
        value = phi.value(obs_env, self.consts)
        hits = {}  # first position of each event triple the shape matches
        for a in range(self.n - 2):
            ev = items[a + 1]
            if (isinstance(ev, Event) and phi.fits(ev) and phi.has_value(ev, value)
                    and isinstance(items[a], State) and items[a] == items[a + 2]):
                hits[a] = ev
        if phi.tag != "start":
            return frozenset((a, a + 2) for a in hits)
        # an activation push (asynchronous scheduling), or a call chopped
        # with the push of the same scope (synchronous activation)
        out = set()
        for a, ev in hits.items():
            if ev.tag == "push":
                out.add((a, a + 2))
            else:
                nxt = hits.get(a + 2)
                if nxt is not None and nxt.tag == "push" \
                        and nxt.scope() == ev.scope():
                    out.add((a, a + 4))
        return frozenset(out)


def denotation(trace: Trace, phi, obs_env=None, consts=None) -> frozenset:
    """All intervals (i, j) of the trace denoted by the formula."""
    d = _Denoter(trace, consts)
    return d.denote(phi, dict(obs_env or {}), {})


def member(trace: Trace, phi, obs_env=None, consts=None) -> bool:
    """Whether the whole trace lies in the formula's denotation."""
    if trace.is_empty():
        return False
    d = _Denoter(trace, consts)
    whole = (0, len(trace) - 1)
    return whole in d.denote(phi, dict(obs_env or {}), {})


def noev_equiv_mu(excluded, trace: Trace):
    """Membership via the primitive segment and via its mu encoding."""
    prim = member(trace, NoEv(excluded))
    enc = member(trace, noev_mu_encoding(excluded))
    return prim, enc


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


# --- bounded language inclusion -------------------------------------------

@dataclass(frozen=True)
class Included:
    status: str  # "included" | "counterexample" | "unknown"
    counterexample: Optional[Trace] = None
    valuation: Optional[tuple] = None
    detail: str = ""

    def __bool__(self):
        return self.status == "included"


def _collect_alphabet(phis):
    """Ground value pools and event shapes mentioned by the formulas."""
    strings, ints, names, id_lits = set(), set(), set(), set()
    events = []          # EventF shapes
    pvars = set()
    consts = set()
    ungrounded = []

    def walk_term(t, context):
        if isinstance(t, TLit):
            if isinstance(t.value, str):
                strings.add(t.value)
            elif isinstance(t.value, bool):
                pass
            else:
                ints.update({t.value - 1, t.value, t.value + 1})
        elif isinstance(t, TConst):
            consts.add((t.name, context))
        elif isinstance(t, TVar):
            ungrounded.append(t.name)
        elif isinstance(t, LBinOp):
            walk_term(t.lhs, context)
            walk_term(t.rhs, context)
        elif isinstance(t, LNot):
            walk_term(t.arg, context)

    def walk(phi, bound):
        if isinstance(phi, Pred):
            walk_term(phi.expr, "pred")
        elif isinstance(phi, (And, Or, Concat, Chop)):
            walk(phi.lhs, bound)
            walk(phi.rhs, bound)
        elif isinstance(phi, Mu):
            walk(phi.body, bound)
        elif isinstance(phi, Obs):
            pvars.add(phi.pvar)
            walk(phi.body, bound | {phi.lvar})
        else:
            for p in event_shapes(phi):
                if isinstance(p.name, str):
                    names.add(p.name)
                for t, ctx in ((p.id, "id"), (p.payload, "file")):
                    if isinstance(t, TLit):
                        if isinstance(t.value, str):
                            strings.add(t.value)
                        elif not isinstance(t.value, bool):
                            id_lits.add(t.value)
                    elif isinstance(t, TConst):
                        consts.add((t.name, ctx))
                    elif isinstance(t, TVar) and t.name not in bound:
                        ungrounded.append(t.name)
                events.append(p)

    for phi in phis:
        walk(phi, frozenset())
    return {
        "strings": strings, "ints": ints, "names": names, "id_lits": id_lits,
        "events": events, "pvars": pvars, "consts": consts,
        "ungrounded": ungrounded,
    }


def included(phi1, phi2, bound: int = 6, max_valuations: int = 16) -> Included:
    """Bounded language inclusion test over well-formed candidate traces.

    Enumerates state-delimited traces of up to ``bound`` items over the event
    alphabet occurring in either formula and a small abstract state set
    derived from the predicates' atoms; constants are sampled per inferred
    type and inclusion must hold under every sampled valuation.
    """
    if free_recvars(phi1) or free_recvars(phi2):
        return Included("unknown", detail="formulas must be closed")
    info = _collect_alphabet([phi1, phi2])
    if info["ungrounded"]:
        return Included("unknown",
                        detail=f"unbound logic variables {sorted(set(info['ungrounded']))}")

    strings = sorted(info["strings"]) + ["~other~"]
    ints = sorted(info["ints"]) or [0]
    ids = sorted(info["id_lits"]) or [0]

    # constant valuations: strings for file payloads, ints otherwise
    const_names = sorted({name for name, _ in info["consts"]})
    const_ctx = {}
    for name, ctx in info["consts"]:
        const_ctx.setdefault(name, set()).add(ctx)
    pools = []
    for name in const_names:
        ctxs = const_ctx[name]
        if ctxs <= {"file"}:
            pools.append([(name, v) for v in strings])
        elif "pred" in ctxs or "id" in ctxs:
            pools.append([(name, v) for v in ints])
        else:
            pools.append([(name, v) for v in strings])
    valuations = [{}]
    for pool in pools:
        valuations = [dict(v, **{n: x}) for v in valuations for (n, x) in pool]
        if len(valuations) > max_valuations:
            valuations = valuations[:max_valuations]

    for valuation in valuations:
        # ground event alphabet under this valuation
        events = set()
        for ef in info["events"]:
            for tag in ef.trace_tags():
                name = ef.name if isinstance(ef.name, str) else None
                idval = None
                if ef.id is not None and ef.id is not WILDCARD:
                    try:
                        idval = eval_term(ef.id, {}, valuation)
                    except FormulaError:
                        return Included("unknown", detail="cannot ground event id")
                payload = None
                if ef.payload is not None and ef.payload is not WILDCARD:
                    try:
                        payload = eval_term(ef.payload, {}, valuation)
                    except FormulaError:
                        return Included("unknown", detail="cannot ground payload")
                if tag in ("open", "close", "read", "write"):
                    for v in ([payload] if payload is not None else strings):
                        if isinstance(v, str):
                            events.add(Event(tag, file=v))
                elif tag == "ret":
                    for v in ([idval] if idval is not None else ids):
                        events.add(Event(tag, id=max(0, int(v))))
                else:
                    nm = name or "m"
                    for v in ([idval] if idval is not None else ids):
                        events.add(Event(tag, name=nm, id=max(0, int(v))))
        events = sorted(events, key=repr)

        # abstract states over the observed program variables
        pvars = sorted(info["pvars"])
        value_pool = list(ints) + strings
        states = [State({})]
        for pv in pvars:
            states = [s.update(pv, v) for s in states for v in value_pool]
            if len(states) > 24:
                states = states[:24]

        cex = _search_counterexample(phi1, phi2, states, events, bound, valuation)
        if cex is not None:
            return Included("counterexample", counterexample=cex,
                            valuation=tuple(sorted(valuation.items())))
    return Included("included")


def _search_counterexample(phi1, phi2, states, events, bound, valuation):
    """DFS over well-formed traces: first trace in phi1 but not in phi2."""

    def check(items):
        t = Trace(items)
        try:
            if member(t, phi1, {}, valuation) and not member(t, phi2, {}, valuation):
                return t
        except FormulaError:
            return None
        return None

    def extend(items):
        if len(items) >= bound:
            return None
        last = items[-1]
        for s in states:
            cand = items + [s]
            hit = check(cand) or extend(cand)
            if hit is not None:
                return hit
        if isinstance(last, State):
            for e in events:
                if len(items) + 2 <= bound:
                    cand = items + [e, last]
                    hit = check(cand) or extend(cand)
                    if hit is not None:
                        return hit
        return None

    for s in states:
        hit = check([s]) or extend([s])
        if hit is not None:
            return hit
    return None
