"""States, events, traces, the semantic chop, call trees, and the schedule.

A trace is a finite sequence of items, each a state or an event occurrence.
Events are recorded as triples ``state, event, state`` with equal flanking
states, so events never change the state. Traces glue together with the
semantic chop ``**`` which overlaps exactly one shared boundary state and is
undefined on mismatched boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .syntax import eval_expr


class ChopMismatch(Exception):
    pass


class NoScope(Exception):
    pass


class MalformedTrace(Exception):
    pass


# --- states ------------------------------------------------------------

class State:
    """Immutable partial mapping from program variables to values.

    Equality is extensional on the bound variables and type-sensitive, so a
    variable bound to ``True`` differs from one bound to ``1``; chop
    definedness depends on this being exact.
    """

    __slots__ = ("_bindings", "_key")

    def __init__(self, bindings=None):
        self._bindings = dict(bindings) if bindings else {}
        self._key = frozenset(
            (k, type(v).__name__, v) for k, v in self._bindings.items())

    def get(self, name, default=None):
        return self._bindings.get(name, default)

    def __contains__(self, name):
        return name in self._bindings

    def bindings(self) -> dict:
        return dict(self._bindings)

    def update(self, name, value) -> "State":
        new = dict(self._bindings)
        new[name] = value
        return State(new)

    def eval(self, expr):
        return eval_expr(expr, self._bindings)

    def __eq__(self, other):
        return isinstance(other, State) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._bindings.items()))
        return "{%s}" % inner


# --- events ------------------------------------------------------------

EVENT_TAGS = ("call", "invoc", "ret", "push", "pop", "open", "close", "read", "write")
FILE_TAGS = ("open", "close", "read", "write")


@dataclass(frozen=True)
class Event:
    tag: str
    name: Optional[str] = None  # call/invoc/push/pop
    id: Optional[int] = None    # call/invoc/ret/push/pop
    file: Optional[str] = None  # open/close/read/write

    def __post_init__(self):
        if self.tag not in EVENT_TAGS:
            raise ValueError(f"unknown event tag {self.tag!r}")
        if self.id is not None and self.id < 0:
            raise ValueError("call identifiers are non-negative")

    def scope(self):
        return (self.name, self.id)

    def __repr__(self):
        if self.tag in ("call", "invoc"):
            return f"{self.tag}({self.name},{self.id})"
        if self.tag == "ret":
            return f"ret({self.id})"
        if self.tag in ("push", "pop"):
            return f"{self.tag}(({self.name},{self.id}))"
        return f"{self.tag}({self.file!r})"


def push_ev(name, id):
    return Event("push", name=name, id=id)


def pop_ev(name, id):
    return Event("pop", name=name, id=id)


# --- traces ------------------------------------------------------------

class Trace:
    """Finite sequence of State and Event items, hashable and immutable."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable):
        self.items = tuple(items)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, idx):
        return self.items[idx]

    def __eq__(self, other):
        return isinstance(other, Trace) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __repr__(self):
        return "Trace[%s]" % ", ".join(repr(i) for i in self.items)

    def is_empty(self):
        return not self.items

    def first(self):
        return self.items[0]

    def last(self):
        return self.items[-1]

    def last_state(self) -> State:
        if not self.items or not isinstance(self.items[-1], State):
            raise MalformedTrace("trace does not end with a state")
        return self.items[-1]

    def events(self) -> list[Event]:
        return [i for i in self.items if isinstance(i, Event)]

    def sort_key(self):
        return tuple(repr(i) for i in self.items)


def singleton(state: State) -> Trace:
    return Trace([state])


def chop(t1: Trace, t2: Trace) -> Trace:
    """Semantic chop: glue t1 and t2 on one shared boundary state."""
    if t1.is_empty() or t2.is_empty():
        raise ChopMismatch("chop of an empty trace is undefined")
    if not isinstance(t2.first(), State):
        raise ChopMismatch("second trace must begin with a state")
    if not isinstance(t1.last(), State):
        raise ChopMismatch("first trace must end with a state")
    if t1.last() != t2.first():
        raise ChopMismatch(f"boundary states differ: {t1.last()!r} vs {t2.first()!r}")
    return Trace(t1.items + t2.items[1:])


def event_triple(state: State, tag: str, payload=None) -> Trace:
    """3-item trace recording an event in its generating state.

    File-event payloads are expressions evaluated against the state, matching
    ``ev_sigma(v) = <sigma> . ev(val_sigma(v)) . sigma``.
    """
    if tag in FILE_TAGS:
        value = payload if isinstance(payload, str) else state.eval(payload)
        ev = Event(tag, file=value if isinstance(value, str) else str(value))
    elif tag in ("call", "invoc", "push", "pop"):
        name, id = payload
        ev = Event(tag, name=name, id=id)
    elif tag == "ret":
        ev = Event("ret", id=payload)
    else:
        raise ValueError(f"unknown event tag {tag!r}")
    return Trace([state, ev, state])


def event_trace(state: State, ev: Event) -> Trace:
    return Trace([state, ev, state])


# --- scope bookkeeping --------------------------------------------------

def curr_scope(trace: Trace):
    """Most recently pushed scope without a matching pop (stack scan)."""
    stack = []
    for item in trace:
        if isinstance(item, Event):
            if item.tag == "push":
                stack.append(item.scope())
            elif item.tag == "pop":
                if not stack or stack[-1] != item.scope():
                    raise MalformedTrace(f"pop of {item.scope()} does not match stack")
                stack.pop()
    if not stack:
        raise NoScope("no unmatched push in trace")
    return stack[-1]


def curr_scope_schematic(trace: Trace):
    """Current call scope computed from the schematic-trace definition.

    Slow recursive reference used in tests to validate the stack scan: either
    the trace ends with an unmatched push followed by push/pop-free items, or
    a whole push..pop block is stripped from the right and we recurse.
    """
    items = list(trace.items)
    idx = [i for i, it in enumerate(items)
           if isinstance(it, Event) and it.tag in ("push", "pop")]
    if not idx:
        raise NoScope("no unmatched push in trace")
    last = items[idx[-1]]
    if last.tag == "push":
        return last.scope()
    # trailing block ... push(scp) ... pop(scp): find the matching push
    depth = 0
    for i in reversed(idx):
        ev = items[i]
        if ev.tag == "pop":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                if ev.scope() != items[idx[-1]].scope():
                    raise MalformedTrace("mismatched push/pop block")
                return curr_scope_schematic(Trace(items[:i]))
    raise MalformedTrace("pop without matching push")


def max_call_id(trace: Trace) -> int:
    """Largest call identifier introduced by call/invoc events; 0 if none."""
    best = 0
    for item in trace:
        if isinstance(item, Event) and item.tag in ("call", "invoc"):
            best = max(best, item.id)
    return best


def ends_with_event(trace: Trace, tag) -> Optional[Event]:
    """The trailing event of the trace (2nd to last item), if its tag matches."""
    if len(trace) >= 2 and isinstance(trace[-2], Event) and trace[-2].tag == tag:
        return trace[-2]
    return None


def returned_not_popped(trace: Trace, id: int) -> bool:
    """True iff ret(id) occurred with no later pop carrying the same id."""
    ret_at = None
    for i, item in enumerate(trace):
        if isinstance(item, Event):
            if item.tag == "ret" and item.id == id:
                ret_at = i
            elif item.tag == "pop" and item.id == id and ret_at is not None:
                return False
    return ret_at is not None


# --- call trees ---------------------------------------------------------

@dataclass(frozen=True)
class CallTree:
    vertices: frozenset
    edges: frozenset  # (parent scope, child scope)
    idle: frozenset

    def children(self, scope):
        return sorted((c for p, c in self.edges if p == scope),
                      key=lambda s: s[1])

    def root(self):
        targets = {c for _, c in self.edges}
        roots = [v for v in self.vertices if v not in targets]
        return min(roots, key=lambda s: s[1]) if roots else None


def call_tree(trace: Trace) -> CallTree:
    """Ordered tree of call scopes with idle (invoked, not yet pushed) leaves.

    A scope is idle when its invocation has no subsequent push; a push that
    precedes the invocation does not count.
    """
    vertices = []
    edges = set()
    stack = []
    last_invoc = {}
    last_push = {}
    pos = 0
    for item in trace:
        if not isinstance(item, Event):
            continue
        pos += 1
        if item.tag in ("call", "invoc"):
            scope = item.scope()
            vertices.append(scope)
            if stack:
                edges.add((stack[-1], scope))
            if item.tag == "invoc":
                last_invoc[scope] = pos
        elif item.tag == "push":
            last_push[item.scope()] = pos
            stack.append(item.scope())
        elif item.tag == "pop":
            if not stack or stack[-1] != item.scope():
                raise MalformedTrace(f"pop of {item.scope()} does not match stack")
            stack.pop()
    idle = frozenset(s for s, p in last_invoc.items()
                     if last_push.get(s, -1) < p)
    return CallTree(frozenset(vertices), frozenset(edges), idle)


def schedule(trace: Trace) -> frozenset:
    """Children of the current scope that are still idle; empty without a scope."""
    try:
        scope = curr_scope(trace)
    except NoScope:
        return frozenset()
    tree = call_tree(trace)
    return frozenset(set(tree.children(scope)) & set(tree.idle))


# --- JSON serialization --------------------------------------------------

def trace_to_json(trace: Trace) -> list:
    out = []
    for item in trace:
        if isinstance(item, State):
            out.append({"kind": "state", "bindings": item.bindings()})
        else:
            d = {"kind": "event", "tag": item.tag}
            if item.name is not None:
                d["name"] = item.name
            if item.id is not None:
                d["id"] = item.id
            if item.file is not None:
                d["file"] = item.file
            out.append(d)
    return out


def trace_from_json(data: list) -> Trace:
    if not isinstance(data, list):
        raise MalformedTrace("a trace is a JSON list of items")
    items = []
    for entry in data:
        try:
            if entry["kind"] == "state":
                items.append(State(entry.get("bindings", {})))
            elif entry["kind"] == "event":
                items.append(Event(entry["tag"], name=entry.get("name"),
                                   id=entry.get("id"), file=entry.get("file")))
            else:
                raise ValueError("unknown item kind")
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedTrace(f"bad trace item {entry!r}: {exc}") from None
    return Trace(items)
