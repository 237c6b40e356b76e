import itertools
import random

import pytest

from catverify import enumerate_traces
from catverify.formula import ANY, Chop, EventF, member
from catverify.parser import parse_formula
from catverify.trace import (ChopMismatch, CallTree, Event, MalformedTrace,
                             NoScope, State, Trace, call_tree, chop,
                             curr_scope, curr_scope_schematic, event_triple,
                             max_call_id, schedule, singleton, trace_from_json,
                             trace_to_json)
from catverify.syntax import Lit, Var

S0 = State({})
SX = State({"x": 1})


def fig3_prefix(fanout_program):
    """The enumerated fan-out trace cut right after m1's return event."""
    for t in enumerate_traces(fanout_program):
        pushes = [it for it in t if isinstance(it, Event) and it.tag == "push"]
        if pushes[2].scope() == ("m1", 2):  # m1 scheduled before m2
            idx = next(i for i, it in enumerate(t)
                       if isinstance(it, Event) and it.tag == "ret" and it.id == 2)
            return Trace(t.items[:idx + 2])
    raise AssertionError("no trace schedules m1 first")


# --- states -------------------------------------------------------------

def test_state_update_leaves_others():
    s = State({"x": 1, "y": 2})
    s2 = s.update("x", 9)
    assert s2.get("x") == 9 and s2.get("y") == 2
    assert s.get("x") == 1


def test_state_equality_type_sensitive():
    assert State({"x": 1}) != State({"x": True})
    assert State({"x": 1}) == State({"x": 1})
    assert State({}) != State({"x": 0})


# --- chop ---------------------------------------------------------------

def test_chop_example():
    s1 = State({"x": 1})
    s12 = State({"x": 1, "y": 2})
    t1 = Trace([S0, s1])
    t2 = Trace([s1, s12])
    assert chop(t1, t2) == Trace([S0, s1, s12])


def test_chop_singleton_unit():
    assert chop(singleton(S0), singleton(S0)) == singleton(S0)


def test_chop_mismatch():
    with pytest.raises(ChopMismatch):
        chop(singleton(S0), singleton(SX))
    with pytest.raises(ChopMismatch):
        chop(singleton(S0), Trace([Event("ret", id=1), S0]))


def test_chop_associative_and_units():
    rng = random.Random(3)
    from catverify.gen import gen_trace
    for _ in range(120):
        t = gen_trace(rng, max_len=8)
        k = [i for i, it in enumerate(t) if isinstance(it, State)]
        cut1, cut2 = sorted(rng.sample(k, 2)) if len(k) >= 2 else (k[0], k[0])
        a = Trace(t.items[:cut1 + 1])
        b = Trace(t.items[cut1:cut2 + 1])
        c = Trace(t.items[cut2:])
        assert chop(chop(a, b), c) == chop(a, chop(b, c)) == t
        assert chop(t, singleton(t.last())) == t
        assert chop(singleton(t.first()), t) == t


# --- event triples --------------------------------------------------------

def test_event_triple_literal():
    t = event_triple(S0, "open", Lit("file1.txt"))
    assert t == Trace([S0, Event("open", file="file1.txt"), S0])


def test_event_triple_evaluates_payload():
    s = State({"file": "file1.txt"})
    t = event_triple(s, "open", Var("file"))
    assert t[1] == Event("open", file="file1.txt")


def test_event_triple_ret():
    assert event_triple(S0, "ret", 2) == Trace([S0, Event("ret", id=2), S0])


# --- scopes ----------------------------------------------------------------

def test_curr_scope_fig3(fanout_program):
    assert curr_scope(fig3_prefix(fanout_program)) == ("m1", 2)


def test_curr_scope_after_pop():
    t = Trace([S0, Event("push", name="a", id=1), S0,
               Event("pop", name="a", id=1), S0,
               Event("push", name="b", id=2), S0])
    assert curr_scope(t) == ("b", 2)


def test_curr_scope_empty():
    with pytest.raises(NoScope):
        curr_scope(Trace([S0, SX]))


def test_curr_scope_agrees_with_schematic_definition():
    # exhaustive over well-formed traces up to 12 items, 3-event alphabet
    events = [Event("push", name="a", id=1), Event("pop", name="a", id=1),
              Event("push", name="b", id=2)]
    states = [S0]

    def extend(items, budget):
        yield items
        if budget <= 0:
            return
        for s in states:
            yield from extend(items + [s], budget - 1)
        if isinstance(items[-1], State):
            for e in events:
                yield from extend(items + [e, items[-1]], budget - 2)

    count = 0
    for items in extend([S0], 11):
        t = Trace(items)
        try:
            fast = curr_scope(t)
        except NoScope:
            fast = NoScope
        except MalformedTrace:
            # the schematic pattern is ambiguous on ill-nested pops; the
            # agreement claim concerns stack-disciplined traces
            continue
        try:
            slow = curr_scope_schematic(t)
        except NoScope:
            slow = NoScope
        assert fast == slow, t
        count += 1
    assert count > 500


# --- call ids ----------------------------------------------------------------

def test_max_call_id_fig3(fanout_program):
    assert max_call_id(fig3_prefix(fanout_program)) == 5


def test_max_call_id_minimal():
    t = Trace([S0, Event("call", name="init", id=0), S0])
    assert max_call_id(t) == 0
    assert max_call_id(singleton(S0)) == 0


def test_max_call_id_mixed():
    t = Trace([S0, Event("invoc", name="a", id=3), S0,
               Event("call", name="b", id=7), S0])
    assert max_call_id(t) == 7


# --- call tree ----------------------------------------------------------------

def test_call_tree_fig3(fanout_program):
    tree = call_tree(fig3_prefix(fanout_program))
    assert tree.vertices == frozenset(
        {("init", 0), ("m", 1), ("m1", 2), ("m2", 3), ("m3", 4), ("m4", 5)})
    assert tree.edges == frozenset({
        (("init", 0), ("m", 1)), (("m", 1), ("m1", 2)), (("m", 1), ("m2", 3)),
        (("m1", 2), ("m3", 4)), (("m1", 2), ("m4", 5))})
    assert tree.idle == frozenset({("m2", 3), ("m3", 4), ("m4", 5)})
    assert tree.root() == ("init", 0)


def test_call_tree_single_vertex():
    t = chop(event_triple(S0, "call", ("init", 0)),
             event_triple(S0, "push", ("init", 0)))
    tree = call_tree(t)
    assert tree.vertices == frozenset({("init", 0)})
    assert tree.idle == frozenset()


def test_call_tree_unmatched_pop():
    with pytest.raises(MalformedTrace):
        call_tree(Trace([S0, Event("pop", name="a", id=1), S0]))


def test_idle_vertices_are_leaves_on_random_programs():
    from catverify.gen import gen_program
    rng = random.Random(11)
    seen = 0
    while seen < 500:
        program = gen_program(rng, file_ops=False)
        for t in enumerate_traces(program, max_traces=64):
            for k in range(1, len(t) + 1):
                if not isinstance(t[k - 1], State):
                    continue
                prefix = Trace(t.items[:k])
                tree = call_tree(prefix)
                for scp in tree.idle:
                    assert tree.children(scp) == []
                seen += 1
                if seen >= 500:
                    return


# --- schedule ------------------------------------------------------------------

def test_schedule_fig3(fanout_program):
    assert schedule(fig3_prefix(fanout_program)) == frozenset(
        {("m3", 4), ("m4", 5)})


def test_schedule_empty_after_init_push():
    t = chop(event_triple(S0, "call", ("init", 0)),
             event_triple(S0, "push", ("init", 0)))
    assert schedule(t) == frozenset()


def test_schedule_after_do_return(files_program):
    t = enumerate_traces(files_program)[0]
    idx = next(i for i, it in enumerate(t)
               if isinstance(it, Event) and it.tag == "ret" and it.id == 1)
    prefix = Trace(t.items[:idx + 2])
    assert schedule(prefix) == frozenset({("closeF", 2)})


def test_call_ids_unique_per_trace(files_program, fanout_program):
    for program in (files_program, fanout_program):
        for t in enumerate_traces(program):
            ids = [it.id for it in t
                   if isinstance(it, Event) and it.tag in ("call", "invoc")]
            assert len(ids) == len(set(ids))


def test_event_triple_flanking_invariant(files_program, fanout_program):
    for program in (files_program, fanout_program):
        for t in enumerate_traces(program):
            items = t.items
            assert isinstance(items[0], State) and isinstance(items[-1], State)
            for i, it in enumerate(items):
                if not isinstance(it, State):
                    assert items[i - 1] == items[i + 1]


# --- schematic patterns as formulas -----------------------------------------------

CALL = EventF("call")  # any call event


def test_matches_schematic_fig3(fanout_program):
    t = fig3_prefix(fanout_program)
    assert member(t, parse_formula("~ ** ret(2) ** ~[pop(_,2)]"))


def test_matches_schematic_singleton():
    assert member(singleton(S0), ANY)


def test_matches_schematic_exclusion():
    t = Trace([S0, Event("open", file="f"), S0])
    assert not member(t, parse_formula('~[open("f")]'))
    assert member(t, ANY)


def test_matches_schematic_trailing_event():
    t = Trace([S0, Event("call", name="m", id=1), S0])
    assert member(t, CALL)
    assert not member(
        Trace([S0, Event("call", name="m", id=1), S0, SX]), Chop(ANY, CALL))
    assert member(
        Trace([S0, SX, Event("call", name="m", id=1), SX]), Chop(ANY, CALL))


# --- JSON -----------------------------------------------------------------------

def test_trace_json_roundtrip(files_program):
    t = enumerate_traces(files_program)[0]
    assert trace_from_json(trace_to_json(t)) == t


def test_trace_json_shape():
    t = Trace([State({"x": 1}), Event("call", name="m", id=1), State({"x": 1})])
    data = trace_to_json(t)
    assert data[0] == {"kind": "state", "bindings": {"x": 1}}
    assert data[1] == {"kind": "event", "tag": "call", "name": "m", "id": 1}
