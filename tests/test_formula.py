import itertools
import random
import time

import pytest

from catverify import formula as fm
from catverify import parse_formula
from catverify.formula import (ALL_EVENTS, And, Chop, Concat, EventF,
                               Included, Mu, NoEv, NoEvItem, Obs,
                               Or, Pred, RecVar, TConst, TLit, TVar,
                               UnboundLogicVar, UnboundProgramVar, chop_of,
                               included, member, noev_equiv_mu,
                               noev_mu_encoding, normalize, skolemize,
                               subst_terms)
from catverify.gen import gen_formula, gen_raw_trace, gen_trace
from catverify.trace import Event, State, Trace, singleton

from tests.oracles import member_oracle

S0 = State({})
SF = State({"file": "f1"})
OPEN_F1 = Event("open", file="f1")
ANY = NoEv(frozenset())


def test_member_open_between_pads():
    t = Trace([S0, S0, OPEN_F1, S0, S0])
    phi = parse_formula('~ open("f1") ~')
    assert member(t, phi)
    assert not member(Trace([S0, S0]), phi)


def test_member_pred_singleton():
    assert member(singleton(S0), Pred(TLit(True)))
    assert not member(singleton(S0), Pred(TLit(False)))
    assert not member(Trace([S0, S0]), Pred(TLit(True)))


def test_member_operate_pre_trace_on_files_trace(files_program, files_contracts):
    from catverify.contracts import append_under_binders
    from catverify.interp import enumerate_traces
    [t] = enumerate_traces(files_program)
    # cut at the activation of operate's first scope (id 3): the pre-trace
    # of its contract holds of the history with f observed at the open
    idx = next(i for i, it in enumerate(t)
               if isinstance(it, Event) and it.tag == "push" and it.id == 3)
    prefix = Trace(t.items[:idx + 2])
    c = files_contracts["operate"]
    pre = append_under_binders(
        c.pre_body, Chop(Pred(c.pre_pred), EventF("start", "operate", TLit(3))))
    assert member(prefix, pre)


def test_member_is_linear_in_the_trace_length():
    # 1111 items that observe x at every state: the automaton reads each
    # item once, where building every (i, j) interval of every subformula
    # is cubic in the trace length
    items = []
    for i in range(370):
        s = State({"x": i % 5})
        items += [s, Event("write", file="f"), s]
    t = Trace(items + [State({"x": 0})])
    phi = parse_formula('~ ** obs x as y . (write("f") ~[open("f")])')
    start = time.perf_counter()
    assert member(t, phi)
    assert not member(t, parse_formula('~ ** obs x as y . (write("g") ~)'))
    assert time.perf_counter() - start < 2


def test_member_errors():
    with pytest.raises(UnboundLogicVar):
        member(singleton(S0), Pred(fm.LBinOp(">", TVar("y"), TLit(0))))
    # also where the automaton never reads the variable
    with pytest.raises(UnboundLogicVar):
        member(Trace([S0, S0]), Concat(Pred(TLit(False)),
                                       NoEv(frozenset([EventF("ret", id=TVar("y"))]))))
    with pytest.raises(UnboundProgramVar):
        member(Trace([S0, S0]), Obs("zz", "y",
                                    Chop(Pred(fm.LBinOp(">", TVar("y"), TLit(0))),
                                         ANY)))


def test_start_matches_sync_and_async_activation():
    sync = Trace([S0, Event("call", name="m", id=2), S0,
                  Event("push", name="m", id=2), S0])
    async_ = Trace([S0, Event("push", name="m", id=2), S0])
    phi = EventF("start", "m", TLit(2))
    assert member(sync, phi)
    assert member(async_, phi)
    assert not member(Trace([S0, Event("invoc", name="m", id=2), S0]), phi)
    lone_call = Trace([S0, Event("call", name="m", id=2), S0])
    assert not member(lone_call, phi)
    # as an exclusion, start excludes the call as well as the push
    assert not member(lone_call, NoEv(frozenset([phi])))
    assert not member(async_, NoEv(frozenset([phi])))


def test_event_shape_matcher_agrees_with_denotation():
    rng = random.Random(11)
    scope_tags = ("ret", "pop", "call", "invoc", "push")
    file_tags = ("open", "close", "read", "write")
    names = (None, fm.WILDCARD, "m", "n")
    ids = (None, fm.WILDCARD, TLit(0), TLit(1))
    files = (None, fm.WILDCARD, TLit("fa"), TLit("fb"))
    outcomes = set()
    for _ in range(2000):
        tag = rng.choice(scope_tags + file_tags)
        if tag in file_tags:
            p = EventF(tag, payload=rng.choice(files))
        elif tag == "ret":
            p = EventF(tag, id=rng.choice(ids))
        else:
            p = EventF(tag, rng.choice(names), rng.choice(ids))
        etag = tag if rng.random() < 0.5 else rng.choice(scope_tags + file_tags)
        if etag in file_tags:
            e = Event(etag, file=rng.choice(("fa", "fb")))
        elif etag == "ret":
            e = Event(etag, id=rng.randint(0, 1))
        else:
            e = Event(etag, name=rng.choice(("m", "n")), id=rng.randint(0, 1))
        t = Trace([S0, e, S0])
        hit = p.matches(e, {}, {})
        assert member(t, p) == hit
        assert member(t, NoEv(frozenset([p]))) != hit
        outcomes.add(hit)
    assert outcomes == {True, False}


# --- noEv vs mu encoding -------------------------------------------------------

def test_noev_equiv_mu_trivial():
    assert noev_equiv_mu(frozenset(), singleton(S0)) == (True, True)
    assert noev_equiv_mu(frozenset(), Trace([])) == (False, False)


def test_noev_equiv_mu_random():
    rng = random.Random(5)
    excl_open = frozenset([EventF("open", payload=TLit("fa"))])
    alphabets = [frozenset(), excl_open, ALL_EVENTS]
    for i in range(1000):
        t = gen_trace(rng, max_len=10, events=[
            Event("open", file="fa"), Event("close", file="fa"),
            Event("ret", id=1)], well_formed=(i % 2 == 0))
        excl = alphabets[i % 3]
        prim, enc = noev_equiv_mu(excl, t)
        assert prim == enc


# --- agreement with the split-enumeration oracle --------------------------------

def _all_raw_traces(alphabet, max_len):
    for n in range(1, max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield Trace(combo)


def test_concat_chop_agree_with_split_oracle_exhaustive():
    s1, s2 = State({"x": 1}), State({"x": 2})
    alphabet = [s1, s2, OPEN_F1]
    formulas = [
        Concat(NoEvItem(frozenset()), NoEvItem(frozenset())),
        Chop(ANY, Chop(EventF("open", payload=TLit("f1")), ANY)),
        Concat(Pred(TLit(True)), Chop(ANY, Pred(TLit(True)))),
        Chop(NoEv(ALL_EVENTS), Concat(EventF("open", payload=TLit("f1")), ANY)),
        Or(Chop(ANY, EventF("open", payload=TLit("f1"))), NoEv(ALL_EVENTS)),
    ]
    checked = 0
    for t in _all_raw_traces(alphabet, 8):
        for phi in formulas:
            assert member(t, phi) == member_oracle(t.items, phi), (t, phi)
        checked += 1
    assert checked == (3 ** 9 - 3) // 2


def test_interval_engine_agrees_with_oracle_on_random_formulas():
    rng = random.Random(17)
    for _ in range(400):
        phi = gen_formula(rng, depth=rng.randint(1, 3))
        t = gen_trace(rng, max_len=8, events=[OPEN_F1,
                                              Event("close", file="fa"),
                                              Event("open", file="fa")],
                      well_formed=(rng.random() < 0.7))
        assert member(t, phi) == member_oracle(t.items, phi), (t, phi)


_X_VALUES = (0, 1, "fa")


def _gen_monitor_formula(rng, depth, bound=()):
    """Random formula with what gen_formula lacks: observations of x bound to
    logic variables used in predicates and event fields, right-linear
    recursion, start atoms and the constant c. ``bound`` lists the logic
    variables in scope."""
    term = lambda: rng.choice([TConst("c"), TLit(0), TLit(1), TLit("fa")]
                              + [TVar(y) for y in bound] * 2)

    def shape():
        r = rng.random()
        if r < 0.3:
            return EventF("start", rng.choice(("m", fm.WILDCARD)),
                          rng.choice((term(), fm.WILDCARD)))
        if r < 0.6:
            return EventF("ret", id=term())
        return EventF(rng.choice(("open", "close")), payload=term())

    if depth <= 0:
        r = rng.random()
        if r < 0.25:
            return Pred(fm.LBinOp(rng.choice(("==", "!=", ">", "<")), term(), term()))
        if r < 0.35:
            return ANY
        if r < 0.5:
            return NoEv(frozenset([shape()]))
        if r < 0.6:
            return noev_mu_encoding(rng.choice((frozenset([shape()]), ALL_EVENTS)))
        return shape()
    r = rng.random()
    if r < 0.2:
        y = f"y{len(bound)}"
        return Obs("x", y, _gen_monitor_formula(rng, depth - 1, bound + (y,)))
    if r < 0.35:
        # right-linear: X only at the right end of a sequence
        seq = rng.choice((Concat, Chop))
        return Mu("X", Or(_gen_monitor_formula(rng, depth - 1, bound),
                          seq(_gen_monitor_formula(rng, depth - 1, bound), RecVar("X"))))
    op = rng.choice((Chop, Chop, Concat, And, Or))
    return op(_gen_monitor_formula(rng, depth - 1, bound),
              _gen_monitor_formula(rng, depth - 1, bound))


def _gen_monitor_trace(rng, max_len):
    """A trace whose states vary x, with sync activations (a call and the
    push of its scope), async ones (a lone push), calls followed by another
    scope's push, and some ill-formed items."""
    states = [State({"x": v}) for v in _X_VALUES]
    events = [Event("open", file="fa"), Event("close", file="fa"),
              Event("ret", id=0), Event("ret", id=1), Event("push", name="m", id=1),
              Event("push", name="n", id=0), Event("call", name="m", id=0)]
    items = [rng.choice(states)]
    while len(items) < max_len:
        r = rng.random()
        if r < 0.3:
            items.append(rng.choice(states))
        elif r < 0.45:
            # mostly the push of the call's scope, sometimes another scope's
            i, j = rng.randint(0, 1), rng.choice((0, 1, 1))
            items += [Event("call", name="m", id=i), items[-1],
                      Event("push", name="m", id=i if rng.random() < 0.7 else j),
                      items[-1]]
        elif r < 0.9:
            items += [rng.choice(events), items[-1]]
        else:
            items.append(rng.choice(states + events))
    return Trace(items)


def test_member_agrees_with_oracle_on_observations_recursion_and_starts():
    rng = random.Random(151)
    hits = 0
    for _ in range(1500):
        phi = _gen_monitor_formula(rng, rng.randint(1, 3))
        consts = {"c": rng.choice(_X_VALUES)}
        t = _gen_monitor_trace(rng, rng.randint(1, 7))
        got = member(t, phi, consts)
        assert got == member_oracle(t.items, phi, consts=consts), (t, phi, consts)
        hits += got
    assert 150 <= hits <= 1350


# --- lattice laws -----------------------------------------------------------------

def test_lattice_laws_random():
    rng = random.Random(31)
    for _ in range(500):
        f1 = gen_formula(rng, depth=rng.randint(0, 2))
        f2 = gen_formula(rng, depth=rng.randint(0, 2))
        t = gen_trace(rng, max_len=8, events=[OPEN_F1,
                                              Event("close", file="fa")])
        assert member(t, And(f1, f2)) == (member(t, f1) and member(t, f2))
        assert member(t, Or(f1, f2)) == (member(t, f1) or member(t, f2))


# --- observation quantifier ---------------------------------------------------------

def test_obs_semantics_bind_first_state():
    rng = random.Random(41)
    body = Chop(Pred(fm.LBinOp(">", TVar("y"), TLit(0))), ANY)
    for _ in range(200):
        x_val = rng.randint(-1, 2)
        t = Trace([State({"x": x_val})] +
                  list(gen_trace(rng, max_len=5).items))
        lhs = member(t, Obs("x", "y", body))
        rhs = member(t, subst_terms(body, {"y": TLit(t.first().get("x"))}))
        assert lhs == rhs


def test_obs_requires_leading_state():
    t = Trace([Event("ret", id=1), S0])
    assert not member(t, Obs("x", "y", ANY))


# --- skolemization ---------------------------------------------------------------------

def test_skolemize_pred():
    phi = Pred(fm.LBinOp(">", TVar("y"), TLit(0)))
    assert skolemize(phi, ["y"], ["c"]) == Pred(
        fm.LBinOp(">", TConst("c"), TLit(0)))


def test_skolemize_keeps_recvars_and_checks_freshness():
    phi = Mu("X", Or(NoEvItem(frozenset()),
                     Concat(NoEvItem(frozenset()), RecVar("X"))))
    assert skolemize(phi, [], []) == phi
    with pytest.raises(fm.FormulaError):
        skolemize(Pred(fm.LBinOp(">", TConst("c"), TVar("y"))), ["y"], ["c"])


def test_skolemize_distributes_over_sequencing():
    open_y = EventF("open", payload=TVar("y"))
    phi = Chop(ANY, open_y)
    got = skolemize(phi, ["y"], ["c"])
    assert got == Chop(ANY, EventF("open", payload=TConst("c")))
    phi2 = Concat(ANY, open_y)
    assert skolemize(phi2, ["y"], ["c"]) == Concat(
        ANY, EventF("open", payload=TConst("c")))


def test_skolemized_membership_implies_obs_membership():
    # traces whose first state maps x to the constant's value: membership of
    # the skolemized body implies membership of the quantified formula
    rng = random.Random(53)
    bodies = [
        Chop(ANY, Chop(EventF("open", payload=TVar("y")), ANY)),
        Chop(Pred(fm.LBinOp("==", TVar("y"), TLit("f1"))), ANY),
    ]
    hits = 0
    for _ in range(500):
        body = rng.choice(bodies)
        body_s = skolemize(body, ["y"], ["c"])
        quantified = Obs("x", "y", body)
        v = rng.choice(["f1", "f2"])
        t = Trace([State({"x": v})] + list(
            gen_trace(rng, max_len=6, events=[
                Event("open", file="f1"), Event("open", file="f2")]).items))
        try:
            in_skolem = member(t, body_s, consts={"c": v})
        except fm.FormulaError:
            continue
        if in_skolem:
            hits += 1
            assert member(t, quantified)
    assert hits > 100


# --- normalization ------------------------------------------------------------------

def test_normalize_unit_laws():
    phi = Chop(Chop(ANY, Pred(TLit(True))), Chop(ANY, EventF("ret", id=TLit(0))))
    assert normalize(phi) == Chop(ANY, EventF("ret", id=TLit(0)))
    assert normalize(And(ANY, Pred(TLit(True)))) == Pred(TLit(True))
    assert normalize(Chop(Pred(TLit(True)), Pred(TLit(True)))) == Pred(TLit(True))


def test_normalize_preserves_membership():
    rng = random.Random(61)
    for _ in range(300):
        phi = gen_formula(rng, depth=rng.randint(1, 3))
        t = gen_trace(rng, max_len=7, events=[OPEN_F1,
                                              Event("close", file="fa"),
                                              Event("open", file="fa")])
        assert member(t, phi) == member(t, normalize(phi))


# --- bounded inclusion ----------------------------------------------------------------

def test_included_reflexive():
    for text in ("~", "~ open(\"f\") ~", "[true]",
                 "mu X . ( ~[*] \\/ ~[*] . X )"):
        phi = parse_formula(text)
        assert included(phi, phi)


def test_included_counterexample_event_free():
    # an open-requiring language is not included in the event-free one
    lhs = parse_formula('~ open("f") ~')
    rhs = parse_formula("~[*]")
    verdict = included(lhs, rhs)
    assert verdict.status == "counterexample"
    assert member(verdict.counterexample, lhs)
    assert not member(verdict.counterexample, rhs)


def test_included_unconstrained_equals_padded_true():
    # the unconstrained segment and its [true]-padded form coincide
    assert included(parse_formula("~"), parse_formula("~ [true]"))
    assert included(parse_formula("~ [true]"), parse_formula("~"))


def test_included_respects_constant_valuations():
    lhs = Chop(ANY, Pred(fm.LBinOp(">", TConst("c"), TLit(1))))
    rhs = Chop(ANY, Pred(fm.LBinOp(">", TConst("c"), TLit(0))))
    assert included(lhs, rhs)
    assert included(rhs, lhs).status == "counterexample"


def test_included_unknown_on_open_formulas():
    assert included(RecVar("X"), ANY).status == "unknown"


def _assert_counterexample(verdict, lhs, rhs):
    assert verdict.status == "counterexample"
    consts = dict(verdict.valuation)
    assert member(verdict.counterexample, lhs, consts)
    assert not member(verdict.counterexample, rhs, consts)


def test_included_tells_two_constants_apart():
    # an open of one unknown file is no open of another unknown file
    lhs = chop_of([ANY, EventF("open", payload=TConst("c1")), ANY])
    rhs = chop_of([ANY, EventF("open", payload=TConst("c2")), ANY])
    _assert_counterexample(included(lhs, rhs), lhs, rhs)
    assert included(lhs, lhs)


def test_included_sees_unequal_constants_in_a_predicate():
    rhs = Chop(ANY, Pred(fm.LBinOp("==", TConst("a"), TConst("b"))))
    _assert_counterexample(included(ANY, rhs), ANY, rhs)


def test_included_gives_an_ordered_id_constant_every_value():
    # c > 0 does not make ret(c) a ret(1): c = 2 is a counterexample
    c, y = TConst("c"), TVar("y")
    lhs = Chop(EventF("ret", id=c), Pred(fm.LBinOp(">", c, TLit(0))))
    rhs = EventF("ret", id=TLit(1))
    _assert_counterexample(included(lhs, rhs), lhs, rhs)
    # a constant only in a predicate reaches an id through an observation
    lhs = Obs("x", "y", Chop(Pred(fm.LBinOp("==", y, c)), EventF("ret", id=y)))
    rhs = Or(EventF("ret", id=TLit(0)), EventF("ret", id=TLit(1)))
    _assert_counterexample(included(lhs, rhs), lhs, rhs)
    # an observed value strictly between 0 and 10 is neither 1 nor 9
    between = Chop(Pred(fm.LBinOp(">", y, TLit(0))), Pred(fm.LBinOp("<", y, TLit(10))))
    lhs = Obs("x", "y", Chop(between, EventF("ret", id=y)))
    rhs = Or(EventF("ret", id=TLit(1)), EventF("ret", id=TLit(9)))
    _assert_counterexample(included(lhs, rhs), lhs, rhs)


def test_included_separates_two_ordered_constants_in_one_gap():
    # two constants below 0 need not be equal
    c1, c2 = TConst("c1"), TConst("c2")
    lhs = And(Chop(ANY, Pred(fm.LBinOp("<", c1, TLit(0)))),
              Chop(ANY, Pred(fm.LBinOp("<", c2, TLit(0)))))
    rhs = Chop(ANY, Pred(fm.LBinOp("==", c1, c2)))
    _assert_counterexample(included(lhs, rhs), lhs, rhs)


def test_included_gives_up_rather_than_search_for_minutes():
    # four ordered id constants give ~30000 valuations, three observed
    # variables ~8000 state letters: "unknown" at once instead of a long run
    consts = [TConst(f"d{i}") for i in range(4)]
    many = ANY
    for c in consts:
        many = Chop(many, Chop(EventF("ret", id=c), Pred(fm.LBinOp(">", c, TLit(0)))))
    observed = ANY
    for i in range(3):
        observed = Obs(f"x{i}", f"y{i}", Chop(
            Pred(fm.LBinOp(">", TVar(f"y{i}"), TLit(i))), observed))
    for phi in (many, observed):
        start = time.perf_counter()
        verdict = included(phi, phi)
        assert verdict.status == "unknown" and "search limit" in verdict.detail
        assert time.perf_counter() - start < 5
    # three of those constants, or two observed variables, are decided
    three = chop_of([ANY] + [Chop(EventF("ret", id=c), Pred(fm.LBinOp(">", c, TLit(0))))
                             for c in consts[:3]])
    assert included(three, three)
    assert included(observed.body.rhs, observed.body.rhs)


def test_included_is_exact_unless_a_predicate_orders_unknowns():
    gt = Chop(ANY, Pred(fm.LBinOp(">", TConst("c"), TLit(1))))
    assert not included(gt, gt).bounded
    two = Chop(ANY, Pred(fm.LBinOp("<", TConst("c"), TConst("d"))))
    verdict = included(two, two)
    assert verdict.status == "included" and verdict.bounded


def test_included_unknown_outside_the_right_linear_fragment():
    # mu X . [true] \/ X . [true] recurses on the left of a sequence
    phi = Mu("X", Or(Pred(TLit(True)), Concat(RecVar("X"), Pred(TLit(True)))))
    verdict = included(phi, ANY)
    assert verdict.status == "unknown" and "right-linear" in verdict.detail
    # membership runs the same automaton, so it refuses the formula too
    with pytest.raises(fm.FormulaError, match="right-linear"):
        member(singleton(S0), phi)


def test_included_decides_right_linear_recursion():
    assert included(noev_mu_encoding(ALL_EVENTS), NoEv(ALL_EVENTS))
    assert included(NoEv(ALL_EVENTS), noev_mu_encoding(ALL_EVENTS))
    lhs = noev_mu_encoding(frozenset())
    rhs = NoEv(frozenset([EventF("open", payload=TLit("fa"))]))
    _assert_counterexample(included(lhs, rhs), lhs, rhs)


def test_included_with_observations():
    # the observed value of x decides the predicates
    stronger = parse_formula("obs x as y . (~ ** [y > 1])")
    weaker = parse_formula("obs x as y . (~ ** [y > 0])")
    assert included(stronger, weaker)
    verdict = included(weaker, stronger)
    _assert_counterexample(verdict, weaker, stronger)
    assert verdict.counterexample[0].get("x") == 1


def test_included_pairs_start_scopes():
    # a call and a push of different scopes are no activation
    pair = Chop(EventF("call", "m", fm.WILDCARD), EventF("push", "m", fm.WILDCARD))
    start = EventF("start", "m", fm.WILDCARD)
    _assert_counterexample(included(pair, start), pair, start)
    assert included(start, Or(pair, EventF("push", "m", fm.WILDCARD)))


def _with_mu(rng, phi):
    """The formula with some no-event segments replaced by their mu
    encoding."""
    if isinstance(phi, NoEv) and rng.random() < 0.3:
        return noev_mu_encoding(phi.excluded)
    if isinstance(phi, (And, Or, Concat, Chop)):
        return type(phi)(_with_mu(rng, phi.lhs), _with_mu(rng, phi.rhs))
    return phi


def _gen_const_formula(rng, depth):
    """Random formula over file constants c1, c2 and the literal "fa"."""
    term = lambda: rng.choice([TConst("c1"), TConst("c2"), TLit("fa")])
    if depth <= 0:
        r = rng.random()
        if r < 0.2:
            return Pred(fm.LBinOp(rng.choice(("==", "!=")), TConst("c1"),
                                  rng.choice([TConst("c2"), TLit("fa")])))
        if r < 0.4:
            return ANY
        if r < 0.6:
            return NoEv(frozenset([EventF(rng.choice(("open", "close")),
                                          payload=term())]))
        return EventF(rng.choice(("open", "close")), payload=term())
    op = rng.choice((Chop, Chop, Concat, And, Or))
    return op(_gen_const_formula(rng, depth - 1),
              _gen_const_formula(rng, depth - 1))


def _gen_id_formula(rng, depth):
    """Random formula over constants d1, d2 that are both return ids and
    ordered or compared in predicates, and the literals 0 and 1."""
    term = lambda: rng.choice([TConst("d1"), TConst("d2"), TLit(1)])
    if depth <= 0:
        r = rng.random()
        if r < 0.3:
            return Pred(fm.LBinOp(rng.choice(("==", "!=", ">", "<")),
                                  rng.choice([TConst("d1"), TConst("d2")]),
                                  rng.choice([TConst("d2"), TLit(0), TLit(1)])))
        if r < 0.45:
            return ANY
        if r < 0.6:
            return NoEv(frozenset([EventF("ret", id=term())]))
        return EventF("ret", id=term())
    op = rng.choice((Chop, Chop, Concat, And, Or))
    return op(_gen_id_formula(rng, depth - 1), _gen_id_formula(rng, depth - 1))


def test_included_finds_every_counterexample_the_oracle_finds():
    from tests.oracles import included_oracle
    rng = random.Random(131)
    pairs = [(_with_mu(rng, gen_formula(rng, depth=rng.randint(1, 3))),
              _with_mu(rng, gen_formula(rng, depth=rng.randint(1, 3))))
             for _ in range(150)]
    pairs += [(_gen_const_formula(rng, rng.randint(1, 3)),
               _gen_const_formula(rng, rng.randint(1, 3))) for _ in range(150)]
    pairs += [(_gen_id_formula(rng, rng.randint(1, 3)),
               _gen_id_formula(rng, rng.randint(1, 3))) for _ in range(150)]
    found = 0
    for lhs, rhs in pairs:
        verdict = included(lhs, rhs)
        assert verdict.status in ("included", "counterexample")
        if verdict.status == "counterexample":
            _assert_counterexample(verdict, lhs, rhs)
        if included_oracle(lhs, rhs, bound=5, max_valuations=64) is not None:
            found += 1
            assert verdict.status == "counterexample", (lhs, rhs)
    assert found >= 100


# --- surface syntax -----------------------------------------------------------------

def test_recursion_may_not_cross_observation():
    with pytest.raises(fm.FormulaError, match="crosses"):
        parse_formula("mu X . obs x as y . X")
    # a fixpoint wholly inside the observation scope is legal
    parse_formula("obs x as y . (mu X . ( ~[*] \\/ ~[*] . X ))")


def test_formula_print_parse_roundtrip():
    texts = [
        "~",
        "~[*]",
        '~ open("f1") ~[close("f1")]',
        "[y > 0 && y < 9]",
        "start(m, 2) ~ ret(2) ** pop(m, 2)",
        "obs file as f . (open(f) ~[close(f), write(f)])",
        "mu X . ( ~[*] \\/ ~[*] . X )",
        "[true] . close(\"f\") ~ /\\ ~",
    ]
    for text in texts:
        phi = parse_formula(text)
        assert parse_formula(repr(phi)) == phi, text
    rng = random.Random(83)
    for _ in range(200):
        phi = gen_formula(rng, depth=rng.randint(0, 3))
        assert parse_formula(repr(phi)) == phi, repr(phi)
