import random

import pytest

from catverify import (parse_contract, parse_contracts, parse_formula,
                       parse_program)
from catverify.contracts import ContractDecl
from catverify.formula import (And, Chop, EventF, NoEv, Pred,
                               TConst, TLit, TVar, TRUE, member, normalize)
from catverify.gen import gen_program, gen_update, trivial_contract
from catverify.interp import enumerate_traces, eval_global
from catverify.syntax import Lit, lookup
from catverify.trace import Event, State, Trace, schedule, singleton
from catverify.verifier import (ContractJudgment, HavocPresent, LocalJudgment,
                                ProofContext, Target, UAssign, UEvent, UHavoc,
                                URun, VerifierError, apply_finish_rule,
                                discharge_local, eval_update, max_contracts,
                                schedule_update, subtype, update_repr,
                                validate_update,
                                verify_procedure, verify_program)

S0 = State({})
ANY = NoEv(frozenset())


# --- update evaluation ------------------------------------------------------------

def test_eval_update_assign():
    [t] = eval_update((UAssign("x", Lit(1)),), singleton(S0), None)
    assert t == Trace([S0, State({"x": 1})])


def test_eval_update_invoc_triple():
    [t] = eval_update((UEvent("invoc", name="m", id=1),), singleton(S0), None)
    assert t == Trace([S0, Event("invoc", name="m", id=1), S0])


def test_eval_update_start_emits_call_and_push():
    [t] = eval_update((UEvent("start", name="m", id=0),), singleton(S0), None)
    assert [e.tag for e in t.events()] == ["call", "push"]


def test_eval_update_run_as_executes_body(files_program):
    base = singleton(State({"file": "file1.txt"}))
    [t] = eval_update((URun("closeF", 2, "as"),), base, files_program)
    events = t.events()
    assert [e.tag for e in events] == ["push", "close", "ret", "pop"]
    assert events[1].file == "file1.txt"
    assert events[0].scope() == ("closeF", 2) == events[3].scope()


def test_eval_update_run_sy_adds_call(files_program):
    base = singleton(State({"file": "file1.txt"}))
    [t] = eval_update((URun("operate", 3, "sy"),), base, files_program)
    assert [e.tag for e in t.events()] == ["call", "push", "write", "ret", "pop"]


def test_eval_update_havoc_rejected():
    with pytest.raises(HavocPresent):
        eval_update((UHavoc("V"),), singleton(S0), None)


def test_validate_update():
    with pytest.raises(VerifierError):
        validate_update((URun("m", 1, "sy"), URun("n", 1, "as")))
    with pytest.raises(VerifierError):
        validate_update((UEvent("ret", id=0), UHavoc("V")))
    validate_update((UHavoc("V"), UEvent("ret", id=0)))


# --- schedule over updates -----------------------------------------------------------

def test_schedule_update_cases():
    invoc = UEvent("invoc", name="m", id=1)
    ret = UEvent("ret", id=0)
    assert schedule_update((invoc, ret)) == frozenset({("m", 1)})
    assert schedule_update((invoc,)) == frozenset()
    assert schedule_update((invoc, ret, URun("m", 1, "as"))) == frozenset()
    # a synchronous run of the same name does not resolve the invocation
    assert schedule_update((invoc, ret, URun("m", 2, "sy"))) == frozenset(
        {("m", 1)})


def test_scheduling_lemma_on_random_updates():
    # the schedule over an update equals the union of the schedule over its
    # evaluated traces (300 random completed-scope updates)
    rng = random.Random(71)
    checked = 0
    while checked < 300:
        program = gen_program(rng, max_procs=3, max_stmts=3, file_ops=True)
        update = gen_update(rng, program)
        try:
            traces = eval_update(update, singleton(State({"x": 0, "y": 0})),
                                 program, step_bound=4000)
        except Exception:
            continue
        lhs = schedule_update(update)
        rhs = frozenset().union(*[schedule(t) for t in traces]) if traces \
            else frozenset()
        assert lhs == rhs, (update_repr(update), traces)
        checked += 1


def test_update_composition_property():
    # evaluating a compound update equals evaluating its parts in sequence
    rng = random.Random(73)
    checked = 0
    while checked < 200:
        program = gen_program(rng, max_procs=3, max_stmts=3)
        u = gen_update(rng, program)
        cut = rng.randint(0, len(u))
        u1, u2 = u[:cut], u[cut:]
        base = singleton(State({"x": 0, "y": 0}))
        try:
            whole = set(eval_update(u, base, program, step_bound=4000))
            parts = set()
            for mid in eval_update(u1, base, program, step_bound=4000):
                parts.update(eval_update(u2, mid, program, step_bound=4000))
        except Exception:
            continue
        assert whole == parts
        checked += 1


# --- discharge engines -----------------------------------------------------------------

def _pre_judgment_closeF():
    # the antecedent judgment the contract rule introduces for closeF
    u0 = (UHavoc("V"), UEvent("start", name="closeF", id=0))
    theta_pre = parse_formula('~ open(f) ~[close(f)]')
    theta_pre = normalize(
        Chop(Chop(ANY, EventF("open", payload=TConst("c"))),
             NoEv(frozenset([EventF("close", payload=TConst("c"))]))))
    return u0, LocalJudgment(u0, theta_pre)


def test_discharge_via_antecedent(files_program):
    u0, judgment = _pre_judgment_closeF()
    want = Chop(ANY, Chop(EventF("open", payload=TConst("c")),
                          NoEv(frozenset([EventF("close",
                                                       payload=TConst("c"))]))))
    result = discharge_local([judgment], u0, want, program=files_program)
    assert result.closed and not result.bounded


def test_discharge_ret_keeps_exclusion(files_program):
    update = (UEvent("ret", id=0),)
    want = NoEv(frozenset([EventF("open", payload=TConst("c"))]))
    result = discharge_local([], update, want, program=files_program)
    assert result.closed


def test_discharge_close_violates_exclusion(files_program):
    update = (UEvent("close", file_expr=Lit("f"), file_term=TLit("f")),)
    want = NoEv(frozenset([EventF("close", payload=TLit("f"))]))
    result = discharge_local([], update, want, program=files_program)
    assert not result.closed


def test_discharge_concrete_mode(files_program):
    update = (UEvent("start", name="closeF", id=0),
              UEvent("close", file_expr=Lit("f"), file_term=TLit("f")),
              UEvent("ret", id=0))
    want = Chop(ANY, Chop(EventF("close", payload=TLit("f")), ANY))
    result = discharge_local([], update, want, mode="concrete",
                             program=files_program)
    assert result.closed and result.bounded
    bad = NoEv(frozenset([EventF("close", payload=TLit("f"))]))
    result = discharge_local([], update, bad, mode="concrete",
                             program=files_program)
    assert not result.closed


# --- proof trees ------------------------------------------------------------------------

def test_contract_rule_root_shape(files_program, files_contracts):
    tree = verify_procedure(files_program, files_contracts, "closeF")
    assert tree.rule == "Contract"
    assert tree.conclusion == "|- closeF : C_closeF"
    assert tree.accepted


def test_contract_rule_no_binders_no_constants(files_program, files_contracts):
    tree = verify_procedure(files_program, files_contracts, "init")
    assert tree.accepted
    assert "c_" not in tree.premises[0].conclusion


def test_closeF_proof_spine(files_program, files_contracts):
    tree = verify_procedure(files_program, files_contracts, "closeF")
    assert tree.main_spine() == [
        "Contract", "Close", "Return", "Finish", "PostObligation"]
    guard = tree.premises[0].premises[0]
    assert guard.rule == "FileGuard" and guard.status == "closed"


def test_do_proof_rules(files_program, files_contracts):
    tree = verify_procedure(files_program, files_contracts, "do")
    assert tree.accepted
    for rule in ("Open", "AsyncCall", "Call", "Return", "ScheduleD", "Finish"):
        assert tree.contains_rule(rule), rule


def test_do_proof_uses_contract_judgment(files_program, files_contracts):
    # the run judgment added for closeF discharges the final obligation
    tree = verify_procedure(files_program, files_contracts, "do")
    finish = tree
    while finish.rule != "Finish":
        finish = finish.premises[-1]
    [leaf] = finish.premises
    assert leaf.rule == "PostObligation" and leaf.status == "closed"


def test_symexec_assign_then_return():
    program = parse_program("m(){ x = 1; return } { x; m() }")
    contracts = {"m": trivial_contract("m"), "init": trivial_contract("init")}
    tree = verify_procedure(program, contracts, "m")
    assert tree.accepted
    assert tree.main_spine()[:3] == ["Contract", "Assign", "Return"]


def test_symexec_cond_branches():
    program = parse_program("m(){ if (x < 1) { x = 1 }; return } { x; m() }")
    contracts = {"m": trivial_contract("m"), "init": trivial_contract("init")}
    tree = verify_procedure(program, contracts, "m")
    assert tree.accepted and tree.contains_rule("Cond")
    cond = tree.premises[0]
    assert cond.rule == "Cond" and len(cond.premises) == 2


def test_write_without_open_gets_open_guard():
    program = parse_program('m(){ write("f"); return } { m() }')
    contracts = {"m": trivial_contract("m"), "init": trivial_contract("init")}
    tree = verify_procedure(program, contracts, "m")
    assert not tree.accepted
    [leaf] = tree.open_leaves()
    assert leaf.rule == "FileGuard"


def test_open_then_close_guard_discharged():
    program = parse_program('m(){ open("f"); close("f"); return } { m() }')
    contracts = {"m": trivial_contract("m"), "init": trivial_contract("init")}
    tree = verify_procedure(program, contracts, "m")
    assert tree.accepted


def test_close_after_close_rejected():
    program = parse_program('m(){ open("f"); close("f"); close("f"); return } { m() }')
    contracts = {"m": trivial_contract("m"), "init": trivial_contract("init")}
    tree = verify_procedure(program, contracts, "m")
    assert not tree.accepted
    assert any(l.rule == "FileGuard" for l in tree.open_leaves())


def test_call_without_contract_is_open():
    program = parse_program("a(){ return } b(){ a(); return } { b() }")
    contracts = {"b": trivial_contract("b"), "init": trivial_contract("init"),
                 "a": trivial_contract("a")}
    del contracts["a"]
    tree = verify_procedure(program, {"b": contracts["b"],
                                      "init": contracts["init"]}, "b")
    assert not tree.accepted
    assert any("no contract" in l.evidence for l in tree.open_leaves())


def test_call_rule_reflexive_fit():
    # callee contract promising exactly what the target slot allows closes
    # the fit premise syntactically
    program = parse_program('a(){ open("f"); return } b(){ a(); return } { b() }')
    contracts = {n: trivial_contract(n) for n in ("a", "b", "init")}
    contracts["a"] = parse_contract("""
    contract a {
      assume: ~; pre: [true]; internal: ~ open("f") ~; post: [true]; continue: ~;
    }""")
    tree = verify_procedure(program, contracts, "b")
    assert tree.accepted


def test_failing_pre_trace_is_open():
    program = parse_program('a(){ read("f"); return } b(){ a(); return } { b() }')
    contracts = {n: trivial_contract(n) for n in ("b", "init")}
    contracts["a"] = parse_contract("""
    contract a {
      assume: ~ open("f") ~[close("f")]; pre: [true];
      internal: ~; post: [true]; continue: ~;
    }""")
    tree = verify_procedure(program, contracts, "b")
    assert not tree.accepted
    assert any(l.rule == "CallPre" for l in tree.open_leaves())


def test_schedule_d_on_singleton(files_program, files_contracts):
    tree = verify_procedure(files_program, files_contracts, "do")
    node = tree
    while node.rule != "ScheduleD":
        node = node.premises[-1]
    assert node.premises[0].rule == "SchedulePre"
    assert node.premises[1].rule == "ScheduleFit"


def test_schedule_n_on_two_invocations():
    program = parse_program(
        "a(){ return } b(){ return } c(){ !a(); !b(); return } { c() }")
    contracts = {n: trivial_contract(n) for n in ("a", "b", "c", "init")}
    tree = verify_procedure(program, contracts, "c")
    assert tree.accepted and tree.contains_rule("ScheduleN")
    node = tree
    while node.rule != "ScheduleN":
        node = node.premises[-1]
    # premise groups for both scheduling choices
    assert sum(1 for p in node.premises if p.rule == "SchedulePre") == 2


def test_finish_requires_empty_schedule(files_program):
    ctx = ProofContext(program=files_program, contracts={})
    target = Target(chain=[ANY])
    with pytest.raises(VerifierError):
        apply_finish_rule([], (UEvent("invoc", name="m", id=1),
                               UEvent("ret", id=0)), target, "m", ctx)
    node = apply_finish_rule([], (UEvent("ret", id=0),), target, "m", ctx)
    assert node.rule == "Finish"


def test_verify_program_case_study(files_program, files_contracts):
    trees = verify_program(files_program, files_contracts)
    assert all(t.accepted for t in trees.values())


def test_verify_program_case_study_concrete_mode(files_program,
                                                 files_contracts):
    trees = verify_program(files_program, files_contracts, mode="concrete")
    assert all(t.accepted for t in trees.values())


def test_caller_open_flows_through_sync_and_async_callees():
    # the caller opens, a synchronous callee reads, an asynchronous callee
    # closes; every contract verifies modularly and the caller's own
    # open/close promise is fulfilled across both callees
    program = parse_program("""
    worker() { read("log"); return }
    cleanup() { close("log"); return }
    session() { open("log"); worker(); !cleanup(); return }
    { session() }
    """)
    contracts = {c.name: c for c in parse_contracts("""
    contract worker {
      assume: ~ open("log") ~[close("log")]; pre: [true];
      internal: read("log") ~[close("log")]; post: [true]; continue: ~;
    }
    contract cleanup {
      assume: ~ open("log") ~[close("log")]; pre: [true];
      internal: close("log") ~; post: [true]; continue: ~;
    }
    contract session {
      assume: ~[open("log")]; pre: [true];
      internal: ~ open("log") ~ close("log") ~; post: [true]; continue: ~;
    }
    contract init { assume: ~; pre: [true]; internal: ~; post: [true]; continue: ~; }
    """)}
    trees = verify_program(program, contracts)
    assert all(t.accepted for t in trees.values()), {
        n: t.accepted for n, t in trees.items()}


_TWO_READERS = """
    ra() { read("a"); return }
    rb() { read("b"); return }
    boss() { open("a"); open("b"); !ra(); !rb(); return }
    { boss() }
    """


def _two_reader_contracts(ra_internal, rb_internal):
    return {c.name: c for c in parse_contracts(f"""
    contract ra {{
      assume: ~ open("a") ~[close("a")]; pre: [true];
      internal: {ra_internal}; post: [true]; continue: ~;
    }}
    contract rb {{
      assume: ~ open("b") ~[close("b")]; pre: [true];
      internal: {rb_internal}; post: [true]; continue: ~;
    }}
    contract boss {{ assume: ~; pre: [true]; internal: ~; post: [true]; continue: ~; }}
    contract init {{ assume: ~; pre: [true]; internal: ~; post: [true]; continue: ~; }}
    """)}


def test_second_open_knowledge_survives_run_judgments():
    # after one callee is scheduled, the pre-trace discharge for the next
    # still knows about the caller's second open, which neither callee's
    # contract lets it close
    contracts = _two_reader_contracts('read("a") ~[close("b")]',
                                      'read("b") ~[close("a")]')
    trees = verify_program(parse_program(_TWO_READERS), contracts)
    assert all(t.accepted for t in trees.values()), {
        n: t.accepted for n, t in trees.items()}


def test_callee_contract_that_may_close_the_next_callees_file_stays_open():
    # a callee contract that allows any events after its read may close the
    # other callee's file, so that callee's pre-trace is not provable
    contracts = _two_reader_contracts('read("a") ~', 'read("b") ~')
    tree = verify_procedure(parse_program(_TWO_READERS), contracts, "boss")
    leaves = tree.open_leaves()
    assert leaves and all(leaf.rule == "SchedulePre" for leaf in leaves)
    assert all("close" in leaf.evidence for leaf in leaves)


def test_weakened_closeF_opens_do_final_obligation(files_program,
                                                   files_contracts):
    weak = dict(files_contracts)
    c = files_contracts["closeF"]
    weak["closeF"] = ContractDecl(c.name, c.pre_body, c.pre_binders,
                                  c.pre_pred, ANY, c.post_binders,
                                  c.post_pred, c.post_body)
    tree = verify_procedure(files_program, weak, "do")
    assert not tree.accepted
    leaves = tree.open_leaves()
    assert leaves and all(l.rule == "PostObligation" for l in leaves)


# --- soundness spot checks ---------------------------------------------------------------


def _stmt_judgment_holds(sigma, update, stmt, phi, program):
    """Concrete validity of the global statement judgment at one state."""
    try:
        bases = eval_update(update, singleton(sigma), program)
    except Exception:
        return None
    for base in bases:
        for suffix in eval_global(stmt, base, program):
            full = Trace(base.items + suffix.items[1:])
            if not member(full, phi):
                return False
    return True


def test_assign_rule_reversible(files_program):
    # premise and conclusion validity coincide over sampled states
    program = parse_program("{ x; x = 1; skip }")
    phi = parse_formula("~")
    phi_strict = parse_formula("~[*]")
    start = (UEvent("start", name="init", id=0),)
    from catverify.syntax import Assign, Skip, Seq
    for sigma in (State({"x": 0}), State({"x": 5})):
        for target in (phi, phi_strict):
            conclusion = _stmt_judgment_holds(
                sigma, start, Seq(Assign("x", Lit(1)), Skip()), target, program)
            premise = _stmt_judgment_holds(
                sigma, start + (UAssign("x", Lit(1)),), Skip(), target, program)
            assert conclusion == premise


def test_return_rule_reversible():
    program = parse_program("{ skip }")
    from catverify.syntax import Return
    start = (UEvent("start", name="init", id=0),)
    for target_text in ("~", "~ ret(0) ~", "~[*]"):
        target = parse_formula(target_text)
        conclusion = _stmt_judgment_holds(S0, start, Return(), target, program)
        premise = _stmt_judgment_holds(S0, start + (UEvent("ret", id=0),),
                                       None, target, program)
        assert conclusion == premise, target_text


def test_async_call_rule_reversible():
    program = parse_program("a(){ return } { !a() }")
    from catverify.syntax import AsyncCall, Return, Seq
    start = (UEvent("start", name="init", id=0),)
    for target_text in ("~", "~[*]", "~ ret(0) ~"):
        target = parse_formula(target_text)
        conclusion = _stmt_judgment_holds(
            S0, start, Seq(AsyncCall("a"), Return()), target, program)
        premise = _stmt_judgment_holds(
            S0, start + (UEvent("invoc", name="a", id=1),), Return(),
            target, program)
        assert conclusion == premise


def test_open_rule_reversible():
    program = parse_program('{ open("f") }')
    from catverify.syntax import FileOp, Return, Seq
    start = (UEvent("start", name="init", id=0),)
    for target_text in ('~', '~ open("f") ~', '~[open("f")]'):
        target = parse_formula(target_text)
        conclusion = _stmt_judgment_holds(
            S0, start, Seq(FileOp("open", Lit("f")), Return()), target, program)
        premise = _stmt_judgment_holds(
            S0, start + (UEvent("open", file_expr=Lit("f"),
                                file_term=TLit("f")),),
            Return(), target, program)
        assert conclusion == premise


def test_cond_rule_reversible():
    # guard known at evaluation time: conclusion validity coincides with the
    # conjunction of the guarded premise validities
    from catverify.syntax import Assign, BinOp, If, Return, Seq, Var
    program = parse_program("{ x; if (x < 1) { x = 9 }; skip }")
    start = (UEvent("start", name="init", id=0),)
    stmt_then = Seq(Assign("x", Lit(9)), Return())
    stmt_else = Return()
    cond_stmt = Seq(If(BinOp("<", Var("x"), Lit(1)), Assign("x", Lit(9))),
                    Return())
    for x0 in (0, 5):
        sigma = State({"x": x0})
        guard_true = x0 < 1
        for target_text in ("~", "~[*]", "~ ret(0) ~"):
            target = parse_formula(target_text)
            conclusion = _stmt_judgment_holds(sigma, start, cond_stmt,
                                              target, program)
            premise_then = _stmt_judgment_holds(sigma, start, stmt_then,
                                                target, program)
            premise_else = _stmt_judgment_holds(sigma, start, stmt_else,
                                                target, program)
            # each premise is conditional on its guard actually holding
            effective = premise_then if guard_true else premise_else
            assert conclusion == effective


def test_call_rule_sound_direction(files_program, files_contracts):
    # an accepted call-rule application's conclusion judgment is concretely
    # valid: do's proof closes and do's full body satisfies its target
    tree = verify_procedure(files_program, files_contracts, "do")
    assert tree.accepted
    from catverify.contracts import adheres_trace, weak_variant
    [t] = enumerate_traces(files_program)
    for i in (1, 4):
        assert adheres_trace(t, i, weak_variant(files_contracts["do"]), "do")


def test_proof_trees_are_small(files_program, files_contracts):
    def count(node):
        return 1 + sum(count(p) for p in node.premises)

    for name in ("do", "closeF", "operate", "init"):
        tree = verify_procedure(files_program, files_contracts, name)
        assert count(tree) <= 40


def test_close_rule_sound_direction():
    # premise validity implies conclusion validity (not reversible)
    program = parse_program('{ open("f"); close("f") }')
    from catverify.syntax import FileOp, Return, Seq
    start = (UEvent("start", name="init", id=0),
             UEvent("open", file_expr=Lit("f"), file_term=TLit("f")))
    guard = parse_formula('~ open("f") ~[close("f")]')
    for target_text in ('~', '~ close("f") ~'):
        target = parse_formula(target_text)
        premise_guard = all(
            member(t, guard)
            for t in eval_update(start, singleton(S0), program))
        premise_rest = _stmt_judgment_holds(
            S0, start + (UEvent("close", file_expr=Lit("f"),
                                file_term=TLit("f")),),
            Return(), target, program)
        conclusion = _stmt_judgment_holds(
            S0, start, Seq(FileOp("close", Lit("f")), Return()), target, program)
        if premise_guard and premise_rest:
            assert conclusion


# --- Liskov subtyping -------------------------------------------------------------------

def _state_contract(pre_pred, post_pred, binders=(("x", "y"),)):
    return ContractDecl("c", ANY, tuple(binders), pre_pred, ANY, (),
                        post_pred, ANY)


def test_subtype_reflexive(files_contracts):
    for c in files_contracts.values():
        assert subtype(c, c).status == "proved"


def test_subtype_state_contract_reduction():
    from catverify.formula import LBinOp
    stronger_pre = _state_contract(LBinOp(">", TVar("y"), TLit(1)), TRUE)
    weaker_pre = _state_contract(LBinOp(">", TVar("y"), TLit(0)), TRUE)
    verdict = subtype(stronger_pre, weaker_pre)
    assert verdict.status == "proved"
    assert subtype(weaker_pre, stronger_pre).status == "disproved"


def test_subtype_internal_exclusion_disproved_at_l2():
    c1 = ContractDecl("c", ANY, (("file", "f"),), TRUE,
                      NoEv(frozenset([EventF("close", payload=TVar("f"))])),
                      (), TRUE, ANY)
    c2 = ContractDecl("c", ANY, (("file", "f"),), TRUE, ANY, (), TRUE, ANY)
    verdict = subtype(c1, c2)
    assert verdict.status == "disproved" and verdict.failed_condition == "L2"
    # the more general contract has the larger internal language
    assert subtype(c2, c1).status == "proved"


def test_subtype_mismatched_binders_unknown():
    c1 = _state_contract(TRUE, TRUE, binders=(("x", "y"),))
    c2 = _state_contract(TRUE, TRUE, binders=(("z", "y"),))
    assert subtype(c1, c2).status == "unknown"


def test_max_contracts_cases():
    top = ContractDecl("c", ANY, (), TRUE, ANY, (), TRUE, ANY)
    mid = ContractDecl("c", ANY, (), TRUE,
                       NoEv(frozenset([EventF("open", payload=TLit("s"))])),
                       (), TRUE, ANY)
    bot = ContractDecl("c", ANY, (), TRUE,
                       NoEv(frozenset([EventF("open", payload=TLit("s")),
                                       EventF("close", payload=TLit("s"))])),
                       (), TRUE, ANY)
    assert max_contracts([top]) == [top]
    assert max_contracts([top, mid]) == [top]
    assert max_contracts([top, mid, bot]) == [top]
    # incomparable contracts are both kept
    left = ContractDecl("c", ANY, (), TRUE,
                        NoEv(frozenset([EventF("open", payload=TLit("s"))])),
                        (), TRUE, ANY)
    right = ContractDecl("c", ANY, (), TRUE,
                         NoEv(frozenset([EventF("close", payload=TLit("s"))])),
                         (), TRUE, ANY)
    assert set(map(id, max_contracts([left, right]))) == {id(left), id(right)}


def test_act_order_uses_maximal_contract():
    program = parse_program("a(){ return } c(){ !a(); return } { c() }")
    general = trivial_contract("a")
    specific = ContractDecl(
        "a", ANY, (), TRUE,
        NoEv(frozenset([EventF("open", payload=TLit("s"))])),
        (), TRUE, ANY)
    contracts = {"a": [general, specific], "c": trivial_contract("c"),
                 "init": trivial_contract("init")}
    tree = verify_procedure(program, contracts, "c",
                            schedule_variant="actOrder")
    assert tree.contains_rule("actOrder")
    node = tree
    while node.rule != "actOrder":
        node = node.premises[-1]
    # only the maximal (general) contract is applied: one premise group
    assert sum(1 for p in node.premises if p.rule == "SchedulePre") == 1


# --- differential soundness against the oracle ---------------------------------------------

def test_verifier_acceptance_implies_program_correct():
    from catverify.contracts import program_correct
    from catverify.gen import gen_contracts
    from catverify.interp import check_file_correct
    rng = random.Random(97)
    accepted_count = 0
    checked = 0
    while checked < 60:
        program = gen_program(rng, max_procs=3, max_stmts=4)
        contracts = gen_contracts(rng, program, moderate=rng.random() < 0.5)
        try:
            trees = verify_program(program, contracts)
        except Exception:
            continue
        checked += 1
        if not all(t.accepted for t in trees.values()):
            continue
        accepted_count += 1
        ok, _ = program_correct(program, contracts, step_bound=4000)
        assert ok, program
        for t in enumerate_traces(program, step_bound=4000):
            assert check_file_correct(t).correct
    assert accepted_count >= 10
