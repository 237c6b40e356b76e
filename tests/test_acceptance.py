"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds; pytest -v
additionally reports one line per criterion. Tolerances and counts are
pinned here and nowhere else.
"""

import random

from catverify import parse_contracts, parse_program
from catverify.contracts import (ContractDecl, adheres_procedure, id_of,
                                 adheres_trace, program_correct)
from catverify.formula import NoEv, TVar, TLit, TRUE, LBinOp, EventF
from catverify.gen import gen_contracts, gen_program, gen_update, trivial_contract
from catverify.interp import check_file_correct, enumerate_traces
from catverify.trace import call_tree, schedule
from catverify.verifier import (max_contracts, subtype, verify_procedure,
                                verify_program)

ANY = NoEv(frozenset())


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_fig3_call_tree_reproduction(fanout_program):
    from tests.test_trace import fig3_prefix
    prefix = fig3_prefix(fanout_program)
    tree = call_tree(prefix)
    assert tree.vertices == frozenset({("init", 0), ("m", 1), ("m1", 2),
                                       ("m2", 3), ("m3", 4), ("m4", 5)})
    assert tree.edges == frozenset({
        (("init", 0), ("m", 1)), (("m", 1), ("m1", 2)), (("m", 1), ("m2", 3)),
        (("m1", 2), ("m3", 4)), (("m1", 2), ("m4", 5))})
    assert schedule(prefix) == frozenset({("m3", 4), ("m4", 5)})
    _report(1, "call-tree snapshot after the first fan-out return is exact")


def test_criterion_2_enumeration_counts_and_bullets(files_program,
                                                    fanout_program):
    assert len(enumerate_traces(files_program)) == 1
    traces = enumerate_traces(fanout_program)
    assert len(traces) == 4
    from tests.test_interp import test_fanout_scheduling_bullets
    test_fanout_scheduling_bullets(fanout_program)
    _report(2, "1 and 4 maximal traces; all scheduling constraints hold")


def test_criterion_3_case_study_verified(files_program, files_contracts):
    trees = verify_program(files_program, files_contracts)
    for name, tree in trees.items():
        assert tree.accepted, name
        assert tree.open_leaves() == []
    spine = trees["closeF"].main_spine()
    assert spine == ["Contract", "Close", "Return", "Finish", "PostObligation"]
    _report(3, "all four case-study contracts verified; closeF derivation "
               "is Contract-Close-Return-Finish-leaf")


def test_criterion_4_oracle_agreement(files_program, files_contracts):
    # the case study first
    trees = verify_program(files_program, files_contracts)
    assert all(t.accepted for t in trees.values())
    ok, _ = program_correct(files_program, files_contracts)
    assert ok
    assert all(check_file_correct(t) for t in enumerate_traces(files_program))

    # 200 random programs with generated contracts: acceptance must imply
    # oracle-level correctness and file correctness, with no exceptions
    rng = random.Random(2024)
    checked = accepted = 0
    while checked < 200:
        program = gen_program(rng, max_procs=4, max_stmts=6)
        contracts = gen_contracts(rng, program, moderate=rng.random() < 0.5)
        try:
            trees = verify_program(program, contracts)
        except Exception:
            continue
        checked += 1
        if not all(t.accepted for t in trees.values()):
            continue
        accepted += 1
        ok, _ = program_correct(program, contracts, step_bound=6000)
        assert ok, program
        for t in enumerate_traces(program, step_bound=6000):
            assert check_file_correct(t).correct, program
    assert accepted >= 20
    _report(4, f"zero counterexamples on the case study and 200 random "
               f"programs ({accepted} accepted)")


def test_criterion_5_semantics_propositions():
    from tests.test_interp import (
        test_composition_of_local_and_global_semantics,
        test_special_case_global_equals_local_then_empty)
    from tests.test_verifier import test_update_composition_property
    test_composition_of_local_and_global_semantics()
    test_special_case_global_equals_local_then_empty()
    test_update_composition_property()
    _report(5, "local/global composition and update composition hold as "
               "set equalities on 200 random instances each")


def test_criterion_6_scheduling_lemma():
    from tests.test_verifier import test_scheduling_lemma_on_random_updates
    test_scheduling_lemma_on_random_updates()
    _report(6, "schedule over updates equals schedule over evaluated traces "
               "on 300 random updates")


def test_criterion_7_logic_engine():
    from tests.test_formula import (
        test_noev_equiv_mu_random,
        test_concat_chop_agree_with_split_oracle_exhaustive,
        test_lattice_laws_random)
    test_noev_equiv_mu_random()
    test_concat_chop_agree_with_split_oracle_exhaustive()
    test_lattice_laws_random()
    _report(7, "noEv/mu equivalence (1000 traces), split-oracle agreement "
               "(all traces <= 8 items, 3 symbols), lattice laws (500 pairs)")


def test_criterion_8_liskov(files_contracts):
    for c in files_contracts.values():
        assert subtype(c, c).status == "proved"
    y = TVar("y")
    strong = ContractDecl("c", ANY, (("x", "y"),), LBinOp(">", y, TLit(1)),
                          ANY, (), TRUE, ANY)
    weak = ContractDecl("c", ANY, (("x", "y"),), LBinOp(">", y, TLit(0)),
                        ANY, (), TRUE, ANY)
    assert subtype(strong, weak).status == "proved"
    restrictive = ContractDecl(
        "c", ANY, (("file", "f"),), TRUE,
        NoEv(frozenset([EventF("close", payload=TVar("f"))])),
        (), TRUE, ANY)
    permissive = ContractDecl("c", ANY, (("file", "f"),), TRUE, ANY,
                              (), TRUE, ANY)
    verdict = subtype(restrictive, permissive)
    assert verdict.status == "disproved" and verdict.failed_condition == "L2"
    # three-element chain: the unique top survives
    top = trivial_contract("c")
    mid = ContractDecl("c", ANY, (), TRUE,
                       NoEv(frozenset([EventF("open", payload=TLit("s"))])),
                       (), TRUE, ANY)
    bot = ContractDecl("c", ANY, (), TRUE,
                       NoEv(frozenset([EventF("open", payload=TLit("s")),
                                       EventF("close", payload=TLit("s"))])),
                       (), TRUE, ANY)
    assert max_contracts([bot, mid, top]) == [top]
    _report(8, "reflexivity, the state-contract reduction, the L2 "
               "disproof, and the three-element chain are exact")


def test_criterion_9_mutation_sensitivity(files_program, files_contracts):
    # oracle side: deleting the asynchronous close breaks operate's post-trace
    src = open("tests/corpus/files.async").read().replace("!closeF(); ", "")
    mutated = parse_program(src)
    report = adheres_procedure(mutated, "operate", files_contracts["operate"])
    assert not report.adherent
    assert all(e.failing_clause == "post-trace" for e in report.entries)

    # verifier side: weakening closeF's internal behavior opens do's proof
    # at the final post-trace obligation
    weak = dict(files_contracts)
    c = files_contracts["closeF"]
    weak["closeF"] = ContractDecl(c.name, c.pre_body, c.pre_binders,
                                  c.pre_pred, ANY, c.post_binders,
                                  c.post_pred, c.post_body)
    tree = verify_procedure(files_program, weak, "do")
    assert not tree.accepted
    leaves = tree.open_leaves()
    assert leaves and all(l.rule == "PostObligation" for l in leaves)
    _report(9, "oracle blames the post-trace after the mutation; the "
               "verifier opens at the final post-trace obligation")
