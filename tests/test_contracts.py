import random

import pytest

from catverify import parse_contract, parse_contracts, parse_program
from catverify.contracts import (AdherenceReport, ContractDecl, ContractError,
                                 adherence_formula, adheres_procedure,
                                 adheres_trace, blame_clause, classify, id_of,
                                 program_correct, weak_variant)
from catverify.formula import (Chop, EventF, NoEv, Obs, Pred,
                               TLit, TVar, TRUE, member)
from catverify.interp import enumerate_traces
from catverify.syntax import AsyncSyntaxError
from catverify.trace import Event

ANY = NoEv(frozenset())


# --- parsing and validation ---------------------------------------------------

def test_parse_closeF_contract(files_contracts):
    c = files_contracts["closeF"]
    assert c.pre_binders == (("file", "f"),)
    assert c.pre_pred == TRUE
    # the observation is anchored inside the assume trace
    assert c.pre_body == Chop(ANY, Obs("file", "f",
                                       Chop(EventF("open", payload=TVar("f")),
                                            NoEv(frozenset([EventF(
                                                "close", payload=TVar("f"))])))))
    assert c.internal_body == Chop(
        EventF("close", payload=TVar("f")),
        NoEv(frozenset([EventF("open", payload=TVar("f"))])))
    assert c.post_body == ANY


def test_parse_trivial_contract(files_contracts):
    c = files_contracts["init"]
    assert c.pre_body == ANY and c.internal_body == ANY and c.post_body == ANY
    assert c.pre_pred == TRUE and c.post_pred == TRUE
    assert c.pre_binders == () and c.post_binders == ()


def test_scoping_violation_rejected():
    text = """
    contract bad {
      assume: ~;
      pre: [true];
      internal: close(f) ~;
      post: [true];
      continue: ~;
    }
    """
    with pytest.raises(ContractError, match="internal"):
        parse_contract(text)


def test_free_pre_trace_rejected():
    text = """
    contract bad {
      assume: ~ open(g);
      pre: [true];
      internal: ~;
      post: [true];
      continue: ~;
    }
    """
    with pytest.raises(ContractError, match="pre-trace"):
        parse_contract(text)


def test_duplicate_binder_names_rejected():
    text = """
    contract bad {
      assume: ~ obs file as f . ~;
      pre: [true] obs(file as f);
      internal: ~;
      post: [true] obs(file as f);
      continue: ~;
    }
    """
    with pytest.raises(ContractError, match="distinct"):
        parse_contract(text)


# --- classification --------------------------------------------------------------

def test_classify_cases(files_contracts):
    init = classify(files_contracts["init"])
    assert not init.context_aware and init.state_contract
    operate = classify(files_contracts["operate"])
    assert operate.context_aware and operate.proper_trace
    do = classify(files_contracts["do"])
    assert do.context_aware and not do.state_contract


def test_classify_hoare_style():
    hoare = ContractDecl("h", ANY, (), TRUE, ANY, (), TRUE, ANY)
    cls = classify(hoare)
    assert not cls.context_aware and cls.state_contract


def test_classify_modulo_true_padding():
    padded = ContractDecl("p", Chop(ANY, Pred(TRUE)), (), TRUE,
                          Chop(Pred(TRUE), ANY), (), TRUE, ANY)
    cls = classify(padded)
    assert not cls.context_aware and cls.state_contract


# --- adherence formula -----------------------------------------------------------

def test_adherence_formula_trivial_contract(files_contracts):
    phi = adherence_formula(files_contracts["init"], "init", 0)
    # no binders: no observation node anywhere
    def has_obs(f):
        if isinstance(f, Obs):
            return True
        return any(has_obs(getattr(f, a)) for a in ("lhs", "rhs", "body")
                   if hasattr(f, a))
    assert not has_obs(phi)
    text = repr(phi)
    assert "start(init,0)" in text and "pop(init,0)" in text


def test_adherence_formula_closeF_checked_by_member(files_program,
                                                    files_contracts):
    [t] = enumerate_traces(files_program)
    phi = adherence_formula(files_contracts["closeF"], "closeF", 2)
    # exactly one observation binder, and membership holds on the real trace
    def count_obs(f):
        n = 1 if isinstance(f, Obs) else 0
        return n + sum(count_obs(getattr(f, a)) for a in ("lhs", "rhs", "body")
                       if hasattr(f, a))
    assert count_obs(phi) == 1
    assert member(t, phi)


# --- trace adherence ---------------------------------------------------------------

def test_adheres_trace_case_study(files_program, files_contracts):
    [t] = enumerate_traces(files_program)
    assert adheres_trace(t, 2, files_contracts["closeF"], "closeF")
    assert adheres_trace(t, 3, files_contracts["operate"], "operate")
    assert adheres_trace(t, 1, files_contracts["do"], "do")
    assert adheres_trace(t, 0, files_contracts["init"], "init")


def test_adheres_trace_mutated_program(files_contracts):
    src = open("tests/corpus/files.async").read().replace("!closeF(); ", "")
    program = parse_program(src)
    [t] = enumerate_traces(program)
    c = files_contracts["operate"]
    for i in id_of("operate", t):
        assert not adheres_trace(t, i, c, "operate")
        assert blame_clause(t, i, c, "operate") == "post-trace"


# --- procedure adherence --------------------------------------------------------------

def test_adheres_procedure_case_study(files_program, files_contracts):
    for name, c in files_contracts.items():
        report = adheres_procedure(files_program, name, c)
        assert report.adherent, name


def test_adheres_procedure_altered_do_contract(files_program):
    # claiming do's scope never closes the file it opens is violated by the
    # close that closeF contributes inside the scope; the open event pins
    # the observed binder so the quantifier cannot dodge the exclusion
    text = """
    contract do {
      assume: ~ obs file as f . ~[open(f)];
      pre: [true] obs(file as f);
      internal: open(f) ~[close(f)];
      post: [true];
      continue: ~;
    }
    """
    c = parse_contract(text)
    report = adheres_procedure(files_program, "do", c)
    assert not report.adherent
    assert all(e.failing_clause == "internal" for e in report.entries)


def test_never_called_procedure_vacuously_adherent():
    program = parse_program("ghost(){ close(\"x\"); return } { skip }")
    c = parse_contract("""
    contract ghost {
      assume: ~; pre: [true]; internal: ~[*]; post: [true]; continue: ~;
    }""")
    report = adheres_procedure(program, "ghost", c)
    assert report.adherent and report.entries == []


# --- weak variant -----------------------------------------------------------------------

def test_weak_variant_shape(files_contracts):
    c = files_contracts["operate"]
    weak = weak_variant(c)
    assert weak.post_body == ANY
    assert weak.internal_body == c.internal_body
    assert weak.post_pred == c.post_pred
    assert weak_variant(weak) == weak


def test_weak_adherence_survives_caller_mutation(files_program,
                                                 files_contracts):
    # operate keeps its weak contract even when the caller no longer closes
    src = open("tests/corpus/files.async").read().replace("!closeF(); ", "")
    program = parse_program(src)
    weak = weak_variant(files_contracts["operate"])
    assert adheres_procedure(program, "operate", weak).adherent
    # and in the original program, do adheres with its callers stripped of
    # follow-up obligations
    weak_do = weak_variant(files_contracts["do"])
    assert adheres_procedure(files_program, "do", weak_do).adherent


def test_strong_implies_weak(files_program, files_contracts):
    for name, c in files_contracts.items():
        strong = adheres_procedure(files_program, name, c)
        weak = adheres_procedure(files_program, name, weak_variant(c))
        if strong.adherent:
            assert weak.adherent


def test_post_trace_weakening_monotone(files_program, files_contracts):
    # replacing the post-trace by the unconstrained segment never flips a
    # verdict from adherent to violating
    [t] = enumerate_traces(files_program)
    for name, c in files_contracts.items():
        for i in id_of(name, t) or ([0] if name == "init" else []):
            if adheres_trace(t, i, c, name):
                assert adheres_trace(t, i, weak_variant(c), name)


def test_adherence_invariant_under_binder_renaming(files_program,
                                                   files_contracts):
    text = open("tests/corpus/files.cat").read() \
        .replace("as f ", "as freshname ").replace("as f)", "as freshname)") \
        .replace("(f)", "(freshname)")
    renamed = {c.name: c for c in parse_contracts(text)}
    assert renamed["closeF"].pre_binders == (("file", "freshname"),)
    ok1, _ = program_correct(files_program, files_contracts)
    ok2, _ = program_correct(files_program, renamed)
    assert ok1 is True and ok2 is True


# --- program correctness ----------------------------------------------------------------

def test_program_correct_case_study(files_program, files_contracts):
    ok, reports = program_correct(files_program, files_contracts)
    assert ok
    assert set(reports) == {"do", "operate", "closeF", "init"}


def test_program_correct_strengthened_do(files_program, files_contracts):
    text = """
    contract do {
      assume: ~ obs file as f . ~[open(f)];
      pre: [true] obs(file as f);
      internal: ~ write(f) ~ close(f) ~;
      post: [true];
      continue: ~;
    }
    """
    contracts = dict(files_contracts)
    contracts["do"] = parse_contract(text)
    ok, _ = program_correct(files_program, contracts)
    assert ok


def test_program_correct_missing_contract(files_program, files_contracts):
    incomplete = dict(files_contracts)
    del incomplete["closeF"]
    with pytest.raises(ContractError, match="closeF"):
        program_correct(files_program, incomplete)


def test_post_binders_snapshot_value_at_pop():
    text = """
    contract m {
      assume: ~;
      pre: [true];
      internal: ~;
      post: [y2 == 1] obs(x as y2);
      continue: ~;
    }
    """
    c = parse_contract(text)
    assert c.post_binders == (("x", "y2"),)
    good = parse_program("m(){ x = 1; return } { x; m() }")
    bad = parse_program("m(){ x = 2; return } { x; m() }")
    assert adheres_procedure(good, "m", c).adherent
    report = adheres_procedure(bad, "m", c)
    assert not report.adherent
    assert all(e.failing_clause == "boundary-pred" for e in report.entries)
