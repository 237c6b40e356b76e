import json

import pytest

from catverify.cli import main

CORPUS = "tests/corpus"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr() if capsys else None
    return code, out


def test_parse_command(capsys):
    code, out = run_cli("parse", f"{CORPUS}/files.async",
                        "--contracts", f"{CORPUS}/files.cat", capsys=capsys)
    assert code == 0
    assert "do()" in out.out and "contract closeF: ok" in out.out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.async"
    bad.write_text("m(){ skip }")
    code, out = run_cli("parse", str(bad), capsys=capsys)
    assert code == 3
    assert "error" in out.err


@pytest.mark.parametrize("body", [
    "if (true) { " * 2000 + "skip" + " }" * 2000,
    "x; x = " + "(" * 3000 + "1" + ")" * 3000,
], ids=["nested-ifs", "nested-parens"])
def test_deep_nesting_is_a_clean_error(tmp_path, capsys, body):
    deep = tmp_path / "deep.async"
    deep.write_text("{ " + body + " }")
    code, out = run_cli("parse", str(deep), capsys=capsys)
    assert code == 3
    assert out.err.startswith("error:") and len(out.err.splitlines()) == 1


def test_run_command_counts(capsys):
    code, out = run_cli("run", f"{CORPUS}/files.async", "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["trace_count"] == 1
    assert all(e["file_correct"] for e in report["traces"])

    code, out = run_cli("run", f"{CORPUS}/fanout.async", "--json", capsys=capsys)
    assert code == 0
    assert json.loads(out.out)["trace_count"] == 4


def test_run_detects_file_violation(tmp_path, capsys):
    src = tmp_path / "bad.async"
    src.write_text('{ write("f") }')
    code, out = run_cli("run", str(src), "--json", capsys=capsys)
    assert code == 1
    report = json.loads(out.out)
    assert report["traces"][0]["violation_position"] is not None


def test_run_full_dump_roundtrips(capsys):
    code, out = run_cli("run", f"{CORPUS}/files.async", "--json", "--full",
                        capsys=capsys)
    assert code == 0
    from catverify.trace import trace_from_json
    report = json.loads(out.out)
    t = trace_from_json(report["traces"][0]["trace"])
    assert len(t) == report["traces"][0]["items"]


def test_calltree_matches_snapshot(fanout_program, capsys):
    # locate the trace that schedules m1 first and cut at its return
    from catverify.interp import enumerate_traces
    from catverify.trace import Event
    for idx, t in enumerate(enumerate_traces(fanout_program)):
        pushes = [it for it in t if isinstance(it, Event) and it.tag == "push"]
        if pushes[2].scope() == ("m1", 2):
            cut = next(i for i, it in enumerate(t)
                       if isinstance(it, Event) and it.tag == "ret"
                       and it.id == 2) + 2
            break
    code, out = run_cli("calltree", f"{CORPUS}/fanout.async",
                        "--prefix", str(cut), "--trace-index", str(idx),
                        "--json", capsys=capsys)
    assert code == 0
    data = json.loads(out.out)
    assert data["schedule"] == [["m3", 4], ["m4", 5]]
    assert len(data["vertices"]) == 6


def test_calltree_bad_prefix(capsys):
    code, out = run_cli("calltree", f"{CORPUS}/fanout.async", "--prefix", "0",
                        capsys=capsys)
    assert code == 3


def test_check_member(tmp_path, capsys):
    from catverify.interp import enumerate_traces
    from catverify import parse_program
    from catverify.trace import trace_to_json
    program = parse_program(open(f"{CORPUS}/files.async").read())
    [t] = enumerate_traces(program)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace_to_json(t)))
    code, out = run_cli("check-member", "--trace", str(path),
                        "--formula", '~ open("file1.txt") ~', capsys=capsys)
    assert code == 0 and "member" in out.out
    code, out = run_cli("check-member", "--trace", str(path),
                        "--formula", '~[open("file1.txt")]', capsys=capsys)
    assert code == 1


def test_adhere_command(capsys):
    code, out = run_cli("adhere", "--program", f"{CORPUS}/files.async",
                        "--contracts", f"{CORPUS}/files.cat", "--json",
                        capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["correct"]
    assert set(report["procedures"]) == {"do", "operate", "closeF", "init"}


def test_adhere_single_procedure(capsys):
    code, out = run_cli("adhere", "--program", f"{CORPUS}/files.async",
                        "--contracts", f"{CORPUS}/files.cat",
                        "--procedure", "closeF", capsys=capsys)
    assert code == 0
    assert "closeF: adheres" in out.out


def test_adhere_detects_violation(tmp_path, capsys):
    src = open(f"{CORPUS}/files.async").read().replace("!closeF(); ", "")
    mutated = tmp_path / "mutated.async"
    mutated.write_text(src)
    code, out = run_cli("adhere", "--program", str(mutated),
                        "--contracts", f"{CORPUS}/files.cat", capsys=capsys)
    assert code == 1
    assert "post-trace" in out.out


def test_verify_command_accepts_case_study(capsys):
    code, out = run_cli("verify", "--program", f"{CORPUS}/files.async",
                        "--contracts", f"{CORPUS}/files.cat", "--cross-check",
                        capsys=capsys)
    assert code == 0
    assert "accepted" in out.out and "cross-check" in out.out


def test_verify_exit_2_on_open_proof(tmp_path, capsys):
    weakened = open(f"{CORPUS}/files.cat").read().replace(
        "internal: close(f) ~[open(f)];", "internal: ~;")
    path = tmp_path / "weak.cat"
    path.write_text(weakened)
    code, out = run_cli("verify", "--program", f"{CORPUS}/files.async",
                        "--contracts", str(path), capsys=capsys)
    assert code == 2
    assert "OPEN" in out.out


def test_verify_json_report(capsys):
    code, out = run_cli("verify", "--program", f"{CORPUS}/files.async",
                        "--contracts", f"{CORPUS}/files.cat", "--json",
                        capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["accepted"]
    assert report["procedures"]["closeF"]["proof"]["rule"] == "Contract"


def test_subtype_command(tmp_path, capsys):
    text = """
    contract a { assume: ~; pre: [true]; internal: ~; post: [true]; continue: ~; }
    contract b { assume: ~; pre: [true]; internal: ~[open("s")]; post: [true]; continue: ~; }
    """
    path = tmp_path / "pair.cat"
    path.write_text(text)
    code, out = run_cli("subtype", str(path), "a", "b", capsys=capsys)
    assert code == 0 and "proved" in out.out
    code, out = run_cli("subtype", str(path), "b", "a", capsys=capsys)
    assert code == 1 and "disproved" in out.out


def test_max_contracts_command(tmp_path, capsys):
    text = """
    contract a { assume: ~; pre: [true]; internal: ~; post: [true]; continue: ~; }
    contract a { assume: ~; pre: [true]; internal: ~[open("s")]; post: [true]; continue: ~; }
    """
    path = tmp_path / "multi.cat"
    path.write_text(text)
    code, out = run_cli("max-contracts", str(path), "--json", capsys=capsys)
    assert code == 0
    assert json.loads(out.out) == {"a": [0]}


def test_env_var_default(monkeypatch, capsys):
    monkeypatch.setenv("CATVERIFY_MAX_STEPS", "3")
    code, out = run_cli("run", f"{CORPUS}/files.async", capsys=capsys)
    assert code == 3  # bound exhausted surfaces as an error
    assert "step bound" in out.err


def _verify_args(*extra):
    return ("verify", "--program", f"{CORPUS}/files.async",
            "--contracts", f"{CORPUS}/files.cat") + extra


@pytest.mark.parametrize("argv, trace", [
    (("check-member", "--formula", "mu X . obs x as y . X"), [{"kind": "state"}]),
    (("check-member", "--formula", "mu X . [true] \\/ X . [true]"),
     [{"kind": "state"}]),
    (("check-member", "--formula", "~"), [{"kind": "event", "tag": "bogus"}]),
    (("check-member", "--formula", "~"), {"a": 1}),
    (_verify_args("--split", "1"), None),
    (_verify_args("--bogus"), None),
], ids=["recursion-across-obs", "recursion-not-right-linear", "bogus-event-tag",
        "trace-not-a-list", "split-without-colon", "unknown-option"])
def test_malformed_input_is_a_clean_error(tmp_path, capsys, argv, trace):
    if trace is not None:
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        argv += ("--trace", str(path))
    code, out = run_cli(*argv, capsys=capsys)
    assert code == 3
    assert out.err.startswith("error:") and len(out.err.splitlines()) == 1


def test_trace_limit_applies_to_adhere_and_cross_check(tmp_path, capsys):
    # fanout.async has four traces
    cat = tmp_path / "fanout.cat"
    cat.write_text("".join(
        f"contract {n} {{ assume: ~; pre: [true]; internal: ~; "
        f"post: [true]; continue: ~; }}\n"
        for n in ("m", "m1", "m2", "m3", "m4", "init")))
    program = ("--program", f"{CORPUS}/fanout.async", "--contracts", str(cat))
    code, out = run_cli("verify", *program, capsys=capsys)
    assert code == 0
    for argv in (("adhere",) + program, ("verify",) + program + ("--cross-check",)):
        code, out = run_cli(*argv, "--max-traces", "1", capsys=capsys)
        assert code == 3, argv
        assert out.err.startswith("error:")
