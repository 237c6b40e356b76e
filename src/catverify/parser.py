"""Parsers for ``.async`` programs, the ``.cat`` contract DSL, and trace formulas.

One hand-rolled tokenizer serves all three surface languages; the grammars are
small enough that recursive descent with one token of lookahead suffices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import syntax
from .syntax import (AsyncSyntaxError, Assign, AsyncCall, BinOp, FileOp, If,
                     Lit, Not, Program, ProcDecl, Return, Skip, SyncCall,
                     Var, seq, validate_program)
from . import formula as fm
from .contracts import ContractDecl, validate_contract


@dataclass
class Token:
    kind: str  # ident | int | string | punct | eof
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<int>-?\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>\*\*|&&|\|\||==|!=|<=|>=|/\\|\\/|[-+*<>=!;:{}()\[\],.~_])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise AsyncSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "string"

    def at_kind(self, kind: str) -> bool:
        return self.peek().kind == kind

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "string":
            raise AsyncSyntaxError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                                   t.line, t.col)
        return self.next()

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise AsyncSyntaxError(f"expected identifier, found {t.text!r}", t.line, t.col)
        return self.next()

    def error(self, message) -> AsyncSyntaxError:
        t = self.peek()
        return AsyncSyntaxError(message, t.line, t.col)


# --- programs ----------------------------------------------------------

_KEYWORDS = {"skip", "if", "return", "open", "close", "read", "write", "true", "false"}


def parse_program(text: str) -> Program:
    """Parse a full ``.async`` source string into a validated Program."""
    ts = TokenStream(tokenize(text))
    procedures = []
    while ts.at_kind("ident"):
        name = ts.expect_ident().text
        ts.expect("(")
        ts.expect(")")
        ts.expect("{")
        body = _parse_stmt_seq(ts)
        ts.expect("}")
        procedures.append(ProcDecl(name, body))
    ts.expect("{")
    decls = []
    # leading bare identifiers followed by ';' declare global variables
    while (ts.at_kind("ident") and ts.peek().text not in _KEYWORDS
           and ts.tokens[ts.pos + 1].text == ";"
           and ts.tokens[ts.pos + 1].kind == "punct"):
        decls.append(ts.expect_ident().text)
        ts.expect(";")
    body = _parse_stmt_seq(ts)
    ts.expect("}")
    if not ts.at_kind("eof"):
        raise ts.error("trailing input after init block")
    init_body = seq(*(syntax.seq_items(body) + [Return()]))
    program = Program(tuple(procedures), tuple(decls), init_body)
    validate_program(program)
    return program


def _parse_stmt_seq(ts: TokenStream):
    stmts = [_parse_stmt(ts)]
    while ts.at(";"):
        ts.next()
        if ts.at("}"):  # trailing semicolon
            break
        stmts.append(_parse_stmt(ts))
    return seq(*stmts)


def _parse_stmt(ts: TokenStream):
    t = ts.peek()
    if t.text == "skip":
        ts.next()
        return Skip()
    if t.text == "return":
        ts.next()
        return Return()
    if t.text == "if":
        ts.next()
        ts.expect("(")
        cond = _parse_expr(ts)
        ts.expect(")")
        ts.expect("{")
        body = _parse_stmt_seq(ts)
        ts.expect("}")
        return If(cond, body)
    if t.text in ("open", "close", "read", "write"):
        ts.next()
        ts.expect("(")
        operand = _parse_expr(ts)
        ts.expect(")")
        if not isinstance(operand, (Lit, Var)):
            raise AsyncSyntaxError("file identifier must be a literal or variable",
                                   t.line, t.col)
        return FileOp(t.text, operand)
    if t.text == "!":
        ts.next()
        name = ts.expect_ident().text
        ts.expect("(")
        ts.expect(")")
        return AsyncCall(name)
    if t.kind == "ident":
        name = ts.next().text
        if ts.at("("):
            ts.next()
            ts.expect(")")
            return SyncCall(name)
        ts.expect("=")
        return Assign(name, _parse_expr(ts))
    raise ts.error(f"expected statement, found {t.text!r}")


# expression precedence: || < && < comparisons < additive < multiplicative
def _parse_expr(ts):
    return _parse_or(ts)


def _parse_or(ts):
    e = _parse_and(ts)
    while ts.at("||"):
        ts.next()
        e = BinOp("||", e, _parse_and(ts))
    return e


def _parse_and(ts):
    e = _parse_cmp(ts)
    while ts.at("&&"):
        ts.next()
        e = BinOp("&&", e, _parse_cmp(ts))
    return e


def _parse_cmp(ts):
    e = _parse_add(ts)
    while ts.peek().text in ("==", "!=", "<", "<=", ">", ">=") and ts.peek().kind == "punct":
        op = ts.next().text
        e = BinOp(op, e, _parse_add(ts))
    return e


def _parse_add(ts):
    e = _parse_mul(ts)
    while ts.peek().text in ("+", "-") and ts.peek().kind == "punct":
        op = ts.next().text
        e = BinOp(op, e, _parse_mul(ts))
    return e


def _parse_mul(ts):
    e = _parse_unary(ts)
    while ts.at("*"):
        ts.next()
        e = BinOp("*", e, _parse_unary(ts))
    return e


def _parse_unary(ts):
    if ts.at("!"):
        ts.next()
        return Not(_parse_unary(ts))
    t = ts.peek()
    if t.kind == "int":
        ts.next()
        return Lit(int(t.text))
    if t.kind == "string":
        ts.next()
        return Lit(_unquote(t.text))
    if t.text == "true":
        ts.next()
        return Lit(True)
    if t.text == "false":
        ts.next()
        return Lit(False)
    if t.kind == "ident":
        return Var(ts.next().text)
    if t.text == "(":
        ts.next()
        e = _parse_expr(ts)
        ts.expect(")")
        return e
    raise ts.error(f"expected expression, found {t.text!r}")


def _unquote(text):
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


# --- trace formulas ----------------------------------------------------
#
# Grammar (loosest to tightest):   or := and ('\/' and)*
#                                  and := chain ('/\' chain)*
#                                  chain := term (('**' | '.' | nothing) term)*
#                                  term := '[' boolexpr ']' | event | '~'
#                                        | '~[' ev ',' ... ']' | '~[*]'
#                                        | 'mu' X '.' or | 'obs' x 'as' y '.' or
#                                        | recursion var | '(' or ')'
#
# Adjacency of two terms with no operator means semantic chop; 'mu' and 'obs'
# extend as far right as the current chain/or level allows.

_FORMULA_STOP = {";", ")", "]", "}", ",", "", "/\\", "\\/"}
_EVENT_NAMES = {"start", "ret", "pop", "open", "close", "read", "write"}


def parse_formula(text: str) -> fm.Formula:
    ts = TokenStream(tokenize(text))
    phi = _parse_or_formula(ts)
    if not ts.at_kind("eof"):
        raise ts.error("trailing input after formula")
    fm.validate_no_recvar_under_obs(phi)
    return phi


def _parse_or_formula(ts):
    phi = _parse_and_formula(ts)
    while ts.at("\\/"):
        ts.next()
        phi = fm.Or(phi, _parse_and_formula(ts))
    return phi


def _parse_and_formula(ts):
    phi = _parse_chain(ts)
    while ts.at("/\\"):
        ts.next()
        phi = fm.And(phi, _parse_chain(ts))
    return phi


def _parse_chain(ts):
    phi = _parse_term(ts)
    while True:
        if ts.at("**"):
            ts.next()
            phi = fm.Chop(phi, _parse_term(ts))
        elif ts.at("."):
            ts.next()
            phi = fm.Concat(phi, _parse_term(ts))
        elif ts.peek().text not in _FORMULA_STOP or ts.peek().kind == "string":
            # juxtaposition: implicit chop
            phi = fm.Chop(phi, _parse_term(ts))
        else:
            return phi


def _parse_term(ts):
    t = ts.peek()
    if t.text == "~":
        tilde = ts.next()
        # '~[...]' lists exclusions only when the bracket is adjacent;
        # '~ [p]' is the unconstrained segment chopped with a predicate
        adjacent = (ts.peek().line == tilde.line
                    and ts.peek().col == tilde.col + 1)
        if ts.at("[") and adjacent:
            ts.next()
            if ts.at("*"):
                ts.next()
                ts.expect("]")
                return fm.NoEv(fm.ALL_EVENTS)
            pats = [_parse_event(ts)]
            while ts.at(","):
                ts.next()
                pats.append(_parse_event(ts))
            ts.expect("]")
            return fm.NoEv(frozenset(pats))
        return fm.NoEv(frozenset())
    if t.text == "[":
        ts.next()
        pred = _parse_lexpr(ts)
        ts.expect("]")
        return fm.Pred(pred)
    if t.text == "mu":
        ts.next()
        var = ts.expect_ident().text
        ts.expect(".")
        return fm.Mu(var, _parse_or_formula(ts))
    if t.text == "obs":
        ts.next()
        pvar = ts.expect_ident().text
        kw = ts.expect_ident()
        if kw.text != "as":
            raise AsyncSyntaxError("expected 'as' in observation quantifier",
                                   kw.line, kw.col)
        lvar = ts.expect_ident().text
        ts.expect(".")
        return fm.Obs(pvar, lvar, _parse_or_formula(ts))
    if t.text in _EVENT_NAMES:
        return _parse_event(ts)
    if t.text == "(":
        ts.next()
        phi = _parse_or_formula(ts)
        ts.expect(")")
        return phi
    if t.kind == "ident":
        return fm.RecVar(ts.next().text)
    raise ts.error(f"expected trace formula, found {t.text!r}")


def _parse_event(ts):
    t = ts.next()
    tag = t.text
    ts.expect("(")
    name = None
    ident = None
    payload = None
    if tag == "start" or tag == "pop":
        name = _parse_name_or_wild(ts)
        ts.expect(",")
        ident = _parse_id_term(ts)
    elif tag == "ret":
        ident = _parse_id_term(ts)
    else:  # file events
        payload = _parse_payload_term(ts)
    ts.expect(")")
    return fm.EventF(tag, name, ident, payload)


def _parse_name_or_wild(ts):
    if ts.at("_"):
        ts.next()
        return fm.WILDCARD
    return ts.expect_ident().text


def _parse_id_term(ts):
    t = ts.peek()
    if t.text == "_":
        ts.next()
        return fm.WILDCARD
    if t.kind == "int":
        ts.next()
        return fm.TLit(int(t.text))
    if t.kind == "ident":
        ts.next()
        return fm.TVar(t.text)
    raise ts.error("expected call identifier")


def _parse_payload_term(ts):
    t = ts.peek()
    if t.text == "_":
        ts.next()
        return fm.WILDCARD
    if t.kind == "string":
        ts.next()
        return fm.TLit(_unquote(t.text))
    if t.kind == "ident":
        ts.next()
        return fm.TVar(t.text)
    raise ts.error("expected file identifier term")


# logic-level boolean expressions inside [ ... ]
def _parse_lexpr(ts):
    return _parse_lor(ts)


def _parse_lor(ts):
    e = _parse_land(ts)
    while ts.at("||"):
        ts.next()
        e = fm.LBinOp("||", e, _parse_land(ts))
    return e


def _parse_land(ts):
    e = _parse_lcmp(ts)
    while ts.at("&&"):
        ts.next()
        e = fm.LBinOp("&&", e, _parse_lcmp(ts))
    return e


def _parse_lcmp(ts):
    e = _parse_ladd(ts)
    while ts.peek().text in ("==", "!=", "<", "<=", ">", ">=") and ts.peek().kind == "punct":
        op = ts.next().text
        e = fm.LBinOp(op, e, _parse_ladd(ts))
    return e


def _parse_ladd(ts):
    e = _parse_lmul(ts)
    while ts.peek().text in ("+", "-") and ts.peek().kind == "punct":
        op = ts.next().text
        e = fm.LBinOp(op, e, _parse_lmul(ts))
    return e


def _parse_lmul(ts):
    e = _parse_lunary(ts)
    while ts.at("*"):
        ts.next()
        e = fm.LBinOp("*", e, _parse_lunary(ts))
    return e


def _parse_lunary(ts):
    if ts.at("!"):
        ts.next()
        return fm.LNot(_parse_lunary(ts))
    t = ts.peek()
    if t.kind == "int":
        ts.next()
        return fm.TLit(int(t.text))
    if t.kind == "string":
        ts.next()
        return fm.TLit(_unquote(t.text))
    if t.text == "true":
        ts.next()
        return fm.TLit(True)
    if t.text == "false":
        ts.next()
        return fm.TLit(False)
    if t.kind == "ident":
        return fm.TVar(ts.next().text)
    if t.text == "(":
        ts.next()
        e = _parse_lexpr(ts)
        ts.expect(")")
        return e
    raise ts.error(f"expected predicate expression, found {t.text!r}")


# --- contracts ---------------------------------------------------------

_CLAUSES = ("assume", "pre", "internal", "post", "continue")


def parse_contracts(text: str) -> list[ContractDecl]:
    """Parse a ``.cat`` file: a sequence of contract blocks."""
    ts = TokenStream(tokenize(text))
    out = []
    while not ts.at_kind("eof"):
        out.append(_parse_contract_block(ts))
    return out


def parse_contract(text: str) -> ContractDecl:
    """Parse a single contract block."""
    contracts = parse_contracts(text)
    if len(contracts) != 1:
        raise AsyncSyntaxError(f"expected exactly one contract, found {len(contracts)}")
    return contracts[0]


def _parse_contract_block(ts) -> ContractDecl:
    kw = ts.expect_ident()
    if kw.text != "contract":
        raise AsyncSyntaxError(f"expected 'contract', found {kw.text!r}", kw.line, kw.col)
    name = ts.expect_ident().text
    ts.expect("{")
    clauses = {}
    while not ts.at("}"):
        label = ts.expect_ident()
        if label.text not in _CLAUSES:
            raise AsyncSyntaxError(f"unknown contract clause {label.text!r}",
                                   label.line, label.col)
        if label.text in clauses:
            raise AsyncSyntaxError(f"duplicate clause {label.text!r}",
                                   label.line, label.col)
        ts.expect(":")
        if label.text in ("pre", "post"):
            clauses[label.text] = _parse_pred_clause(ts)
        else:
            clauses[label.text] = _parse_or_formula(ts)
        ts.expect(";")
    ts.expect("}")
    missing = [c for c in _CLAUSES if c not in clauses]
    if missing:
        raise AsyncSyntaxError(f"contract {name!r} is missing clauses: {missing}")
    pre_pred, pre_binders = clauses["pre"]
    post_pred, post_binders = clauses["post"]
    decl = ContractDecl(
        name=name,
        pre_body=clauses["assume"],
        pre_binders=tuple(pre_binders),
        pre_pred=pre_pred,
        internal_body=clauses["internal"],
        post_binders=tuple(post_binders),
        post_pred=post_pred,
        post_body=clauses["continue"],
    )
    validate_contract(decl)
    return decl


def _parse_pred_clause(ts):
    ts.expect("[")
    pred = _parse_lexpr(ts)
    ts.expect("]")
    binders = []
    if ts.at("obs"):
        ts.next()
        ts.expect("(")
        binders.append(_parse_binder(ts))
        while ts.at(","):
            ts.next()
            binders.append(_parse_binder(ts))
        ts.expect(")")
    return pred, binders


def _parse_binder(ts):
    pvar = ts.expect_ident().text
    kw = ts.expect_ident()
    if kw.text != "as":
        raise AsyncSyntaxError("expected 'as' in obs binder", kw.line, kw.col)
    lvar = ts.expect_ident().text
    return (pvar, lvar)
