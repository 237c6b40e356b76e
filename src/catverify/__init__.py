"""Trace semantics, context-aware trace contracts, and a modular verifier
for a small language with synchronous and asynchronous procedure calls."""

from .syntax import (AsyncSyntaxError, Program, ProcDecl, lookup,
                     pretty_program)
from .trace import (CallTree, ChopMismatch, Event, MalformedTrace, NoScope,
                    State, Trace, call_tree, chop, curr_scope, event_triple,
                    max_call_id, schedule, singleton, trace_from_json,
                    trace_to_json)
from .interp import (BoundExceeded, Configuration, TooManyTraces,
                     check_file_correct, enumerate_traces, eval_global,
                     eval_local, eval_local_big, initial_configuration,
                     step_global)
from .formula import (Formula, Included, included, member, noev_equiv_mu,
                      normalize, skolemize)
from .contracts import (AdherenceReport, ContractDecl, ContractError,
                        adherence_formula, adheres_procedure, adheres_trace,
                        classify, program_correct, weak_variant)
from .parser import parse_contract, parse_contracts, parse_formula, parse_program
from .verifier import (ProofNode, Update, discharge_local, eval_update,
                       max_contracts, schedule_update, subtype,
                       verify_procedure, verify_program)

__all__ = [name for name in dir() if not name.startswith("_")]
