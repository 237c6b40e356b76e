"""Independent reference implementations used to cross-check the library.

The membership oracle decides trace membership by explicit split
enumeration and bounded fixpoint unfolding over an environment of observed
states — the interval semantics, and deliberately a different algorithm
from the partial-derivative automaton the library runs. The inclusion oracle
searches every short well-formed trace by brute force, where the library
decides inclusion exactly with partial derivatives.
"""

from catverify import formula as fm
from catverify.trace import FILE_TAGS, Event, State, Trace


def member_oracle(items, phi, obs_env=None, consts=None, rho=None) -> bool:
    obs_env = obs_env or {}
    consts = consts or {}
    rho = rho or {}
    items = list(items)
    n = len(items)
    if n == 0:
        return False

    if isinstance(phi, fm.Pred):
        return (n == 1 and isinstance(items[0], State)
                and fm.pred_holds(phi.expr, obs_env, consts))
    if isinstance(phi, fm.NoEvItem):
        if n != 1:
            return False
        it = items[0]
        if isinstance(it, State):
            return True
        return not fm._excludes(phi.excluded, it, obs_env, consts)
    if isinstance(phi, fm.NoEv):
        for it in items:
            if not isinstance(it, State) and fm._excludes(
                    phi.excluded, it, obs_env, consts):
                return False
        return True
    if isinstance(phi, fm.EventF):
        return _event_matches(items, phi, obs_env, consts)
    if isinstance(phi, fm.And):
        return (member_oracle(items, phi.lhs, obs_env, consts, rho)
                and member_oracle(items, phi.rhs, obs_env, consts, rho))
    if isinstance(phi, fm.Or):
        return (member_oracle(items, phi.lhs, obs_env, consts, rho)
                or member_oracle(items, phi.rhs, obs_env, consts, rho))
    if isinstance(phi, fm.Concat):
        return any(
            member_oracle(items[:k], phi.lhs, obs_env, consts, rho)
            and member_oracle(items[k:], phi.rhs, obs_env, consts, rho)
            for k in range(1, n))
    if isinstance(phi, fm.Chop):
        return any(
            isinstance(items[k], State)
            and member_oracle(items[:k + 1], phi.lhs, obs_env, consts, rho)
            and member_oracle(items[k:], phi.rhs, obs_env, consts, rho)
            for k in range(n))
    if isinstance(phi, fm.Mu):
        budget = n + 1
        rho2 = dict(rho)
        rho2[phi.var] = (phi, budget)
        return member_oracle(items, phi.body, obs_env, consts, rho2)
    if isinstance(phi, fm.RecVar):
        entry = rho.get(phi.name)
        if entry is None:
            raise fm.FormulaError(f"unbound recursion variable {phi.name!r}")
        node, budget = entry
        if budget <= 0:
            return False
        rho2 = dict(rho)
        rho2[phi.name] = (node, budget - 1)
        return member_oracle(items, node.body, obs_env, consts, rho2)
    if isinstance(phi, fm.Obs):
        if not isinstance(items[0], State):
            return False
        env2 = dict(obs_env)
        env2[phi.lvar] = (phi.pvar, items[0])
        return member_oracle(items, phi.body, env2, consts, rho)
    raise TypeError(f"not a formula: {phi!r}")


def _event_matches(items, phi, obs_env, consts):
    n = len(items)

    def value(term):
        if term is None or term is fm.WILDCARD:
            return fm.WILDCARD
        return fm.eval_term(term, obs_env, consts)

    def state3(a):
        return (isinstance(items[a], State) and isinstance(items[a + 2], State)
                and items[a] == items[a + 2])

    if phi.tag == "start":
        ident = value(phi.id)
        if n == 3 and state3(0):
            ev = items[1]
            return (not isinstance(ev, State) and ev.tag == "push"
                    and (phi.name is fm.WILDCARD or ev.name == phi.name)
                    and (ident is fm.WILDCARD or ev.id == ident))
        if n == 5 and state3(0) and state3(2):
            ev1, ev2 = items[1], items[3]
            return (not isinstance(ev1, State) and not isinstance(ev2, State)
                    and ev1.tag == "call" and ev2.tag == "push"
                    and ev1.scope() == ev2.scope()
                    and (phi.name is fm.WILDCARD or ev1.name == phi.name)
                    and (ident is fm.WILDCARD or ev1.id == ident))
        return False
    if n != 3 or not state3(0) or isinstance(items[1], State):
        return False
    ev = items[1]
    if ev.tag != phi.tag:
        return False
    if phi.tag in ("pop", "call", "invoc", "push"):
        if phi.name is not fm.WILDCARD and phi.name is not None \
                and ev.name != phi.name:
            return False
    if phi.tag in ("ret", "pop", "call", "invoc", "push"):
        ident = value(phi.id)
        return ident is fm.WILDCARD or ev.id == ident
    payload = value(phi.payload)
    return payload is fm.WILDCARD or ev.file == payload


def included_oracle(phi1, phi2, bound=6, max_valuations=16):
    """Bounded inclusion by brute force: a counterexample trace of at most
    ``bound`` items, or None when none is found.

    Depth-first search over well-formed traces built from the events the
    formulas mention and a small state set, under at most
    ``max_valuations`` constant valuations (strings for constants only in
    file positions, otherwise integers around the literals and one above
    them all). Every trace it returns is a real counterexample under the
    returned valuation; finding none proves nothing.
    """
    info = fm._collect_alphabet([phi1, phi2])
    strings = sorted(info["strings"]) + ["~other~"]
    ints = sorted(info["ints"] | {x + d for x in info["id_lits"]
                                  for d in (-1, 0, 1)}) or [0]
    ints.append(ints[-1] + 2)
    ids = sorted(info["id_lits"]) or [0]
    contexts = {}
    for name, ctx in info["consts"]:
        contexts.setdefault(name, set()).add(ctx)
    valuations = [{}]
    for name in sorted(contexts):
        pool = strings if contexts[name] <= {"file"} else ints
        valuations = [dict(v, **{name: x}) for v in valuations
                      for x in pool][:max_valuations]

    for valuation in valuations:
        events = set()
        for ef in info["events"]:
            term = ef.term
            ground = None if term is None or term is fm.WILDCARD \
                or isinstance(term, fm.TVar) else fm.eval_term(term, {}, valuation)
            for tag in ef.trace_tags():
                if tag in FILE_TAGS:
                    events.update(Event(tag, file=v)
                                  for v in ([ground] if ground is not None else strings)
                                  if isinstance(v, str))
                    continue
                for v in ([ground] if ground is not None else ids):
                    ident = max(0, int(v))
                    if tag == "ret":
                        events.add(Event(tag, id=ident))
                    else:
                        name = ef.name if isinstance(ef.name, str) else "m"
                        events.add(Event(tag, name=name, id=ident))
        events = sorted(events, key=repr)
        states = [State({})]
        for pv in sorted(set(info["pvars"])):
            states = [s.update(pv, v) for s in states
                      for v in list(ints) + strings][:24]
        cex = _search_counterexample(phi1, phi2, states, events, bound,
                                     valuation)
        if cex is not None:
            return cex, valuation
    return None


def _search_counterexample(phi1, phi2, states, events, bound, valuation):
    """DFS over well-formed traces: first trace in phi1 but not in phi2."""

    def check(items):
        t = Trace(items)
        try:
            if fm.member(t, phi1, valuation) \
                    and not fm.member(t, phi2, valuation):
                return t
        except fm.FormulaError:
            return None
        return None

    def extend(items):
        if len(items) >= bound:
            return None
        for s in states:
            cand = items + [s]
            hit = check(cand) or extend(cand)
            if hit is not None:
                return hit
        if len(items) + 2 <= bound:
            for e in events:
                cand = items + [e, items[-1]]
                hit = check(cand) or extend(cand)
                if hit is not None:
                    return hit
        return None

    for s in states:
        hit = check([s]) or extend([s])
        if hit is not None:
            return hit
    return None
