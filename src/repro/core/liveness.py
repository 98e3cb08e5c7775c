"""Backward live-variable analysis over the Figure 5 IR.

The (App) rule needs ``live(Γ)`` — the variables live at each call site —
to decide which heap pointers must have been registered with the garbage
collector before a call that may trigger a collection (paper §3.3.1 omits
the computation as standard; this is it).

``live_in[i]`` is the set of variables live immediately *before* statement
``i``; a call at statement ``i`` consults the set live immediately *after*
the call together with the call's own arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfront.ir import (
    FunctionIR,
    MemLval,
    SAssign,
    SCamlReturn,
    SGoto,
    SIf,
    SIfIntTag,
    SIfSumTag,
    SIfUnboxed,
    SReturn,
    VarExp,
    expr_vars,
)


@dataclass(frozen=True)
class StmtFacts:
    """use/def/successors for one statement."""

    use: frozenset[str]
    defs: frozenset[str]
    succs: tuple[int, ...]


def statement_facts(fn: FunctionIR, index: int) -> StmtFacts:
    """use/def sets and successor indices of ``fn.body[index]``."""
    stmt = fn.body[index]
    fallthrough = index + 1
    use: set[str] = set()
    defs: set[str] = set()
    succs: list[int] = []

    if isinstance(stmt, SAssign):
        use |= expr_vars(stmt.rhs)
        if isinstance(stmt.lval, VarExp):
            defs.add(stmt.lval.name)
        elif isinstance(stmt.lval, MemLval):
            use |= expr_vars(stmt.lval.base)
        succs.append(fallthrough)
    elif isinstance(stmt, (SReturn, SCamlReturn)):
        use |= expr_vars(stmt.exp)
        # no successors: function exits
    elif isinstance(stmt, SGoto):
        succs.append(fn.label_index(stmt.label))
    elif isinstance(stmt, SIf):
        use |= expr_vars(stmt.cond)
        succs.extend((fn.label_index(stmt.label), fallthrough))
    elif isinstance(stmt, (SIfUnboxed, SIfSumTag, SIfIntTag)):
        use.add(stmt.var)
        succs.extend((fn.label_index(stmt.label), fallthrough))
    else:  # SNop
        succs.append(fallthrough)

    succs = [s for s in succs if 0 <= s < len(fn.body)]
    return StmtFacts(frozenset(use), frozenset(defs), tuple(succs))


@dataclass
class LivenessResult:
    """Live-in/live-out sets per statement index."""

    live_in: list[frozenset[str]]
    live_out: list[frozenset[str]]

    def live_before(self, index: int) -> frozenset[str]:
        return self.live_in[index]


def compute_liveness(fn: FunctionIR) -> LivenessResult:
    """Standard backward may-liveness to fixpoint."""
    count = len(fn.body)
    facts = [statement_facts(fn, i) for i in range(count)]
    live_in = [frozenset[str]()] * count
    live_out = [frozenset[str]()] * count

    # Predecessor map for a worklist seeded with all statements.
    preds: dict[int, list[int]] = {i: [] for i in range(count)}
    for i, fact in enumerate(facts):
        for succ in fact.succs:
            preds[succ].append(i)

    worklist = list(range(count))
    while worklist:
        index = worklist.pop()
        fact = facts[index]
        out: frozenset[str] = frozenset().union(
            *(live_in[s] for s in fact.succs)
        ) if fact.succs else frozenset()
        new_in = fact.use | (out - fact.defs)
        changed = out != live_out[index] or new_in != live_in[index]
        live_out[index] = out
        live_in[index] = new_in
        if changed:
            worklist.extend(preds[index])
    return LivenessResult(live_in, live_out)
