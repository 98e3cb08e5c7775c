"""Tests for the small-step operational semantics (paper Figure 12)."""

import pytest

from repro.cfront.ir import (
    AOp,
    Deref,
    IntLit,
    IntValExp,
    MemLval,
    PtrAdd,
    SAssign,
    SGoto,
    SIf,
    SIfIntTag,
    SIfSumTag,
    SIfUnboxed,
    SNop,
    SReturn,
    ValIntExp,
    VarExp,
)
from repro.semantics.reduce import Machine, Outcome, StuckError, eval_expr
from repro.semantics.stores import MachineState
from repro.semantics.values import CIntVal, MLInt, MLLoc


@pytest.fixture()
def state():
    return MachineState()


def run(body, labels=None, state=None):
    machine = Machine(body, labels or {}, state or MachineState())
    return machine.run()


class TestExpressionReduction:
    def test_int_literal(self, state):
        assert eval_expr(state, IntLit(7)) == CIntVal(7)

    def test_o_var(self, state):
        state.variables.write("x", MLInt(3))
        assert eval_expr(state, VarExp("x")) == MLInt(3)

    def test_unbound_var_stuck(self, state):
        with pytest.raises(StuckError):
            eval_expr(state, VarExp("nope"))

    def test_o_aop(self, state):
        exp = AOp("+", IntLit(2), IntLit(3))
        assert eval_expr(state, exp) == CIntVal(5)

    def test_aop_on_ml_value_stuck(self, state):
        state.variables.write("x", MLInt(1))
        with pytest.raises(StuckError):
            eval_expr(state, AOp("+", VarExp("x"), IntLit(1)))

    def test_o_valint(self, state):
        assert eval_expr(state, ValIntExp(IntLit(4))) == MLInt(4)

    def test_o_intval(self, state):
        state.variables.write("x", MLInt(9))
        assert eval_expr(state, IntValExp(VarExp("x"))) == CIntVal(9)

    def test_intval_of_block_stuck(self, state):
        loc = state.ml_store.alloc_block(0, [MLInt(1)])
        state.variables.write("x", loc)
        with pytest.raises(StuckError):
            eval_expr(state, IntValExp(VarExp("x")))

    def test_valint_of_value_stuck(self, state):
        state.variables.write("x", MLInt(1))
        with pytest.raises(StuckError):
            eval_expr(state, ValIntExp(VarExp("x")))

    def test_o_ml_add(self, state):
        loc = state.ml_store.alloc_block(0, [MLInt(1), MLInt(2)])
        state.variables.write("x", loc)
        result = eval_expr(state, PtrAdd(VarExp("x"), IntLit(1)))
        assert result == MLLoc(loc.base, 1)

    def test_o_c_add_zero_only(self, state):
        cloc = state.c_store.alloc(CIntVal(5))
        state.variables.write("p", cloc)
        assert eval_expr(state, PtrAdd(VarExp("p"), IntLit(0))) == cloc
        with pytest.raises(StuckError):
            eval_expr(state, PtrAdd(VarExp("p"), IntLit(1)))

    def test_o_ml_deref(self, state):
        loc = state.ml_store.alloc_block(2, [MLInt(7)])
        state.variables.write("x", loc)
        assert eval_expr(state, Deref(VarExp("x"))) == MLInt(7)

    def test_o_c_deref(self, state):
        cloc = state.c_store.alloc(CIntVal(11))
        state.variables.write("p", cloc)
        assert eval_expr(state, Deref(VarExp("p"))) == CIntVal(11)

    def test_deref_out_of_block_stuck(self, state):
        loc = state.ml_store.alloc_block(0, [MLInt(1)])
        state.variables.write("x", loc)
        with pytest.raises(StuckError):
            eval_expr(state, Deref(PtrAdd(VarExp("x"), IntLit(5))))

    def test_deref_of_int_stuck(self, state):
        state.variables.write("x", CIntVal(3))
        with pytest.raises(StuckError):
            eval_expr(state, Deref(VarExp("x")))


class TestStatementReduction:
    def test_o_var_assign(self):
        state = MachineState()
        result = run(
            [SAssign(VarExp("y"), IntLit(5)), SReturn(VarExp("y"))],
            state=state,
        )
        assert result.outcome is Outcome.FINISHED
        assert result.returned == CIntVal(5)

    def test_o_ml_assign(self):
        state = MachineState()
        loc = state.ml_store.alloc_block(0, [MLInt(0)])
        state.variables.write("x", loc)
        result = run(
            [
                SAssign(MemLval(VarExp("x"), 0), ValIntExp(IntLit(9))),
                SReturn(Deref(VarExp("x"))),
            ],
            state=state,
        )
        assert result.returned == MLInt(9)

    def test_o_goto(self):
        result = run(
            [SGoto("end"), SReturn(IntLit(1)), SReturn(IntLit(2))],
            labels={"end": 2},
        )
        assert result.returned == CIntVal(2)

    def test_goto_undefined_label_stuck(self):
        result = run([SGoto("missing")])
        assert result.outcome is Outcome.STUCK

    def test_o_if_taken_and_not(self):
        taken = run(
            [SIf(IntLit(1), "L"), SReturn(IntLit(0)), SReturn(IntLit(9))],
            labels={"L": 2},
        )
        assert taken.returned == CIntVal(9)
        fall = run(
            [SIf(IntLit(0), "L"), SReturn(IntLit(0)), SReturn(IntLit(9))],
            labels={"L": 2},
        )
        assert fall.returned == CIntVal(0)

    def test_o_iflong_on_unboxed(self):
        state = MachineState()
        state.variables.write("x", MLInt(1))
        result = run(
            [SIfUnboxed("x", "L"), SReturn(IntLit(0)), SReturn(IntLit(9))],
            labels={"L": 2},
            state=state,
        )
        assert result.returned == CIntVal(9)

    def test_o_iflong2_on_block(self):
        state = MachineState()
        state.variables.write("x", state.ml_store.alloc_block(0, [MLInt(1)]))
        result = run(
            [SIfUnboxed("x", "L"), SReturn(IntLit(0)), SReturn(IntLit(9))],
            labels={"L": 2},
            state=state,
        )
        assert result.returned == CIntVal(0)

    def test_iflong_on_interior_pointer_stuck(self):
        state = MachineState()
        block = state.ml_store.alloc_block(0, [MLInt(1), MLInt(2)])
        state.variables.write("x", block.shifted(1))
        result = run(
            [SIfUnboxed("x", "L"), SReturn(IntLit(0)), SReturn(IntLit(9))],
            labels={"L": 2},
            state=state,
        )
        assert result.outcome is Outcome.STUCK

    def test_o_ifsum(self):
        state = MachineState()
        state.variables.write("x", state.ml_store.alloc_block(1, [MLInt(0)]))
        result = run(
            [SIfSumTag("x", 1, "L"), SReturn(IntLit(0)), SReturn(IntLit(9))],
            labels={"L": 2},
            state=state,
        )
        assert result.returned == CIntVal(9)

    def test_o_ifsum2_falls_through(self):
        state = MachineState()
        state.variables.write("x", state.ml_store.alloc_block(0, [MLInt(0)]))
        result = run(
            [SIfSumTag("x", 1, "L"), SReturn(IntLit(0)), SReturn(IntLit(9))],
            labels={"L": 2},
            state=state,
        )
        assert result.returned == CIntVal(0)

    def test_ifsum_on_unboxed_stuck(self):
        state = MachineState()
        state.variables.write("x", MLInt(0))
        result = run(
            [SIfSumTag("x", 0, "L"), SReturn(IntLit(0)), SReturn(IntLit(9))],
            labels={"L": 2},
            state=state,
        )
        assert result.outcome is Outcome.STUCK

    def test_o_ifi(self):
        state = MachineState()
        state.variables.write("x", MLInt(2))
        result = run(
            [SIfIntTag("x", 2, "L"), SReturn(IntLit(0)), SReturn(IntLit(9))],
            labels={"L": 2},
            state=state,
        )
        assert result.returned == CIntVal(9)

    def test_ifi_on_block_stuck(self):
        state = MachineState()
        state.variables.write("x", state.ml_store.alloc_block(0, [MLInt(0)]))
        result = run(
            [SIfIntTag("x", 0, "L"), SReturn(IntLit(0)), SReturn(IntLit(9))],
            labels={"L": 2},
            state=state,
        )
        assert result.outcome is Outcome.STUCK

    def test_step_budget_reports_divergence(self):
        result = Machine(
            [SGoto("loop")], {"loop": 0}, MachineState()
        ).run(max_steps=50)
        assert result.outcome is Outcome.EXHAUSTED
        assert result.steps == 50

    def test_counting_loop_returns_its_bound(self):
        body = [
            SAssign(VarExp("i"), IntLit(0)),
            SIf(AOp(">=", VarExp("i"), IntLit(2000)), "end"),
            SAssign(VarExp("i"), AOp("+", VarExp("i"), IntLit(1))),
            SGoto("head"),
            SReturn(VarExp("i")),
        ]
        result = Machine(body, {"head": 1, "end": 4}, MachineState()).run(
            max_steps=10_000
        )
        assert result.returned == CIntVal(2000)

    def test_fall_off_end_finishes(self):
        result = run([SNop()])
        assert result.outcome is Outcome.FINISHED
