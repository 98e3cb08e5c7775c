"""Figure 8 reproduction: the worked example of paper §3.4.

The paper walks the Figure 2 tag-dispatch code and shows the types the
inference assigns: ``x : α value`` unifies with ``(ψ, σ)``, the tag tests
grow the rows, and at the end ``α = (ψ, π0 + π1 + σ'')`` with ``2 ≤ ψ``
"correctly unifies with our original type t".  We rerun that example and
assert the final, fully-resolved representational type of ``x``:

    (2, (⊤,∅) + (⊤,∅) × (⊤,∅))   —   ρ(t) for
    type t = A of int | B | C of int * int | D
"""


from repro.api import Project
from repro.boundary import get_dialect
from repro.core.checker import Checker
from repro.core.types import CValue, MTRepr, PSI_TOP, PsiConst

FIG2_ML = """
type t = A of int | B | C of int * int | D
external examine : t -> int = "ml_examine"
"""

FIG2_C = """
value ml_examine(value x)
{
    int result = 0;
    if (Is_long(x)) {
        switch (Int_val(x)) {
        case 0: /* B */ result = 1; break;
        case 1: /* D */ result = 2; break;
        }
    } else {
        switch (Tag_val(x)) {
        case 0: /* A */ result = Int_val(Field(x, 0)); break;
        case 1: /* C */ result = Int_val(Field(x, 1)); break;
        }
    }
    return Val_int(result);
}
"""


def run_example():
    project = Project().add_ocaml(FIG2_ML).add_c(FIG2_C)
    checker = Checker(
        project.lower(), project.build_initial_env(), dialect=get_dialect("ocaml")
    )
    report = checker.run()
    return checker, report


def test_fig8_example(benchmark):
    checker, report = benchmark.pedantic(run_example, rounds=1, iterations=1)
    assert not report.diagnostics, [d.render() for d in report.diagnostics]

    unifier = checker.ctx.unifier
    fn_ct = checker.ctx.functions["ml_examine"].ct
    param = fn_ct.params[0]
    assert isinstance(param, CValue)
    resolved = unifier.deep_resolve_mt(param.mt)
    assert isinstance(resolved, MTRepr)

    # 2 nullary constructors (B, D) ...
    assert unifier.resolve_psi(resolved.psi) == PsiConst(2)
    # ... and two products: A's (int) and C's (int × int)
    sigma = resolved.sigma
    assert sigma.is_closed
    assert len(sigma.prods) == 2
    assert len(sigma.prods[0].elems) == 1
    assert len(sigma.prods[1].elems) == 2
    # field payloads are ints: (⊤, ∅)
    payload = sigma.prods[1].elems[0]
    assert isinstance(payload, MTRepr)
    assert payload.psi is PSI_TOP


def test_fig8_sigma_grows_during_inference(benchmark):
    """Without the final unification, the rows stay open (σ'', π tails)."""

    def run_partial():
        # same C code but the external's type is polymorphic-free unknown:
        # no OCaml declaration at all, so only the C side constrains x
        project = Project().add_c(FIG2_C)
        checker = Checker(
            project.lower(),
            project.build_initial_env(),
            dialect=get_dialect("ocaml"),
        )
        checker.run()
        return checker

    checker = benchmark.pedantic(run_partial, rounds=1, iterations=1)
    unifier = checker.ctx.unifier
    fn_ct = checker.ctx.functions["ml_examine"].ct
    resolved = unifier.deep_resolve_mt(fn_ct.params[0].mt)
    assert isinstance(resolved, MTRepr)
    sigma = resolved.sigma
    # the two Tag_val cases grew the row to (at least) two products, but
    # nothing closed it: the tail variable is still there
    assert len(sigma.prods) >= 2
    assert not sigma.is_closed
