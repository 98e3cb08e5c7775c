"""The paper's running example (Figures 2 and 8): representational types.

``type t = A of int | B | C of int * int | D`` has four constructors with
two distinct physical representations: ``B``/``D`` are unboxed integers 0
and 1, ``A``/``C`` are pointers to tagged blocks.  Glue code must test
``Is_long`` before ``Int_val`` or ``Tag_val`` — the checker validates this
idiom flow-sensitively and infers the representational type

    (2,  (⊤, ∅)  +  (⊤, ∅) × (⊤, ∅))

for ``x``: two nullary constructors, products of one and two int fields.
This demo runs the correct dispatch, prints the inferred type, then shows
three broken variants and what the checker says about each.

Run with::

    python examples/sum_types_demo.py
"""

from repro.api import Project
from repro.boundary import get_dialect
from repro.core.checker import Checker

OCAML = """
type t = A of int | B | C of int * int | D
external examine : t -> int = "ml_examine"
"""

CORRECT = """
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

BROKEN = {
    "Field without any test (x may be B or D, an unboxed int)": """
value ml_examine(value x)
{
    return Field(x, 0);
}
""",
    "Tag test beyond the type (t has no constructor with tag 2)": """
value ml_examine(value x)
{
    if (Is_long(x)) return Val_int(0);
    if (Tag_val(x) == 2) return Field(x, 0);
    return Val_int(1);
}
""",
    "Nullary-constructor test beyond the type (only B=0 and D=1 exist)": """
value ml_examine(value x)
{
    if (Is_long(x)) {
        if (Int_val(x) == 5) return Val_int(9);
    }
    return Val_int(0);
}
""",
}


def show(title: str, c_source: str) -> None:
    print(f"--- {title}")
    project = Project().add_ocaml(OCAML).add_c(c_source)
    checker = Checker(
        project.lower(), project.build_initial_env(), dialect=get_dialect("ocaml")
    )
    report = checker.run()
    if not report.diagnostics:
        unifier = checker.ctx.unifier
        fn_ct = checker.ctx.functions["ml_examine"].ct
        inferred = unifier.deep_resolve_mt(fn_ct.params[0].mt)
        print("  accepted; inferred representational type of x:")
        print(f"    {inferred}")
    else:
        for diag in report.diagnostics:
            print("  " + diag.render())
    print()


def main() -> int:
    show("correct Figure 2 dispatch", CORRECT)
    for title, source in BROKEN.items():
        show(title, source)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
