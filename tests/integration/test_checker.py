"""End-to-end tests of the multi-lingual checker (paper Figures 6/7, §5.2).

Each test is a miniature OCaml+C project; the assertions pin down which
Figure 9 column every construct lands in — errors, questionable-practice
warnings, false-positive-prone reports, imprecision — or that correct glue
code is accepted silently.
"""


from repro import Kind, Options, analyze_project
from repro.api import Project
from repro.boundary import get_dialect
from repro.core.checker import Checker
from repro.core.types import PSI_TOP, CValue, MTRepr, PsiConst


def kinds(report):
    return [d.kind for d in report.diagnostics]


def analyze(ml, c, options=None):
    return analyze_project([ml] if ml else [], [c], options)


# ---------------------------------------------------------------------------
# Clean programs: correct glue code must be accepted
# ---------------------------------------------------------------------------


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
        case 0: result = 1; break;
        case 1: result = 2; break;
        }
    } else {
        switch (Tag_val(x)) {
        case 0: result = Int_val(Field(x, 0)); break;
        case 1: result = Int_val(Field(x, 1)); break;
        }
    }
    return Val_int(result);
}
"""


def examine_param(project):
    """Run the checker over ``project``; return the resolved
    representational type of ``ml_examine``'s parameter."""
    checker = Checker(
        project.lower(), project.build_initial_env(), dialect=get_dialect("ocaml")
    )
    report = checker.run()
    unifier = checker.ctx.unifier
    param = checker.ctx.functions["ml_examine"].ct.params[0]
    assert isinstance(param, CValue)
    return report, unifier, unifier.deep_resolve_mt(param.mt)


class TestCleanPrograms:
    def test_figure2_tag_dispatch(self):
        assert kinds(analyze(FIG2_ML, FIG2_C)) == []

    def test_figure8_resolves_to_the_declared_type(self):
        """§3.4's worked example: with the declaration, ``x`` resolves to
        ρ(t) = (2, (⊤,∅) + (⊤,∅) × (⊤,∅))."""
        report, unifier, resolved = examine_param(
            Project().add_ocaml(FIG2_ML).add_c(FIG2_C)
        )
        assert not report.diagnostics, [d.render() for d in report.diagnostics]
        assert isinstance(resolved, MTRepr)
        # two nullary constructors (B, D) ...
        assert unifier.resolve_psi(resolved.psi) == PsiConst(2)
        # ... and two products: A's (int) and C's (int × int)
        sigma = resolved.sigma
        assert sigma.is_closed
        assert [len(prod.elems) for prod in sigma.prods] == [1, 2]
        payload = sigma.prods[1].elems[0]
        assert isinstance(payload, MTRepr)
        assert payload.psi is PSI_TOP

    def test_figure8_rows_stay_open_without_the_declaration(self):
        """Only the C side constrains ``x``: the tag tests grow σ to two
        products, but nothing closes it."""
        _report, _unifier, resolved = examine_param(Project().add_c(FIG2_C))
        assert isinstance(resolved, MTRepr)
        assert len(resolved.sigma.prods) >= 2
        assert not resolved.sigma.is_closed

    def test_tuple_access_without_test(self):
        # products are always boxed; no Is_long needed (Val Deref Tuple Exp)
        ml = 'external fst2 : int * int -> int = "ml_fst2"'
        c = "value ml_fst2(value p) { return Field(p, 0); }"
        assert kinds(analyze(ml, c)) == []

    def test_record_field_access(self):
        ml = """
        type point = { x : int; mutable y : int }
        external get_y : point -> int = "ml_get_y"
        """
        c = "value ml_get_y(value p) { return Field(p, 1); }"
        assert kinds(analyze(ml, c)) == []

    def test_ref_read_and_write(self):
        ml = 'external bump : int ref -> unit = "ml_bump"'
        c = """
        value ml_bump(value r)
        {
            int v = Int_val(Field(r, 0));
            Store_field(r, 0, Val_int(v + 1));
            return Val_unit;
        }
        """
        assert kinds(analyze(ml, c)) == []

    def test_option_with_proper_test(self):
        ml = 'external get : int option -> int = "ml_get"'
        c = """
        value ml_get(value o)
        {
            if (Is_long(o)) return Val_int(0);
            return Field(o, 0);
        }
        """
        assert kinds(analyze(ml, c)) == []

    def test_protected_allocation(self):
        ml = 'external pair : string -> string -> string * string = "ml_pair"'
        c = """
        value ml_pair(value a, value b)
        {
            CAMLparam2(a, b);
            CAMLlocal1(block);
            block = caml_alloc(2, 0);
            Store_field(block, 0, a);
            Store_field(block, 1, b);
            CAMLreturn(block);
        }
        """
        assert kinds(analyze(ml, c)) == []

    def test_unprotected_ok_when_no_alloc(self):
        # Int-only code never needs registration.
        ml = 'external add : int -> int -> int = "ml_add"'
        c = "value ml_add(value a, value b) { return Val_int(Int_val(a) + Int_val(b)); }"
        assert kinds(analyze(ml, c)) == []

    def test_unprotected_ok_when_values_dead(self):
        # The value is consumed before the allocation; nothing live crosses.
        ml = 'external dup : string -> string = "ml_dup"'
        c = """
        value ml_dup(value s)
        {
            char *p = String_val(s);
            value r = caml_copy_string(p);
            return r;
        }
        """
        assert kinds(analyze(ml, c)) == []

    def test_bool_constants(self):
        ml = 'external flag : bool -> bool = "ml_flag"'
        c = """
        value ml_flag(value b)
        {
            if (Int_val(b) == 1) return Val_false;
            return Val_true;
        }
        """
        assert kinds(analyze(ml, c)) == []

    def test_custom_pointer_roundtrip(self):
        ml = """
        type window
        external make : unit -> window = "ml_make"
        external use : window -> unit = "ml_use"
        """
        c = """
        struct win;
        struct win *new_win(void);
        void use_win(struct win *w);
        value ml_make(value u)
        {
            struct win *w = new_win();
            return (value)w;
        }
        value ml_use(value v)
        {
            use_win((struct win *)v);
            return Val_unit;
        }
        """
        assert kinds(analyze(ml, c)) == []

    def test_list_head_after_test(self):
        ml = 'external hd : int list -> int = "ml_hd"'
        c = """
        value ml_hd(value l)
        {
            if (Is_block(l)) return Field(l, 0);
            return Val_int(0);
        }
        """
        assert kinds(analyze(ml, c)) == []

    def test_external_library_call(self):
        # calls to unknown C functions impose no GC obligations
        ml = 'external ping : int -> int = "ml_ping"'
        c = """
        value ml_ping(value n)
        {
            int r = net_ping(Int_val(n));
            return Val_int(r);
        }
        """
        assert kinds(analyze(ml, c)) == []

    def test_loop_over_int(self):
        ml = 'external sum : int -> int = "ml_sum"'
        c = """
        value ml_sum(value n)
        {
            int total = 0;
            int i;
            for (i = 0; i < Int_val(n); i++) total += i;
            return Val_int(total);
        }
        """
        assert kinds(analyze(ml, c)) == []


# ---------------------------------------------------------------------------
# Type-mismatch errors (19 of the paper's 24 errors)
# ---------------------------------------------------------------------------


class TestTypeErrors:
    def test_val_int_on_value(self):
        report = analyze(
            'external f : int -> int = "ml_f"',
            "value ml_f(value x) { return Val_int(x); }",
        )
        assert kinds(report) == [Kind.BAD_VAL_INT]

    def test_int_val_on_int(self):
        report = analyze(
            'external f : int -> int = "ml_f"',
            "value ml_f(value x) { int n = Int_val(x); return Int_val(n); }",
        )
        assert kinds(report) == [Kind.BAD_INT_VAL]

    def test_int_val_on_boxed_type(self):
        report = analyze(
            'external f : int * int -> int = "ml_f"',
            "value ml_f(value p) { return Val_int(Int_val(p)); }",
        )
        assert Kind.BAD_INT_VAL in kinds(report)

    def test_missing_val_int_on_return(self):
        report = analyze(
            'external f : int -> int = "ml_f"',
            "value ml_f(value x) { int n = Int_val(x); return n; }",
        )
        assert kinds(report) == [Kind.TYPE_MISMATCH]

    def test_tag_out_of_range(self):
        ml = """
        type t = A of int | B
        external f : t -> int = "ml_f"
        """
        c = """
        value ml_f(value x)
        {
            if (Is_long(x)) return Val_int(0);
            if (Tag_val(x) == 3) return Val_int(1);
            return Val_int(2);
        }
        """
        assert Kind.TAG_OUT_OF_RANGE in kinds(analyze(ml, c))

    def test_int_tag_out_of_range(self):
        ml = """
        type t = A | B
        external f : t -> int = "ml_f"
        """
        c = """
        value ml_f(value x)
        {
            if (Int_val(x) == 7) return Val_int(1);
            return Val_int(0);
        }
        """
        assert Kind.TAG_OUT_OF_RANGE in kinds(analyze(ml, c))

    def test_field_out_of_range(self):
        ml = 'external f : int * int -> int = "ml_f"'
        c = "value ml_f(value p) { return Field(p, 5); }"
        assert Kind.BAD_FIELD_ACCESS in kinds(analyze(ml, c))

    def test_option_misuse(self):
        report = analyze(
            'external f : int option -> int = "ml_f"',
            "value ml_f(value o) { return Field(o, 0); }",
        )
        assert kinds(report) == [Kind.OPTION_MISUSE]

    def test_field_on_sum_without_tag_test(self):
        ml = """
        type t = A of int | B of int
        external f : t -> int = "ml_f"
        """
        c = """
        value ml_f(value x)
        {
            if (Is_block(x)) return Field(x, 0);
            return Val_int(0);
        }
        """
        # two non-nullary constructors: needs a Tag_val test first
        assert Kind.BAD_FIELD_ACCESS in kinds(analyze(ml, c))

    def test_arity_mismatch(self):
        report = analyze(
            'external f : int -> int -> int = "ml_f"',
            "value ml_f(value a) { return a; }",
        )
        assert Kind.ARITY_MISMATCH in kinds(report)

    def test_wrong_payload_type(self):
        # writing an int where the external promises a string field
        ml = 'external f : unit -> string * string = "ml_f"'
        c = """
        value ml_f(value u)
        {
            CAMLlocal1(b);
            b = caml_alloc(2, 0);
            Store_field(b, 0, Val_int(3));
            CAMLreturn(b);
        }
        """
        report = analyze(ml, c)
        assert Kind.TYPE_MISMATCH in kinds(report)

    def test_value_as_condition(self):
        report = analyze(
            'external f : int -> int = "ml_f"',
            "value ml_f(value x) { if (x) return Val_int(1); return Val_int(0); }",
        )
        assert Kind.TYPE_MISMATCH in kinds(report)

    def test_conflicting_opaque_representations(self):
        ml = """
        type window
        external a : window -> unit = "ml_a"
        external b : window -> unit = "ml_b"
        """
        c = """
        struct win;
        struct cur;
        value ml_a(value v) { struct win *w = (struct win *)v; return Val_unit; }
        value ml_b(value v) { struct cur *c = (struct cur *)v; return Val_unit; }
        """
        assert Kind.VALUE_CAST in kinds(analyze(ml, c))


# ---------------------------------------------------------------------------
# GC errors (5 of the paper's 24)
# ---------------------------------------------------------------------------


class TestGCErrors:
    def test_unprotected_value_across_alloc(self):
        ml = 'external f : string -> string * string = "ml_f"'
        c = """
        value ml_f(value s)
        {
            value b = caml_alloc(2, 0);
            Store_field(b, 0, s);
            Store_field(b, 1, s);
            return b;
        }
        """
        report = analyze(ml, c)
        assert Kind.UNPROTECTED_VALUE in kinds(report)

    def test_indirect_gc_through_helper(self):
        # helper() allocates; caller's live value must still be registered
        ml = 'external f : string -> string = "ml_f"'
        c = """
        value helper(void)
        {
            value v = caml_alloc(1, 0);
            return v;
        }
        value ml_f(value s)
        {
            value t = helper();
            return s;
        }
        """
        report = analyze(ml, c)
        assert Kind.UNPROTECTED_VALUE in kinds(report)

    def test_no_error_through_nogc_helper(self):
        ml = 'external f : string -> int = "ml_f"'
        c = """
        int helper(int x) { return x + 1; }
        value ml_f(value s)
        {
            int n = helper(3);
            return Val_int(n);
        }
        """
        assert kinds(analyze(ml, c)) == []

    def test_missing_camlreturn(self):
        ml = 'external f : string -> int = "ml_f"'
        c = """
        value ml_f(value s)
        {
            CAMLparam1(s);
            int n = caml_string_length(s);
            return Val_int(n);
        }
        """
        assert kinds(analyze(ml, c)) == [Kind.MISSING_CAMLRETURN]

    def test_spurious_camlreturn(self):
        ml = 'external f : int -> int = "ml_f"'
        c = """
        value ml_f(value x)
        {
            CAMLreturn(x);
        }
        """
        assert kinds(analyze(ml, c)) == [Kind.SPURIOUS_CAMLRETURN]

    def test_callback_counts_as_gc(self):
        ml = 'external f : string -> string -> unit = "ml_f"'
        c = """
        value ml_f(value cb, value s)
        {
            value r = caml_callback(cb, Val_int(0));
            some_use(s);
            return Val_unit;
        }
        """
        report = analyze(ml, c)
        assert Kind.UNPROTECTED_VALUE in kinds(report)

    def test_noalloc_external_effect(self):
        # an external declared noalloc is nogc even though it is opaque
        ml = """
        external fast : int -> int = "ml_fast" "noalloc"
        external f : string -> int = "ml_f"
        """
        c = """
        value ml_fast(value x) { return Val_int(Int_val(x) * 2); }
        value ml_f(value s)
        {
            value r = ml_fast(Val_int(3));
            return Val_int(caml_string_length(s));
        }
        """
        assert kinds(analyze(ml, c)) == []


# ---------------------------------------------------------------------------
# Questionable-practice warnings (the paper's 22)
# ---------------------------------------------------------------------------


class TestWarnings:
    def test_trailing_unit(self):
        report = analyze(
            'external flush : int -> unit -> unit = "ml_flush"',
            'value ml_flush(value fd) { do_flush(Int_val(fd)); return Val_unit; }',
        )
        assert kinds(report) == [Kind.TRAILING_UNIT]

    def test_polymorphic_abuse_gz_idiom(self):
        ml = "external seek : 'a -> int -> unit = \"ml_seek\""
        c = """
        value ml_seek(value chan, value pos)
        {
            do_seek(Int_val(chan), Int_val(pos));
            return Val_unit;
        }
        """
        assert kinds(analyze(ml, c)) == [Kind.POLYMORPHIC_ABUSE]

    def test_polymorphic_abuse_message_names_variables_per_message(self):
        # the type in the message is rendered with per-message variable
        # names, so the text does not depend on what ran before it
        ml = "external seek : 'a -> int -> unit = \"ml_seek\""
        c = "value ml_seek(value chan, value pos) { return Field(chan, 0); }"
        first, again = ([d.message for d in analyze(ml, c).diagnostics] for _ in "ab")
        assert first == again
        assert "uses it at `(0, ((1, ∅) × π1) + σ1)`" in first[0]

    def test_unused_polymorphic_param_not_flagged(self):
        ml = "external ignore : 'a -> unit = \"ml_ignore\""
        c = "value ml_ignore(value x) { return Val_unit; }"
        assert kinds(analyze(ml, c)) == []

    def test_int_to_value_cast_warning(self):
        report = analyze(
            'external f : unit -> int = "ml_f"',
            "value ml_f(value u) { int n = 3; return (value)n; }",
        )
        assert Kind.VALUE_CAST in kinds(report)


# ---------------------------------------------------------------------------
# False-positive-prone patterns (the paper's 214)
# ---------------------------------------------------------------------------


class TestFalsePositivePatterns:
    def test_disguised_pointer_arithmetic(self):
        ml = """
        type window
        external next : window -> window = "ml_next"
        """
        c = """
        struct win;
        value ml_next(value v)
        {
            struct win *w = (struct win *)v;
            return (value)((struct win *)(v + sizeof(struct win *)));
        }
        """
        assert kinds(analyze(ml, c)) == [Kind.DISGUISED_PTR_ARITH]

    def test_poly_variant_flagged(self):
        ml = 'external f : [ `Left | `Right ] -> unit = "ml_f"'
        c = "value ml_f(value v) { return Val_unit; }"
        assert kinds(analyze(ml, c)) == [Kind.POLY_VARIANT]


# ---------------------------------------------------------------------------
# Imprecision warnings (the paper's 75)
# ---------------------------------------------------------------------------


class TestImprecision:
    def test_unknown_offset(self):
        ml = 'external f : int * int -> int = "ml_f"'
        c = """
        value ml_f(value p)
        {
            int i = unknown();
            return Field(p, i);
        }
        """
        assert Kind.UNKNOWN_OFFSET in kinds(analyze(ml, c))

    def test_global_value(self):
        report = analyze(
            'external f : unit -> unit = "ml_f"',
            "value cache;\nvalue ml_f(value u) { return Val_unit; }",
        )
        assert kinds(report) == [Kind.GLOBAL_VALUE]

    def test_address_taken_value(self):
        ml = 'external f : string -> unit = "ml_f"'
        c = """
        value ml_f(value v)
        {
            caml_register_global_root(&v);
            return Val_unit;
        }
        """
        assert kinds(analyze(ml, c)) == [Kind.ADDRESS_TAKEN]

    def test_function_pointer(self):
        c = """
        typedef int (*cb_t)(int);
        int apply(cb_t cb, int x)
        {
            int r = cb(x);
            return r;
        }
        """
        assert kinds(analyze("", c)) == [Kind.FUNCTION_POINTER]

    def test_scalar_global_is_fine(self):
        report = analyze(
            'external f : unit -> int = "ml_f"',
            "static int counter;\nvalue ml_f(value u) { counter = counter + 1; return Val_int(counter); }",
        )
        assert kinds(report) == []


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md experiment index)
# ---------------------------------------------------------------------------


class TestAblations:
    FIG2_ML = """
    type t = A of int | B | C of int * int | D
    external examine : t -> int = "ml_examine"
    """
    FIG2_C = """
    value ml_examine(value x)
    {
        int result = 0;
        if (Is_long(x)) {
            if (Int_val(x) == 0) result = 1;
        } else {
            if (Tag_val(x) == 1) result = Int_val(Field(x, 1));
        }
        return Val_int(result);
    }
    """

    def test_flow_sensitivity_needed_for_fig2(self):
        clean = analyze(self.FIG2_ML, self.FIG2_C)
        assert kinds(clean) == []
        degraded = analyze(
            self.FIG2_ML, self.FIG2_C, Options(flow_sensitive=False)
        )
        assert len(degraded.diagnostics) > 0

    def test_gc_effects_needed_for_protection_errors(self):
        ml = 'external f : string -> string * string = "ml_f"'
        c = """
        value ml_f(value s)
        {
            value b = caml_alloc(2, 0);
            Store_field(b, 0, s);
            return b;
        }
        """
        with_gc = analyze(ml, c)
        assert Kind.UNPROTECTED_VALUE in kinds(with_gc)
        without_gc = analyze(ml, c, Options(gc_effects=False))
        assert Kind.UNPROTECTED_VALUE not in kinds(without_gc)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


class TestReporting:
    def test_render_contains_counts(self):
        report = analyze(
            'external f : int -> int = "ml_f"',
            "value ml_f(value x) { return Val_int(x); }",
        )
        text = report.render()
        assert "1 error(s)" in text

    def test_tally_matches_categories(self):
        report = analyze(
            'external f : int -> int = "ml_f"',
            "value ml_f(value x) { return Val_int(x); }",
        )
        tally = report.tally()
        assert tally["errors"] == 1
        assert tally["warnings"] == 0

    def test_diagnostics_deduplicated_across_fixpoint(self):
        # a bug inside a loop body must be reported once, not per pass
        ml = 'external f : int -> int = "ml_f"'
        c = """
        value ml_f(value x)
        {
            int i;
            value bad;
            for (i = 0; i < 3; i++) {
                bad = Val_int(x);
            }
            return Val_int(0);
        }
        """
        report = analyze(ml, c)
        assert kinds(report) == [Kind.BAD_VAL_INT]

    def test_function_results_expose_passes(self):
        report = analyze(
            'external f : int -> int = "ml_f"',
            "value ml_f(value x) { return Val_int(Int_val(x)); }",
        )
        assert report.function_results["ml_f"].passes >= 1
