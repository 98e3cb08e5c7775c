"""Defect and filler templates for the synthesized benchmark suite.

Every template is a function ``index -> GlueUnit``: a paired OCaml
declaration and C definition with a known ground truth.  *Defect* templates
produce exactly one report of a known Figure 9 category; *filler* templates
are correct FFI idioms that must analyze clean — they provide the bulk of
the lines of code, mimicking the real libraries' surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from ..diagnostics import Category


@dataclass(frozen=True)
class GlueUnit:
    """One OCaml+C pairing with its expected report counts."""

    ml: str
    c: str
    expected: Dict[Category, int] = field(default_factory=dict)


def _unit(ml: str, c: str, **counts: int) -> GlueUnit:
    expected = {
        Category.ERROR: counts.get("errors", 0),
        Category.WARNING: counts.get("warnings", 0),
        Category.FALSE_POSITIVE_PRONE: counts.get("false_positives", 0),
        Category.IMPRECISION: counts.get("imprecision", 0),
    }
    return GlueUnit(ml=ml.strip() + "\n", c=c.strip() + "\n", expected=expected)


# ---------------------------------------------------------------------------
# Defect templates (§5.2's taxonomy)
# ---------------------------------------------------------------------------


def unprotected_value(i: int) -> GlueUnit:
    """Forgot to register a heap pointer before allocating (ftplib et al)."""
    return _unit(
        f'external wrap_{i} : string -> string ref = "ml_wrap_{i}"',
        f"""
value ml_wrap_{i}(value s)
{{
    value r = caml_alloc(1, 0);
    Store_field(r, 0, s);
    return r;
}}
""",
        errors=1,
    )


def register_leak(i: int) -> GlueUnit:
    """CAMLparam'd but released with plain return (ocaml-mad, ocaml-vorbis)."""
    return _unit(
        f'external strlen_{i} : string -> int = "ml_strlen_{i}"',
        f"""
value ml_strlen_{i}(value s)
{{
    CAMLparam1(s);
    int n = caml_string_length(s);
    return Val_int(n);
}}
""",
        errors=1,
    )


def val_int_swap(i: int) -> GlueUnit:
    """Val_int where Int_val was meant (ocaml-ssl, ocaml-glpk, lablgtk)."""
    return _unit(
        f'external succ_{i} : int -> int = "ml_succ_{i}"',
        f"""
value ml_succ_{i}(value n)
{{
    return Val_int(n);
}}
""",
        errors=1,
    )


def int_val_swap(i: int) -> GlueUnit:
    """Int_val applied to a C integer (the swap in the other direction)."""
    return _unit(
        f'external pred_{i} : int -> int = "ml_pred_{i}"',
        f"""
value ml_pred_{i}(value n)
{{
    int k = Int_val(n) - 1;
    return Int_val(k);
}}
""",
        errors=1,
    )


def option_misuse(i: int) -> GlueUnit:
    """Option dereferenced as its payload without a None test (lablgtk)."""
    return _unit(
        f'external default_{i} : int option -> int = "ml_default_{i}"',
        f"""
value ml_default_{i}(value o)
{{
    return Field(o, 0);
}}
""",
        errors=1,
    )


def missing_conversion(i: int) -> GlueUnit:
    """Returning a raw C int where the external promises an OCaml int."""
    return _unit(
        f'external calc_{i} : int -> int = "ml_calc_{i}"',
        f"""
value ml_calc_{i}(value n)
{{
    int r = Int_val(n) * 3;
    return r;
}}
""",
        errors=1,
    )


def trailing_unit(i: int) -> GlueUnit:
    """Trailing unit parameter omitted by the C definition (§5.2 warning)."""
    return _unit(
        f'external flush_{i} : int -> unit -> unit = "ml_flush_{i}"',
        f"""
value ml_flush_{i}(value fd)
{{
    int r = do_flush_{i}(Int_val(fd));
    return Val_unit;
}}
""",
        warnings=1,
    )


def poly_abuse(i: int) -> GlueUnit:
    """The gz seek idiom: a 'a parameter used at a concrete type."""
    return _unit(
        f"external seek_{i} : 'a -> int -> unit = \"ml_seek_{i}\"",
        f"""
value ml_seek_{i}(value chan, value pos)
{{
    int r = do_seek_{i}(Int_val(chan), Int_val(pos));
    return Val_unit;
}}
""",
        warnings=1,
    )


def poly_variant(i: int) -> GlueUnit:
    """Polymorphic variants are unsupported: flagged, usually correct code."""
    return _unit(
        f'external set_mode_{i} : [ `On | `Off | `Auto ] -> unit = "ml_set_mode_{i}"',
        f"""
value ml_set_mode_{i}(value mode)
{{
    return Val_unit;
}}
""",
        false_positives=1,
    )


def disguised_arith(i: int) -> GlueUnit:
    """Pointer arithmetic written as integer arithmetic on a custom value."""
    return _unit(
        f"""
type handle_{i}
external next_{i} : handle_{i} -> handle_{i} = "ml_next_{i}"
""",
        f"""
struct hdl_{i};
value ml_next_{i}(value v)
{{
    struct hdl_{i} *h = (struct hdl_{i} *)v;
    return (value)((struct hdl_{i} *)(v + sizeof(struct hdl_{i} *)));
}}
""",
        false_positives=1,
    )


def unknown_offset(i: int) -> GlueUnit:
    """Field access at a statically unknown index."""
    return _unit(
        f'external nth_{i} : int * int -> int = "ml_nth_{i}"',
        f"""
value ml_nth_{i}(value p)
{{
    int idx = runtime_index_{i}();
    return Field(p, idx);
}}
""",
        imprecision=1,
    )


def global_value(i: int) -> GlueUnit:
    """A global of type value (should be a registered global root)."""
    return _unit(
        "",
        f"""
value cached_state_{i};
""",
        imprecision=1,
    )


def function_pointer(i: int) -> GlueUnit:
    """A call through a function pointer generates no constraints."""
    return _unit(
        "",
        f"""
typedef int (*callback_{i}_t)(int);
int apply_{i}(callback_{i}_t f, int x)
{{
    int r = f(x);
    return r;
}}
""",
        imprecision=1,
    )


def address_taken(i: int) -> GlueUnit:
    """The address of a value variable escapes; tracking stops."""
    return _unit(
        f'external root_{i} : string -> unit = "ml_root_{i}"',
        f"""
value ml_root_{i}(value v)
{{
    caml_register_global_root(&v);
    return Val_unit;
}}
""",
        imprecision=1,
    )


DEFECT_TEMPLATES: Dict[str, Callable[[int], GlueUnit]] = {
    "unprotected_value": unprotected_value,
    "register_leak": register_leak,
    "val_int_swap": val_int_swap,
    "int_val_swap": int_val_swap,
    "option_misuse": option_misuse,
    "missing_conversion": missing_conversion,
    "trailing_unit": trailing_unit,
    "poly_abuse": poly_abuse,
    "poly_variant": poly_variant,
    "disguised_arith": disguised_arith,
    "unknown_offset": unknown_offset,
    "global_value": global_value,
    "function_pointer": function_pointer,
    "address_taken": address_taken,
}


# ---------------------------------------------------------------------------
# Filler templates — correct FFI idioms, must analyze clean
# ---------------------------------------------------------------------------


def filler_int_binop(i: int) -> GlueUnit:
    return _unit(
        f'external add_{i} : int -> int -> int = "ml_add_{i}"',
        f"""
value ml_add_{i}(value a, value b)
{{
    return Val_int(Int_val(a) + Int_val(b));
}}
""",
    )


def filler_enum_dispatch(i: int) -> GlueUnit:
    return _unit(
        f"""
type color_{i} = Red_{i} | Green_{i} | Blue_{i}
external code_{i} : color_{i} -> int = "ml_code_{i}"
""",
        f"""
value ml_code_{i}(value c)
{{
    int r = 0;
    switch (Int_val(c)) {{
    case 0: r = 10; break;
    case 1: r = 20; break;
    case 2: r = 30; break;
    }}
    return Val_int(r);
}}
""",
    )


def filler_variant_dispatch(i: int) -> GlueUnit:
    return _unit(
        f"""
type shape_{i} = Point_{i} | Circle_{i} of int | Rect_{i} of int * int
external area_{i} : shape_{i} -> int = "ml_area_{i}"
""",
        f"""
value ml_area_{i}(value s)
{{
    int r = 0;
    if (Is_long(s)) {{
        r = 0;
    }} else {{
        switch (Tag_val(s)) {{
        case 0: r = 3 * Int_val(Field(s, 0)); break;
        case 1: r = Int_val(Field(s, 0)) * Int_val(Field(s, 1)); break;
        }}
    }}
    return Val_int(r);
}}
""",
    )


def filler_tuple_get(i: int) -> GlueUnit:
    return _unit(
        f'external snd_{i} : int * int -> int = "ml_snd_{i}"',
        f"""
value ml_snd_{i}(value p)
{{
    return Field(p, 1);
}}
""",
    )


def filler_record_get(i: int) -> GlueUnit:
    return _unit(
        f"""
type point_{i} = {{ px_{i} : int; py_{i} : int }}
external getx_{i} : point_{i} -> int = "ml_getx_{i}"
""",
        f"""
value ml_getx_{i}(value p)
{{
    return Field(p, 0);
}}
""",
    )


def filler_ref_update(i: int) -> GlueUnit:
    return _unit(
        f'external bump_{i} : int ref -> unit = "ml_bump_{i}"',
        f"""
value ml_bump_{i}(value r)
{{
    int v = Int_val(Field(r, 0));
    Store_field(r, 0, Val_int(v + 1));
    return Val_unit;
}}
""",
    )


def filler_option_get(i: int) -> GlueUnit:
    return _unit(
        f'external value_of_{i} : int option -> int = "ml_value_of_{i}"',
        f"""
value ml_value_of_{i}(value o)
{{
    if (Is_long(o)) return Val_int(-1);
    return Field(o, 0);
}}
""",
    )


def filler_string_length(i: int) -> GlueUnit:
    return _unit(
        f'external size_{i} : string -> int = "ml_size_{i}"',
        f"""
value ml_size_{i}(value s)
{{
    CAMLparam1(s);
    int n = caml_string_length(s);
    CAMLreturn(Val_int(n));
}}
""",
    )


def filler_protected_alloc(i: int) -> GlueUnit:
    return _unit(
        f'external dup_{i} : string -> string * string = "ml_dup_{i}"',
        f"""
value ml_dup_{i}(value s)
{{
    CAMLparam1(s);
    CAMLlocal1(r);
    r = caml_alloc(2, 0);
    Store_field(r, 0, s);
    Store_field(r, 1, s);
    CAMLreturn(r);
}}
""",
    )


def filler_custom_handle(i: int) -> GlueUnit:
    return _unit(
        f"""
type conn_{i}
external open_{i} : int -> conn_{i} = "ml_open_{i}"
external close_{i} : conn_{i} -> unit = "ml_close_{i}"
""",
        f"""
struct conn_{i};
struct conn_{i} *sys_open_{i}(int port);
void sys_close_{i}(struct conn_{i} *c);
value ml_open_{i}(value port)
{{
    struct conn_{i} *c = sys_open_{i}(Int_val(port));
    return (value)c;
}}
value ml_close_{i}(value v)
{{
    sys_close_{i}((struct conn_{i} *)v);
    return Val_unit;
}}
""",
    )


def filler_list_head(i: int) -> GlueUnit:
    return _unit(
        f'external head_{i} : int list -> int = "ml_head_{i}"',
        f"""
value ml_head_{i}(value l)
{{
    if (Is_block(l)) return Field(l, 0);
    return Val_int(0);
}}
""",
    )


def filler_copy_string(i: int) -> GlueUnit:
    return _unit(
        f'external greet_{i} : unit -> string = "ml_greet_{i}"',
        f"""
value ml_greet_{i}(value u)
{{
    value s = caml_copy_string("hello");
    return s;
}}
""",
    )


def filler_bool_not(i: int) -> GlueUnit:
    return _unit(
        f'external negate_{i} : bool -> bool = "ml_negate_{i}"',
        f"""
value ml_negate_{i}(value b)
{{
    if (Int_val(b) == 0) return Val_true;
    return Val_false;
}}
""",
    )


def filler_int_loop(i: int) -> GlueUnit:
    return _unit(
        f'external triangle_{i} : int -> int = "ml_triangle_{i}"',
        f"""
value ml_triangle_{i}(value n)
{{
    int total = 0;
    int k;
    for (k = 0; k <= Int_val(n); k++) {{
        total += k;
    }}
    return Val_int(total);
}}
""",
    )


def filler_library_call(i: int) -> GlueUnit:
    return _unit(
        f'external query_{i} : int -> int = "ml_query_{i}"',
        f"""
value ml_query_{i}(value req)
{{
    int status = lib_request_{i}(Int_val(req), 0);
    if (status < 0) {{
        status = 0;
    }}
    return Val_int(status);
}}
""",
    )


def filler_float_add(i: int) -> GlueUnit:
    return _unit(
        f'external fadd_{i} : float -> float = "ml_fadd_{i}"',
        f"""
value ml_fadd_{i}(value x)
{{
    CAMLparam1(x);
    CAMLlocal1(r);
    double d = Double_val(x);
    r = caml_copy_double(d + 1);
    CAMLreturn(r);
}}
""",
    )


def filler_array_head(i: int) -> GlueUnit:
    return _unit(
        f'external first2_{i} : int array -> int = "ml_first2_{i}"',
        f"""
value ml_first2_{i}(value a)
{{
    int x = Int_val(Field(a, 0));
    int y = Int_val(Field(a, 1));
    return Val_int(x + y);
}}
""",
    )


def filler_callback(i: int) -> GlueUnit:
    return _unit(
        f"external invoke_{i} : (int -> int) -> int -> int = \"ml_invoke_{i}\"",
        f"""
value ml_invoke_{i}(value cb, value n)
{{
    CAMLparam2(cb, n);
    CAMLlocal1(r);
    r = caml_callback(cb, n);
    CAMLreturn(r);
}}
""",
    )


def filler_nested_sum(i: int) -> GlueUnit:
    return _unit(
        f"""
type item_{i} = Missing_{i} | Present_{i} of int option
external amount_{i} : item_{i} -> int = "ml_amount_{i}"
""",
        f"""
value ml_amount_{i}(value it)
{{
    if (Is_long(it)) return Val_int(-1);
    if (Tag_val(it) == 0) {{
        value opt = Field(it, 0);
        if (Is_block(opt)) return Field(opt, 0);
        return Val_int(0);
    }}
    return Val_int(-2);
}}
""",
    )


def filler_error_goto(i: int) -> GlueUnit:
    return _unit(
        f'external attempt_{i} : int -> int = "ml_attempt_{i}"',
        f"""
value ml_attempt_{i}(value n)
{{
    int rc;
    int h = open_handle_{i}(Int_val(n));
    if (h < 0) goto fail;
    rc = use_handle_{i}(h);
    if (rc < 0) goto fail;
    close_handle_{i}(h);
    return Val_int(rc);
fail:
    return Val_int(-1);
}}
""",
    )


def filler_exception_path(i: int) -> GlueUnit:
    return _unit(
        f'external must_{i} : int -> int = "ml_must_{i}"',
        f"""
value ml_must_{i}(value n)
{{
    int k = Int_val(n);
    if (k < 0) caml_invalid_argument("must_{i}: negative");
    return Val_int(k);
}}
""",
    )


FILLER_TEMPLATES: tuple[Callable[[int], GlueUnit], ...] = (
    filler_int_binop,
    filler_enum_dispatch,
    filler_variant_dispatch,
    filler_tuple_get,
    filler_record_get,
    filler_ref_update,
    filler_option_get,
    filler_string_length,
    filler_protected_alloc,
    filler_custom_handle,
    filler_list_head,
    filler_copy_string,
    filler_bool_not,
    filler_int_loop,
    filler_library_call,
    filler_float_add,
    filler_array_head,
    filler_callback,
    filler_nested_sum,
    filler_error_goto,
    filler_exception_path,
)
