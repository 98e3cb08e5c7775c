"""Type inference for C expressions — paper Figure 6.

Judgments have the form ``Γ, P ⊢ e : ct[B{I}]{T}``.  The ``ct`` component
is solved by unification (shared across program points); the ``[B{I}]{T}``
qualifier is computed flow-sensitively by the caller (:mod:`stmts`).

Rule violations raise :class:`RuleError`, which the statement layer turns
into diagnostics and recovers from, so one bad expression does not sink the
whole function.  Some rules do not fail but *degrade*: they report
imprecision (unknown offsets, address-taken values, function pointers) and
continue with ``⊤`` information, mirroring the paper's implementation
(§5.1, §5.2 "Imprecision" column).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..cfront.ir import (
    AOp,
    AddrOf,
    CastExp,
    Deref,
    Expr,
    IntLit,
    IntValExp,
    PtrAdd,
    StrLit,
    ValIntExp,
    VarExp,
)
from ..diagnostics import DiagnosticBag, Kind
from ..source import DUMMY_SPAN, Span
from .constraints import EffectConstraintStore, PsiConstraintStore
from .environment import Entry, TypeEnv
from .lattice import (
    BOTTOM_QUALIFIER,
    BOXED,
    FLAT_TOP,
    Qualifier,
    TOP_B,
    UNBOXED,
    UNKNOWN_QUALIFIER,
    flat_aop,
    is_const,
    qualifier_for_int,
)
from .srctypes import CSrcPtr, CSrcType, CSrcValue, CSrcVoid
from .translate import eta
from .types import (
    C_INT,
    CFun,
    CPtr,
    CType,
    CValue,
    CInt,
    GCEffect,
    MLType,
    MTCustom,
    MTRepr,
    MTVar,
    Pi,
    PiVar,
    PsiConst,
    Sigma,
    SigmaVar,
    fresh_mt,
    fresh_pi_row,
    fresh_psi,
    fresh_sigma_row,
)
from .unify import UnificationError, Unifier


class RuleError(Exception):
    """A Figure 6/7 rule failed; carries the diagnostic kind and message."""

    def __init__(self, kind: Kind, message: str, span: Span = DUMMY_SPAN):
        self.kind = kind
        self.message = message
        self.span = span
        super().__init__(message)


@dataclass
class Options:
    """Analysis switches; the defaults are the paper's configuration.

    The ablation tests flip these off to check what each piece of the
    design contributes to the Figure 9 counts.
    """

    flow_sensitive: bool = True
    gc_effects: bool = True
    check_casts: bool = True


@dataclass(frozen=True)
class AllocTag:
    """Structured result-tag spec for an allocator.

    Exactly one field is set: ``literal`` pins the fresh block's tag to a
    constant; ``from_arg`` reads it from the call's argument at that index
    (``caml_alloc(n, t)`` takes the tag as its second argument).  The
    dialect tables carry the legacy ``int | "argN"`` spelling at the
    boundary protocol; :func:`normalize_alloc_tags` converts it once at
    checker construction so the per-call-site path stays structural.
    """

    literal: Optional[int] = None
    from_arg: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.literal is None) == (self.from_arg is None):
            raise ValueError("AllocTag needs exactly one of literal/from_arg")


def normalize_alloc_tags(raw: dict[str, int | str]) -> dict[str, AllocTag]:
    """Convert a dialect's allocator table to the structured form.

    Accepts the boundary-protocol spelling — a literal tag or an
    ``"argN"`` string naming the argument index that carries the tag.
    """
    normalized: dict[str, AllocTag] = {}
    for name, spec in raw.items():
        if isinstance(spec, AllocTag):
            normalized[name] = spec
        elif isinstance(spec, int):
            normalized[name] = AllocTag(literal=spec)
        elif isinstance(spec, str) and spec.startswith("arg"):
            normalized[name] = AllocTag(from_arg=int(spec[3:]))
        else:
            raise ValueError(f"bad alloc-tag spec for `{name}`: {spec!r}")
    return normalized


@dataclass
class PendingGCCheck:
    """A conditional protection obligation from one call site (App rule).

    Discharged after effect solving: if the callee may GC, every candidate
    whose final type is a heap pointer must have been in ``P``.
    """

    span: Span
    function: str
    callee: str
    effect: GCEffect
    candidates: list[tuple[str, CType]]


@dataclass
class Context:
    """Everything the expression/statement rules share for one program."""

    unifier: Unifier
    psi_constraints: PsiConstraintStore
    effect_constraints: EffectConstraintStore
    diagnostics: DiagnosticBag
    functions: dict[str, Entry] = field(default_factory=dict)
    #: functions whose type is instantiated afresh at every call site
    polymorphic: set[str] = field(default_factory=set)
    #: extra bindings visible in every function (scalar globals)
    global_bindings: dict[str, Entry] = field(default_factory=dict)
    options: Options = field(default_factory=Options)
    pending_gc_checks: list[PendingGCCheck] = field(default_factory=list)
    #: names of variables pinned to ⊤ because their address was taken (§5.1)
    address_taken: set[str] = field(default_factory=set)
    #: dialect override of the allocator→result-tag table, normalized to
    #: :class:`AllocTag` (None = OCaml's
    #: :data:`repro.cfront.macros.ALLOC_RESULT_TAG`)
    alloc_result_tags: Optional[dict[str, AllocTag]] = None
    _reported: set[tuple[Kind, str, int, str]] = field(default_factory=set)

    def report(
        self, kind: Kind, span: Span, message: str, function: Optional[str] = None
    ) -> None:
        """Emit a diagnostic once (fixpoint iteration revisits statements)."""
        key = (kind, span.filename, span.start.offset, message)
        if key in self._reported:
            return
        self._reported.add(key)
        self.diagnostics.emit(kind, span, message, function=function)


_INT_OPS: dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": lambda a, b: a // b if b else 0,
    "%": lambda a, b: a % b if b else 0,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": operator.lshift,
    ">>": operator.rshift,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}


class ExprTyper:
    """Implements the Figure 6 expression judgments against a context."""

    def __init__(self, ctx: Context, function: str):
        self.ctx = ctx
        self.function = function

    # -- helpers on representational structure ------------------------------

    def as_repr(self, mt: MLType, span: Span) -> MTRepr:
        """Force ``mt`` to be a representational type ``(Ψ, Σ)``."""
        resolved = self.ctx.unifier.resolve_mt(mt)
        if isinstance(resolved, MTRepr):
            return resolved
        if isinstance(resolved, MTVar):
            fresh = MTRepr(psi=fresh_psi(), sigma=fresh_sigma_row())
            self.ctx.unifier.unify_mt(resolved, fresh)
            return fresh
        raise RuleError(
            Kind.TYPE_MISMATCH,
            f"OCaml value of type `{resolved}` used as structured data",
            span,
        )

    def sigma_product_at(self, repr_type: MTRepr, tag: int, span: Span) -> Pi:
        """Ensure ``Σ`` has a product at index ``tag`` and return it.

        Grows open rows (this is how sum types grow during inference); on
        closed rows that are too short, raises a tag-range error.
        """
        unifier = self.ctx.unifier
        sigma = unifier.resolve_sigma(repr_type.sigma)
        if len(sigma.prods) <= tag:
            needed = Sigma(
                prods=tuple(fresh_pi_row() for _ in range(tag + 1)),
                tail=SigmaVar(),
            )
            try:
                unifier.unify_sigma(sigma, needed)
            except UnificationError as exc:
                raise RuleError(
                    Kind.TAG_OUT_OF_RANGE,
                    f"block tag {tag} out of range: {exc.reason}",
                    span,
                ) from exc
            sigma = unifier.resolve_sigma(sigma)
        return sigma.prods[tag]

    def pi_elem_at(self, pi: Pi, index: int, span: Span) -> MLType:
        """Ensure a product has an element at ``index`` and return its type."""
        unifier = self.ctx.unifier
        resolved = unifier.resolve_pi(pi)
        if len(resolved.elems) <= index:
            needed = Pi(
                elems=tuple(fresh_mt() for _ in range(index + 1)),
                tail=PiVar(),
            )
            try:
                unifier.unify_pi(resolved, needed)
            except UnificationError as exc:
                raise RuleError(
                    Kind.BAD_FIELD_ACCESS,
                    f"field {index} out of range: {exc.reason}",
                    span,
                ) from exc
            resolved = unifier.resolve_pi(resolved)
        return resolved.elems[index]

    # -- the judgment --------------------------------------------------------

    def type_expr(self, env: TypeEnv, exp: Expr) -> tuple[CType, Qualifier]:
        """``Γ, P ⊢ e : ct[B{I}]{T}``."""
        # type-keyed dispatch instead of an isinstance ladder: this is the
        # single hottest entry point of the inference
        kind = type(exp)
        if kind is VarExp:
            return self._type_var(env, exp)
        if kind is IntLit:
            # (Int Exp)
            return C_INT, qualifier_for_int(exp.value)
        if kind is Deref:
            return self._type_deref(env, exp)
        if kind is AOp:
            return self._type_aop(env, exp)
        if kind is PtrAdd:
            return self._type_ptr_add(env, exp)
        if kind is CastExp:
            return self._type_cast(env, exp)
        if kind is ValIntExp:
            return self._type_val_int(env, exp)
        if kind is IntValExp:
            return self._type_int_val(env, exp)
        if kind is AddrOf:
            return self._type_addr_of(env, exp)
        if kind is StrLit:
            return CPtr(C_INT), UNKNOWN_QUALIFIER
        # every IR expression node carries a span (cfront.ir dataclasses)
        raise RuleError(Kind.TYPE_MISMATCH, f"unsupported expression `{exp}`", exp.span)

    # (Var Exp)
    def _type_var(self, env: TypeEnv, exp: VarExp) -> tuple[CType, Qualifier]:
        entry = env.get(exp.name)
        if entry is None:
            fn_entry = self.ctx.functions.get(exp.name)
            if fn_entry is not None:
                return fn_entry.ct, UNKNOWN_QUALIFIER
            raise RuleError(
                Kind.TYPE_MISMATCH, f"unknown identifier `{exp.name}`", exp.span
            )
        if exp.name in self.ctx.address_taken:
            # §5.1: address-taken locals are conservatively ⊤ everywhere.
            return entry.ct, UNKNOWN_QUALIFIER
        return entry.ct, entry.qual

    def _type_deref(self, env: TypeEnv, exp: Deref) -> tuple[CType, Qualifier]:
        base_ct, base_qual = self.type_expr(env, exp.exp)
        base_ct = self._shallow(base_ct)
        if isinstance(base_ct, CPtr):
            # (C Deref Exp)
            return base_ct.target, UNKNOWN_QUALIFIER
        if isinstance(base_ct, CValue):
            return self._deref_value(base_ct, base_qual, exp.span)
        raise RuleError(
            Kind.TYPE_MISMATCH,
            f"dereference of non-pointer type `{base_ct}`",
            exp.span,
        )

    def _deref_value(
        self, ct: CValue, qual: Qualifier, span: Span
    ) -> tuple[CType, Qualifier]:
        if qual.is_bottom:
            # unreachable code imposes no constraints
            return CValue(fresh_mt()), BOTTOM_QUALIFIER
        repr_type = self.as_repr(ct.mt, span)
        offset = qual.offset
        if not is_const(offset):
            self.ctx.report(
                Kind.UNKNOWN_OFFSET,
                span,
                "read from a structured block at a statically unknown offset",
                self.function,
            )
            return CValue(fresh_mt()), UNKNOWN_QUALIFIER
        if qual.boxedness is BOXED and is_const(qual.tag):
            # (Val Deref Exp): tag m and offset n both known.
            prod = self.sigma_product_at(repr_type, qual.tag, span)
            elem = self.pi_elem_at(prod, offset, span)
            return CValue(elem), UNKNOWN_QUALIFIER
        if qual.boxedness is UNBOXED:
            raise RuleError(
                Kind.BAD_FIELD_ACCESS,
                "Field access on a value known to be unboxed",
                span,
            )
        if qual.boxedness is BOXED:
            # Known boxed but untested tag: fine when only one constructor
            # is boxed (the option/list idiom after Is_long/Is_block).
            prod = self._single_product(repr_type, span, "Field access")
            elem = self.pi_elem_at(prod, offset, span)
            return CValue(elem), UNKNOWN_QUALIFIER
        # (Val Deref Tuple Exp): boxedness not established; only sound for
        # types with exactly one non-nullary constructor and no tag needed.
        self._require_pure_tuple(repr_type, span, "Field access")
        prod = self.sigma_product_at(repr_type, 0, span)
        elem = self.pi_elem_at(prod, offset, span)
        return CValue(elem), UNKNOWN_QUALIFIER

    def _single_product(self, repr_type: MTRepr, span: Span, what: str) -> Pi:
        """Access at an untested tag: only the sole product can be meant."""
        sigma = self.ctx.unifier.resolve_sigma(repr_type.sigma)
        if sigma.is_closed and len(sigma.prods) > 1:
            raise RuleError(
                Kind.BAD_FIELD_ACCESS,
                f"{what} without a tag test on a sum with "
                f"{len(sigma.prods)} non-nullary constructors",
                span,
            )
        return self.sigma_product_at(repr_type, 0, span)

    def _require_pure_tuple(self, repr_type: MTRepr, span: Span, what: str) -> None:
        """The tuple rules need Ψ = 0 and a single product (no tag choice)."""
        unifier = self.ctx.unifier
        psi = unifier.resolve_psi(repr_type.psi)
        sigma = unifier.resolve_sigma(repr_type.sigma)
        if (
            isinstance(psi, PsiConst)
            and psi.count == 1
            and sigma.is_closed
            and len(sigma.prods) == 1
        ):
            # exactly the shape of `t option` — the paper found glue code
            # dereferencing an option as if it were its payload (§5.2)
            raise RuleError(
                Kind.OPTION_MISUSE,
                f"{what} treats an option value as its payload without "
                "testing for None",
                span,
            )
        try:
            unifier.unify_psi(repr_type.psi, PsiConst(0))
        except UnificationError as exc:
            raise RuleError(
                Kind.BAD_FIELD_ACCESS,
                f"{what} without a boxedness test on a value that may be "
                f"unboxed ({exc.reason})",
                span,
            ) from exc
        sigma = unifier.resolve_sigma(repr_type.sigma)
        if len(sigma.prods) > 1:
            raise RuleError(
                Kind.BAD_FIELD_ACCESS,
                f"{what} without a tag test on a sum with several "
                "non-nullary constructors",
                span,
            )

    # (AOP Exp)
    def _type_aop(self, env: TypeEnv, exp: AOp) -> tuple[CType, Qualifier]:
        left_ct, left_qual = self.type_expr(env, exp.left)
        right_ct, right_qual = self.type_expr(env, exp.right)
        for side_ct, side in ((self._shallow(left_ct), exp.left), (self._shallow(right_ct), exp.right)):
            if isinstance(side_ct, CValue):
                mt = self.ctx.unifier.resolve_mt(side_ct.mt)
                if isinstance(mt, MTCustom):
                    # §5.2: `(t*)v + 1` vs `(t*)(v + sizeof(t*))` — pointer
                    # arithmetic disguised as integer arithmetic.  Sound to
                    # reject, but the code is usually correct: the paper's
                    # main false-positive source.
                    self.ctx.report(
                        Kind.DISGUISED_PTR_ARITH,
                        exp.span,
                        f"arithmetic on custom value `{side}`; if this is "
                        "disguised pointer arithmetic the code may be correct",
                        self.function,
                    )
                    return C_INT, UNKNOWN_QUALIFIER
                raise RuleError(
                    Kind.TYPE_MISMATCH,
                    f"arithmetic on OCaml value `{side}` without Int_val",
                    exp.span,
                )
            if isinstance(side_ct, (CPtr, CFun)):
                # Pointer comparisons are fine; other arithmetic is outside
                # the formal system — degrade to ⊤ int.
                return C_INT, UNKNOWN_QUALIFIER
        op = _INT_OPS.get(exp.op)
        if op is None:
            return C_INT, UNKNOWN_QUALIFIER
        tag = flat_aop(op, left_qual.tag, right_qual.tag)
        return C_INT, Qualifier(TOP_B, 0, tag)

    def _type_ptr_add(self, env: TypeEnv, exp: PtrAdd) -> tuple[CType, Qualifier]:
        base_ct, base_qual = self.type_expr(env, exp.base)
        offset_ct, offset_qual = self.type_expr(env, exp.offset)
        base_ct = self._shallow(base_ct)
        if isinstance(base_ct, CPtr):
            # (Add C Exp)
            return base_ct, UNKNOWN_QUALIFIER
        if not isinstance(base_ct, CValue):
            raise RuleError(
                Kind.TYPE_MISMATCH,
                f"pointer arithmetic on non-pointer `{exp.base}`",
                exp.span,
            )
        base_mt = self.ctx.unifier.resolve_mt(base_ct.mt)
        if isinstance(base_mt, MTCustom):
            # `(t*)(v + sizeof(t*))` — the value is custom C data and the
            # arithmetic is really pointer arithmetic in disguise (§5.2).
            self.ctx.report(
                Kind.DISGUISED_PTR_ARITH,
                exp.span,
                f"arithmetic on custom value `{exp.base}`; likely disguised "
                "pointer arithmetic",
                self.function,
            )
            return C_INT, UNKNOWN_QUALIFIER
        if base_qual.is_bottom:
            return base_ct, BOTTOM_QUALIFIER
        repr_type = self.as_repr(base_ct.mt, exp.span)
        if not (is_const(base_qual.offset) and is_const(offset_qual.tag)):
            # Offset statically unknown: the paper's implementation emits an
            # imprecision warning and gives up on this value (§5.2).
            self.ctx.report(
                Kind.UNKNOWN_OFFSET,
                exp.span,
                "pointer arithmetic on a value with a statically unknown "
                "offset",
                self.function,
            )
            return base_ct, UNKNOWN_QUALIFIER
        new_offset = base_qual.offset + offset_qual.tag
        if new_offset < 0:
            raise RuleError(
                Kind.BAD_FIELD_ACCESS,
                f"negative block offset {new_offset}",
                exp.span,
            )
        if base_qual.boxedness is BOXED and is_const(base_qual.tag):
            # (Add Val Exp): all indices statically known; the resulting
            # pointer must itself be dereferenceable.
            prod = self.sigma_product_at(repr_type, base_qual.tag, exp.span)
            self.pi_elem_at(prod, new_offset, exp.span)
            return base_ct, Qualifier(BOXED, new_offset, base_qual.tag)
        if base_qual.boxedness is UNBOXED:
            raise RuleError(
                Kind.BAD_FIELD_ACCESS,
                "pointer arithmetic on a value known to be unboxed",
                exp.span,
            )
        if base_qual.boxedness is BOXED:
            prod = self._single_product(repr_type, exp.span, "pointer arithmetic")
            self.pi_elem_at(prod, new_offset, exp.span)
            return base_ct, Qualifier(BOXED, new_offset, 0)
        # Untested boxedness: the paper's omitted companion of (Val Deref
        # Tuple Exp) — sound only for single-constructor boxed types.
        self._require_pure_tuple(repr_type, exp.span, "pointer arithmetic")
        prod = self.sigma_product_at(repr_type, 0, exp.span)
        self.pi_elem_at(prod, new_offset, exp.span)
        return base_ct, Qualifier(TOP_B, new_offset, FLAT_TOP)

    def _type_cast(self, env: TypeEnv, exp: CastExp) -> tuple[CType, Qualifier]:
        inner_ct, inner_qual = self.type_expr(env, exp.exp)
        inner_ct = self._shallow(inner_ct)
        target_src = exp.ctype

        if isinstance(target_src, CSrcValue):
            if isinstance(inner_ct, CPtr):
                # (Custom Exp): C pointer injected into OCaml as custom data.
                return (
                    CValue(MTCustom(inner_ct)),
                    UNKNOWN_QUALIFIER,
                )
            if isinstance(inner_ct, CValue):
                return inner_ct, inner_qual  # identity cast
            if self.ctx.options.check_casts:
                self.ctx.report(
                    Kind.VALUE_CAST,
                    exp.span,
                    f"cast of non-pointer `{exp.exp}` to value without Val_int",
                    self.function,
                )
            return CValue(fresh_mt()), UNKNOWN_QUALIFIER

        target_ct = eta(target_src)
        if isinstance(inner_ct, CValue):
            # (Val Cast Exp): the only legal cast out of value is back to
            # the custom C type the value carries.
            if self._is_void_ptr(target_src):
                # §5.1 heuristic: casts through void* are ignored.
                return target_ct, UNKNOWN_QUALIFIER
            mt = self.ctx.unifier.resolve_mt(inner_ct.mt)
            try:
                self.ctx.unifier.unify_mt(mt, MTCustom(target_ct))
            except UnificationError as exc:
                raise RuleError(
                    Kind.VALUE_CAST,
                    f"cast of OCaml value to `{target_src}`: {exc.reason}",
                    exp.span,
                ) from exc
            return target_ct, UNKNOWN_QUALIFIER
        # C-to-C casts: keep the target type, drop precision.  Sign/width
        # differences are ignored per §5.1.
        return target_ct, UNKNOWN_QUALIFIER

    @staticmethod
    def _is_void_ptr(ctype: CSrcType) -> bool:
        return isinstance(ctype, CSrcPtr) and isinstance(ctype.target, CSrcVoid)

    # (Val Int Exp)
    def _type_val_int(self, env: TypeEnv, exp: ValIntExp) -> tuple[CType, Qualifier]:
        inner_ct, inner_qual = self.type_expr(env, exp.exp)
        inner_ct = self._shallow(inner_ct)
        if isinstance(inner_ct, CValue):
            raise RuleError(
                Kind.BAD_VAL_INT,
                f"Val_int applied to `{exp.exp}` which is already an OCaml "
                "value (did you mean Int_val?)",
                exp.span,
            )
        if not isinstance(inner_ct, CInt):
            raise RuleError(
                Kind.BAD_VAL_INT,
                f"Val_int applied to non-integer `{exp.exp}` of type `{inner_ct}`",
                exp.span,
            )
        psi = fresh_psi()
        result = MTRepr(psi=psi, sigma=fresh_sigma_row())
        self.ctx.psi_constraints.require(
            inner_qual.tag,
            psi,
            exp.span,
            f"Val_int({exp.exp})",
            self.function,
        )
        return CValue(result), Qualifier(UNBOXED, 0, inner_qual.tag)

    # (Int Val Exp)
    def _type_int_val(self, env: TypeEnv, exp: IntValExp) -> tuple[CType, Qualifier]:
        inner_ct, inner_qual = self.type_expr(env, exp.exp)
        inner_ct = self._shallow(inner_ct)
        if not isinstance(inner_ct, CValue):
            raise RuleError(
                Kind.BAD_INT_VAL,
                f"Int_val applied to `{exp.exp}` of C type `{inner_ct}` "
                "(did you mean Val_int?)",
                exp.span,
            )
        if inner_qual.boxedness is BOXED:
            raise RuleError(
                Kind.BAD_INT_VAL,
                f"Int_val applied to `{exp.exp}` which is boxed here",
                exp.span,
            )
        repr_type = self.as_repr(inner_ct.mt, exp.span)
        if inner_qual.boxedness is not UNBOXED:
            # Untested value: sound only if the type has unboxed inhabitants.
            psi = self.ctx.unifier.resolve_psi(repr_type.psi)
            if isinstance(psi, PsiConst) and psi.count == 0:
                raise RuleError(
                    Kind.BAD_INT_VAL,
                    f"Int_val applied to `{exp.exp}` whose type has no "
                    "unboxed values (it is always a pointer)",
                    exp.span,
                )
        return C_INT, Qualifier(TOP_B, 0, inner_qual.tag)

    def _type_addr_of(self, env: TypeEnv, exp: AddrOf) -> tuple[CType, Qualifier]:
        entry = env.get(exp.name)
        if entry is None:
            raise RuleError(
                Kind.TYPE_MISMATCH, f"address of unknown variable `{exp.name}`", exp.span
            )
        ct = self._shallow(entry.ct)
        if isinstance(ct, CValue):
            self.ctx.report(
                Kind.ADDRESS_TAKEN,
                exp.span,
                f"address of value variable `{exp.name}` is taken; the "
                "analysis cannot track it",
                self.function,
            )
        self.ctx.address_taken.add(exp.name)
        return CPtr(entry.ct), UNKNOWN_QUALIFIER

    # -- small utilities -----------------------------------------------------

    def _shallow(self, ct: CType) -> CType:
        """Resolve one level so isinstance dispatch sees through mt vars."""
        if isinstance(ct, CValue):
            return CValue(self.ctx.unifier.resolve_mt(ct.mt))
        return ct
