"""The central type repository (paper §5.1).

As each OCaml source file is analyzed the repository is updated with the
newly extracted type information, beginning with a pre-generated repository
for the standard library.  Once all files are in, :func:`build_initial_env`
performs phase one of the analysis: each ``external`` is translated by
``Φ`` into a C function type, producing the initial environment ``Γ_I``
consumed by the C phase.

The repository is built once per host side, and a C unit only needs the
externals it names.  So the repository keeps a name index next to the
externals (:attr:`TypeRepository.by_c_name`), and ``build_initial_env``
can translate just the externals a unit's identifiers select.  The cost
of that lookup follows the unit, not the host.

Alias and opaque resolution happens here: a named type is replaced by its
definition body (with type parameters substituted) so that C code sees the
concrete physical representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core.checker import InitialEnv, PolyParam
from ..core.srctypes import (
    MLSrcType,
    SArrow,
    SConstrApp,
    SConstructor,
    SField,
    SOpaque,
    SPolyVariant,
    SRecord,
    SSum,
    STuple,
    SVar,
    arrow_chain,
)
from ..core.translate import TranslationError, Translator
from ..core.types import C_INT, CFun, CPtr, CValue, NOGC, fresh_mt


def bytecode_stub_type(native: CFun) -> CFun:
    """The uniform bytecode-stub signature ``value f(value *argv, int argn)``.

    The stub shares the native function's effect (it is the same code) but
    its argument array erases the per-parameter OCaml types.
    """
    return CFun(
        params=(CPtr(CValue(fresh_mt())), C_INT),
        result=native.result,
        effect=native.effect,
    )
from ..source import SourceFile
from .ast import ExternalDecl, MLUnit, TypeDecl
from .parser import parse_ml, parse_ml_text
from .stdlib import stdlib_declarations


def substitute(body: MLSrcType, mapping: dict[str, MLSrcType]) -> MLSrcType:
    """Replace type variables by their arguments in a definition body."""
    if isinstance(body, SVar):
        return mapping.get(body.name, body)
    if isinstance(body, SArrow):
        return SArrow(
            substitute(body.param, mapping), substitute(body.result, mapping)
        )
    if isinstance(body, STuple):
        return STuple(tuple(substitute(e, mapping) for e in body.elems))
    if isinstance(body, SConstrApp):
        return SConstrApp(
            name=body.name,
            args=tuple(substitute(a, mapping) for a in body.args),
        )
    if isinstance(body, SSum):
        return SSum(
            tuple(
                SConstructor(
                    name=c.name,
                    args=tuple(substitute(a, mapping) for a in c.args),
                )
                for c in body.constructors
            )
        )
    if isinstance(body, SRecord):
        return SRecord(
            tuple(
                SField(
                    name=f.name,
                    type=substitute(f.type, mapping),
                    mutable=f.mutable,
                )
                for f in body.fields
            )
        )
    if isinstance(body, SPolyVariant):
        return SPolyVariant(
            tuple(
                SConstructor(
                    name=t.name,
                    args=tuple(substitute(a, mapping) for a in t.args),
                )
                for t in body.tags
            )
        )
    return body


@dataclass
class TypeRepository:
    """Named type declarations plus the externals gathered so far."""

    types: dict[str, TypeDecl] = field(default_factory=dict)
    externals: list[ExternalDecl] = field(default_factory=list)
    #: C name (native or bytecode) -> positions in :attr:`externals`,
    #: in declaration order; kept in step by :meth:`add_unit`
    by_c_name: dict[str, list[int]] = field(default_factory=dict)

    @classmethod
    def with_stdlib(cls) -> "TypeRepository":
        repo = cls()
        for decl in stdlib_declarations():
            repo.types[decl.name] = decl
        return repo

    # -- updates ---------------------------------------------------------------

    def add_unit(self, unit: MLUnit) -> None:
        for decl in unit.types:
            existing = self.types.get(decl.name)
            if existing is not None and decl.is_opaque and not existing.is_opaque:
                # an .mli hiding a type already known concretely: keep the
                # concrete body (paper: opaque types are replaced by the
                # types they hide, when available)
                continue
            self.types[decl.name] = decl
        for external in unit.externals:
            position = len(self.externals)
            self.externals.append(external)
            for c_name in external_c_names(external):
                self.by_c_name.setdefault(c_name, []).append(position)

    def add_source(self, source: SourceFile) -> None:
        self.add_unit(parse_ml(source))

    def add_text(self, text: str, filename: str = "<string>") -> None:
        self.add_unit(parse_ml_text(text, filename))

    def externals_named(self, names: Iterable[str]) -> list[ExternalDecl]:
        """The externals bound to any of ``names``, in declaration order.

        Looks each name up in :attr:`by_c_name`, so the cost follows
        ``names`` and the hits, never the number of externals.
        """
        index = self.by_c_name
        hits = {position for name in names for position in index.get(name, ())}
        return [self.externals[position] for position in sorted(hits)]

    # -- resolution ---------------------------------------------------------------

    def resolve(
        self, name: str, args: tuple[MLSrcType, ...]
    ) -> Optional[MLSrcType]:
        """Resolve a type-constructor application to its definition body."""
        decl = self.types.get(name)
        if decl is None:
            return None
        if decl.is_opaque:
            return SOpaque(name=name)
        if len(decl.params) != len(args):
            # arity mismatch — treat as opaque rather than crash; the C
            # phase will then refuse to look inside it
            return SOpaque(name=name)
        assert decl.body is not None
        mapping = dict(zip(decl.params, args))
        return substitute(decl.body, mapping)


def external_c_names(external: ExternalDecl) -> tuple[str, ...]:
    """The C symbols an external binds: its name, plus the second name
    of the arity > 5 convention."""
    return tuple(
        name for name in (external.c_name, external.c_name_bytecode) if name
    )


def build_initial_env(
    repository: TypeRepository, names: Optional[Iterable[str]] = None
) -> InitialEnv:
    """Phase one (paper §3.1): translate externals via ``Φ``.

    With ``names`` (the identifiers of one C unit), only the externals
    bound to one of them are translated.  An external the unit never
    names cannot constrain its entry, so leaving it out changes nothing;
    extra names only add entries.  Without ``names`` every external is
    translated.  Either way the entries keep declaration order, share
    one table of opaque representations, and get fresh inference
    variables on every call.
    """
    env = InitialEnv()
    opaque_reprs: dict = {}
    externals = (
        repository.externals
        if names is None
        else repository.externals_named(names)
    )
    for external in externals:
        saw_poly_variant = False

        def on_poly_variant(_variant: SPolyVariant) -> None:
            nonlocal saw_poly_variant
            saw_poly_variant = True

        translator = Translator(
            resolve=repository.resolve,
            on_poly_variant=on_poly_variant,
            opaque_reprs=opaque_reprs,
        )
        try:
            fn_ct = translator.phi(external.mltype)
        except TranslationError:
            continue
        if external.noalloc:
            fn_ct = CFun(params=fn_ct.params, result=fn_ct.result, effect=NOGC)
        if external.c_name_bytecode:
            # arity > 5 convention: `external f : ... = "f_bc" "f_nat"` —
            # the first name is the bytecode stub with the uniform
            # signature `value f_bc(value *argv, int argn)`, the second is
            # the native stub with one parameter per argument.
            env.functions[external.c_name_bytecode] = fn_ct
            env.spans[external.c_name_bytecode] = external.span
            env.functions[external.c_name] = bytecode_stub_type(fn_ct)
            env.spans[external.c_name] = external.span
        else:
            env.functions[external.c_name] = fn_ct
            env.spans[external.c_name] = external.span
        if saw_poly_variant:
            env.poly_variant_users.add(external.c_name)
        # record bare-'a parameters for the §5.2 polymorphism audit
        chain = arrow_chain(external.mltype)
        for index, param in enumerate(chain[:-1]):
            if isinstance(param, SVar):
                var = translator._tyvars.get(param.name)
                if var is not None:
                    env.poly_params.append(
                        PolyParam(
                            c_name=external.c_name,
                            param_index=index,
                            var=var,
                            span=external.span,
                        )
                    )
    return env
