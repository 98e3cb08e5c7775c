"""The OCaml-to-C FFI as a :class:`~repro.boundary.BoundaryDialect`.

This is the paper's original configuration, repackaged: ``Γ_I`` comes from
``external`` declarations in ``.ml``/``.mli`` sources via ``Φ``, the
runtime table is ``caml/mlvalues.h``'s entry points, and the protection
discipline is ``CAMLparam``/``CAMLlocal``/``CAMLreturn``.

§5.1's two phases split along the same line as the corpus.  The host
phase runs once per host fingerprint: the *repository*, with its index
from C names to externals, is memoized per process and in the seed
artifact tier, and :meth:`OCamlDialect.host_summary` gives the linker
every ``external`` binding once per corpus.  The unit phase costs what
the unit costs: ``Γ_I`` holds only the externals whose C names the unit's
sources mention, rebuilt per unit so fresh inference variables never
leak between units (the unifier must not see another unit's bindings),
and the unit summary keeps only the bindings of those names.
"""

from __future__ import annotations

from ..boundary import HOST_UNIT, register_dialect, run_pipeline, unit_names
from ..cfront.ast import TranslationUnit
from ..cfront.ir import ProgramIR
from ..cfront.lower import lower_unit
from ..cfront.macros import (
    ALLOC_RESULT_TAG,
    POLYMORPHIC_BUILTINS,
    builtin_entries,
)
from ..cfront.parser import parse_c
from ..core.checker import AnalysisReport, InitialEnv
from ..core.environment import Entry
from ..diagnostics import Diagnostic
from ..engine.jobs import CheckRequest, repository_fingerprint
from ..linker.extract import summarize_units
from ..linker.summary import InterfaceSummary, SymbolRow
from ..seeds import HostSeedMemo
from ..source import SourceFile
from .ast import ExternalDecl
from .repository import TypeRepository, build_initial_env, external_c_names

#: Shared memo for parsed repositories: in-process table over the seed
#: artifact tier over rebuild (see :mod:`repro.seeds`).  A fresh worker
#: process unpickles the repository a sibling already parsed instead of
#: re-deriving it from the ``.ml`` sources.
_REPOSITORY_SEEDS = HostSeedMemo("ocaml")


class OCamlDialect:
    """The paper's OCaml FFI boundary."""

    name = "ocaml"
    host_suffixes = (".ml", ".mli")

    # -- seeds ---------------------------------------------------------------

    def builtin_entries(self) -> dict[str, Entry]:
        return builtin_entries()

    def polymorphic_builtins(self) -> frozenset[str]:
        return POLYMORPHIC_BUILTINS

    def global_entries(self) -> dict[str, Entry]:
        return {}

    def alloc_result_tags(self) -> dict[str, int | str]:
        return dict(ALLOC_RESULT_TAG)

    # -- pipeline hooks ------------------------------------------------------

    def repository_for(self, request: CheckRequest) -> TypeRepository:
        fingerprint = repository_fingerprint(request.ocaml_sources)

        def build() -> TypeRepository:
            repo = TypeRepository.with_stdlib()
            for source in request.ocaml_sources:
                repo.add_source(source)
            return repo

        return _REPOSITORY_SEEDS.get(fingerprint, build)

    #: the seed-warmup entry point (same contract for every dialect
    #: with a parsed host side; see :func:`repro.seeds.warmup_hosts`)
    host_interface_for = repository_for

    def parse(self, source: SourceFile) -> TranslationUnit:
        return parse_c(source)

    def initial_env(
        self, request: CheckRequest, units: list[TranslationUnit]
    ) -> InitialEnv:
        return build_initial_env(
            self.repository_for(request), unit_names(request)
        )

    def lower(self, unit: TranslationUnit) -> ProgramIR:
        return lower_unit(unit)

    def passes(
        self, request: CheckRequest, units: list[TranslationUnit]
    ) -> list[Diagnostic]:
        # the paper's checks all live in the shared checker
        return []

    def analyze(self, request: CheckRequest) -> AnalysisReport:
        return run_pipeline(self, request)

    def summarize(self, request: CheckRequest, units) -> InterfaceSummary:
        """Link-relevant slice: C exports/externs plus the ``external``
        bindings of the C symbols this unit mentions."""
        summary = InterfaceSummary(unit=request.name, dialect=self.name)
        ignore = frozenset(builtin_entries()) | POLYMORPHIC_BUILTINS
        summarize_units(summary, units, ignore=ignore)
        names = unit_names(request)
        for external in self.repository_for(request).externals_named(names):
            summary.bindings.extend(
                row for row in _binding_rows(external) if row.symbol in names
            )
        return summary

    def host_summary(self, request: CheckRequest) -> InterfaceSummary:
        """Every ``external`` binding of the host side, once per corpus."""
        summary = InterfaceSummary(unit=HOST_UNIT, dialect=self.name)
        for external in self.repository_for(request).externals:
            summary.bindings.extend(_binding_rows(external))
        return summary


def _binding_rows(external: ExternalDecl) -> list[SymbolRow]:
    """One binding row per C symbol the external names."""
    detail = f"external {external.ml_name} : {external.mltype}"
    return [
        SymbolRow(
            symbol=c_name,
            file=external.span.filename,
            line=external.span.start.line,
            detail=detail,
        )
        for c_name in external_c_names(external)
    ]


OCAML_DIALECT = register_dialect(OCamlDialect())
