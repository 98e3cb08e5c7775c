"""The OCaml-to-C FFI as a :class:`~repro.boundary.BoundaryDialect`.

This is the paper's original configuration, repackaged: ``Γ_I`` comes from
``external`` declarations in ``.ml``/``.mli`` sources via ``Φ``, the
runtime table is ``caml/mlvalues.h``'s entry points, and the protection
discipline is ``CAMLparam``/``CAMLlocal``/``CAMLreturn``.

Because every unit in a batch usually shares the same OCaml side, the
*repository* is memoized per process by content fingerprint; ``Γ_I``
itself is rebuilt per unit so fresh inference variables never leak between
units (the unifier must not see another unit's bindings).
"""

from __future__ import annotations

from ..boundary import register_dialect, run_pipeline
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
from .repository import TypeRepository, build_initial_env

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
        return build_initial_env(self.repository_for(request))

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
        bindings of the (shared) host side."""
        summary = InterfaceSummary(unit=request.name, dialect=self.name)
        ignore = frozenset(builtin_entries()) | POLYMORPHIC_BUILTINS
        summarize_units(summary, units, ignore=ignore)
        for external in self.repository_for(request).externals:
            for c_name in (external.c_name, external.c_name_bytecode):
                if not c_name:
                    continue
                summary.bindings.append(
                    SymbolRow(
                        symbol=c_name,
                        file=external.span.filename,
                        line=external.span.start.line,
                        detail=(
                            f"external {external.ml_name} : "
                            f"{external.mltype}"
                        ),
                    )
                )
        return summary


OCAML_DIALECT = register_dialect(OCamlDialect())
