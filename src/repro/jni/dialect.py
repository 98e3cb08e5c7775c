"""The JNI boundary as a ``BoundaryDialect``.

Phase one reads the boundary contract out of the C sources themselves
(``JNINativeMethod`` tables and the ``Java_*`` export convention →
``Γ_I``; there is no separate host-language input — ``.class`` files are
opaque to a source checker).  Phase two runs three passes over each
unit:

1. the shared Figure 6/7 inference, over the rewritten AST, seeded with
   the ``JNIEnv`` runtime table — this catches registration arity and
   type clashes exactly as the OCaml dialect catches ``external``
   mismatches;
2. the descriptor checker (:mod:`repro.jni.descriptors`);
3. the local/global reference discipline (:mod:`repro.jni.refs`).

Their diagnostics merge into one :class:`AnalysisReport`, so batch
tallies, caching, and rendering need no dialect-specific code.
"""

from __future__ import annotations

from ..boundary import HOST_UNIT, register_dialect, run_pipeline
from ..cfront.ast import TranslationUnit
from ..cfront.ir import ProgramIR
from ..cfront.lower import lower_unit
from ..cfront.parser import parse_c
from ..core.checker import AnalysisReport, InitialEnv
from ..core.environment import Entry
from ..diagnostics import Diagnostic
from ..engine.jobs import CheckRequest
from ..linker.extract import contract_summary
from ..linker.summary import InterfaceSummary, SymbolRow
from ..source import SourceFile
from . import descriptors, refs, repository, runtime
from .rewrite import rewrite_unit


class JniDialect:
    """The Java Native Interface, checked with the paper's machinery."""

    name = "jni"
    host_suffixes: tuple[str, ...] = ()

    # -- seeds ---------------------------------------------------------------

    def builtin_entries(self) -> dict[str, Entry]:
        return runtime.builtin_entries()

    def polymorphic_builtins(self) -> frozenset[str]:
        return runtime.POLYMORPHIC_BUILTINS

    def global_entries(self) -> dict[str, Entry]:
        return runtime.global_entries()

    def alloc_result_tags(self) -> dict[str, int | str]:
        # JVM references are opaque; no allocator yields a known-tag block
        return {}

    # -- pipeline hooks ------------------------------------------------------

    def parse(self, source: SourceFile) -> TranslationUnit:
        return parse_c(source, runtime.parse_hints())

    def initial_env(
        self, request: CheckRequest, units: list[TranslationUnit]
    ) -> InitialEnv:
        return repository.build_initial_env(units)

    def lower(self, unit: TranslationUnit) -> ProgramIR:
        return lower_unit(
            rewrite_unit(unit), extra_returns=runtime.lowering_return_types()
        )

    def passes(
        self, request: CheckRequest, units: list[TranslationUnit]
    ) -> list[Diagnostic]:
        # read the *original* AST: descriptor strings and env-table calls
        # are erased by the rewrite
        diagnostics: list[Diagnostic] = []
        for unit in units:
            diagnostics += descriptors.check_unit(unit)
            diagnostics += refs.check_unit(unit)
        return diagnostics

    def analyze(self, request: CheckRequest) -> AnalysisReport:
        return run_pipeline(self, request)

    def summarize(self, request: CheckRequest, units) -> InterfaceSummary:
        """Link-relevant slice: C exports/externs plus every
        ``JNINativeMethod`` row and ``Java_*`` convention export."""
        return contract_summary(
            self,
            request.name,
            units,
            table_rows=_native_rows,
            is_entry_point=repository.is_native_export,
        )

    def host_summary(self, request: CheckRequest) -> InterfaceSummary:
        """No host side: the boundary contract lives in the C units."""
        return InterfaceSummary(unit=HOST_UNIT, dialect=self.name)


def _native_rows(unit: TranslationUnit) -> list[SymbolRow]:
    return [
        SymbolRow(
            symbol=entry.java_name,
            type=entry.signature,
            file=entry.span.filename,
            line=entry.span.start.line,
            detail=entry.c_name,
        )
        for entry in repository.native_method_entries(unit)
    ]


JNI_DIALECT = register_dialect(JniDialect())
