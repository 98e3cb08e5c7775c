"""The CPython extension-module boundary as a ``BoundaryDialect``.

Phase one reads the boundary contract out of the C sources themselves
(``PyMethodDef`` tables → ``Γ_I``; there is no separate host-language
input).  Phase two runs three passes over each unit:

1. the shared Figure 6/7 inference, over the rewritten AST, seeded with
   the CPython runtime table — this catches calling-convention arity and
   type clashes exactly as the OCaml dialect catches ``external``
   mismatches;
2. the format-string checker (:mod:`repro.pyext.formats`);
3. the reference-count discipline (:mod:`repro.pyext.refcount`).

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
from . import formats, methods, refcount, runtime
from .rewrite import rewrite_unit


class PyExtDialect:
    """CPython C-API glue, checked with the paper's machinery."""

    name = "pyext"
    host_suffixes: tuple[str, ...] = ()

    # -- seeds ---------------------------------------------------------------

    def builtin_entries(self) -> dict[str, Entry]:
        return runtime.builtin_entries()

    def polymorphic_builtins(self) -> frozenset[str]:
        return runtime.POLYMORPHIC_BUILTINS

    def global_entries(self) -> dict[str, Entry]:
        return runtime.global_entries()

    def alloc_result_tags(self) -> dict[str, int | str]:
        # Python objects are not representational blocks; no allocator
        # produces a known-tag value
        return {}

    # -- pipeline hooks ------------------------------------------------------

    def parse(self, source: SourceFile) -> TranslationUnit:
        return parse_c(source, runtime.parse_hints())

    def initial_env(
        self, request: CheckRequest, units: list[TranslationUnit]
    ) -> InitialEnv:
        return methods.build_initial_env(units)

    def lower(self, unit: TranslationUnit) -> ProgramIR:
        return lower_unit(
            rewrite_unit(unit), extra_returns=runtime.lowering_return_types()
        )

    def passes(
        self, request: CheckRequest, units: list[TranslationUnit]
    ) -> list[Diagnostic]:
        # read the *original* AST: format strings and refcount operations
        # are erased by the rewrite
        diagnostics: list[Diagnostic] = []
        for unit in units:
            diagnostics += formats.check_unit(unit)
            diagnostics += refcount.check_unit(unit)
        return diagnostics

    def analyze(self, request: CheckRequest) -> AnalysisReport:
        return run_pipeline(self, request)

    def summarize(self, request: CheckRequest, units) -> InterfaceSummary:
        """Link-relevant slice: C exports/externs plus every
        ``PyMethodDef`` row and ``PyInit_*`` module entry point."""
        return contract_summary(
            self,
            request.name,
            units,
            table_rows=_method_rows,
            is_entry_point=lambda name: name.startswith("PyInit_"),
        )

    def host_summary(self, request: CheckRequest) -> InterfaceSummary:
        """No host side: the boundary contract lives in the C units."""
        return InterfaceSummary(unit=HOST_UNIT, dialect=self.name)


def _method_rows(unit: TranslationUnit) -> list[SymbolRow]:
    return [
        SymbolRow(
            symbol=entry.py_name,
            file=entry.span.filename,
            line=entry.span.start.line,
            detail=entry.c_name,
        )
        for entry in methods.method_table_entries(unit)
    ]


PYEXT_DIALECT = register_dialect(PyExtDialect())
