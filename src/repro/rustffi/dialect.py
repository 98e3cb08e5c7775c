"""The Rust ``extern "C"`` boundary as a :class:`BoundaryDialect`.

``Γ_I`` comes from the ``.rs`` side the way :mod:`repro.ocamlfront`
reads it from the OCaml repository: the host sources carry the
boundary contract (``extern "C"`` imports and ``#[no_mangle]``
exports), memoized per process by content fingerprint because every
unit of a crate shares one Rust side.  Phase two parses the C units
with the bindgen vocabulary (:mod:`repro.rustffi.runtime`), runs the
shared checker — the Rust runtime has no entry-point table, so the
seeds are empty and the shared pass only contributes C-side
consistency — and then the declaration-agreement pass
(:mod:`repro.rustffi.declcheck`), which is where the ``RUST_*`` rule
pack fires.

The summary side is what makes the dialect whole-program: Rust imports
become typed *bindings* (claims the linker compares against C
declarations of the same symbol) and Rust exports become
*host_exports* (definitions supplied from the host side), both
rendered to canonical C so agreement is string equality.  The whole
Rust side reaches the linker once per corpus through
:meth:`RustFfiDialect.host_summary`; a unit's own summary keeps only
the rows for the symbols it mentions.
"""

from __future__ import annotations

from ..boundary import HOST_UNIT, register_dialect, run_pipeline, unit_names
from ..cfront.ast import TranslationUnit
from ..cfront.ir import ProgramIR
from ..cfront.lower import lower_unit
from ..cfront.parser import parse_c
from ..core.checker import AnalysisReport, InitialEnv
from ..core.environment import Entry
from ..diagnostics import Diagnostic
from ..engine.jobs import CheckRequest, repository_fingerprint
from ..linker.extract import summarize_units
from ..linker.summary import InterfaceSummary, SymbolRow
from ..seeds import HostSeedMemo
from ..source import SourceFile
from . import declcheck, runtime
from .parser import RustFn, RustInterface, parse_sources
from .widths import render_fn

#: Shared memo for parsed Rust interfaces: in-process table over the
#: seed artifact tier over rebuild (see :mod:`repro.seeds`).  A fresh
#: worker unpickles the interface a sibling already parsed instead of
#: re-scanning the ``.rs`` sources.
_INTERFACE_SEEDS = HostSeedMemo("rust")


class RustFfiDialect:
    """Rust ``extern "C"`` declaration agreement, whole-program."""

    name = "rust"
    host_suffixes = (".rs",)

    # -- seeds ---------------------------------------------------------------

    def builtin_entries(self) -> dict[str, Entry]:
        # no runtime entry-point table: plain C calls plain Rust
        return {}

    def polymorphic_builtins(self) -> frozenset[str]:
        return frozenset()

    def global_entries(self) -> dict[str, Entry]:
        return {}

    def alloc_result_tags(self) -> dict[str, int | str]:
        return {}

    # -- pipeline hooks ------------------------------------------------------

    def interface_for(self, request: CheckRequest) -> RustInterface:
        fingerprint = repository_fingerprint(request.ocaml_sources)
        return _INTERFACE_SEEDS.get(
            fingerprint, lambda: parse_sources(request.ocaml_sources)
        )

    #: the seed-warmup entry point (same contract for every dialect
    #: with a parsed host side; see :func:`repro.seeds.warmup_hosts`)
    host_interface_for = interface_for

    def parse(self, source: SourceFile) -> TranslationUnit:
        return parse_c(source, runtime.parse_hints())

    def initial_env(
        self, request: CheckRequest, units: list[TranslationUnit]
    ) -> InitialEnv:
        # the host phase loads the Rust interface the declaration pass
        # checks against; the Figure 6/7 seeds stay empty because no
        # boxed-value type crosses this boundary
        self.interface_for(request)
        return InitialEnv()

    def lower(self, unit: TranslationUnit) -> ProgramIR:
        return lower_unit(unit)

    def passes(
        self, request: CheckRequest, units: list[TranslationUnit]
    ) -> list[Diagnostic]:
        return declcheck.check_interface(self.interface_for(request), units)

    def analyze(self, request: CheckRequest) -> AnalysisReport:
        return run_pipeline(self, request)

    def summarize(self, request: CheckRequest, units) -> InterfaceSummary:
        """Link-relevant slice: C exports/externs plus the Rust side's
        typed imports (bindings) and ``#[no_mangle]`` exports of the
        symbols this unit mentions."""
        summary = InterfaceSummary(unit=request.name, dialect=self.name)
        summarize_units(summary, units)
        return self._host_rows(request, summary, unit_names(request))

    def host_summary(self, request: CheckRequest) -> InterfaceSummary:
        """Every typed import and export of the Rust side, once per corpus."""
        summary = InterfaceSummary(unit=HOST_UNIT, dialect=self.name)
        return self._host_rows(request, summary)

    def _host_rows(
        self,
        request: CheckRequest,
        summary: InterfaceSummary,
        names: frozenset[str] | None = None,
    ) -> InterfaceSummary:
        interface = self.interface_for(request)
        for rows, fns in (
            (summary.bindings, interface.imports),
            (summary.host_exports, interface.exports),
        ):
            rows.extend(
                self._row(fn, interface)
                for fn in fns
                if names is None or fn.symbol in names
            )
        return summary

    def _row(self, fn: RustFn, interface: RustInterface) -> SymbolRow:
        return SymbolRow(
            symbol=fn.symbol,
            type=render_fn(fn, interface),
            file=fn.span.filename,
            line=fn.span.start.line,
            detail=fn.signature(),
        )


RUST_DIALECT = register_dialect(RustFfiDialect())
