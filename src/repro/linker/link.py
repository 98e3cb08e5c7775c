"""The link pass: union summaries, report cross-unit inconsistencies.

The :class:`Linker` is a streaming accumulator — :meth:`Linker.add` takes
one :class:`~repro.linker.summary.InterfaceSummary` at a time and keeps
only per-symbol aggregates, so linking a 100k-unit corpus holds symbol
tables, never sources or results.  :meth:`Linker.add_host` takes the
host side's rows once per corpus (a unit summary carries only the host
rows for the symbols that unit mentions).  :meth:`Linker.report` then applies
four rules, in deterministic symbol order:

``LINK_CONFLICTING_DECL``
    The same symbol carries two different rendered C types across the
    corpus's definitions, extern declarations, and typed host-side
    claims (Rust ``extern "C"`` imports and ``#[no_mangle]`` exports
    render to canonical C, so they join the comparison; bindings of
    the other dialects carry no type and are skipped as before).
``LINK_DUPLICATE_REGISTRATION``
    The same host-visible registration key (``PyMethodDef`` name,
    ``JNINativeMethod`` name+descriptor, ``Java_*``/``PyInit_*`` export)
    is claimed by more than one site.
``LINK_DUPLICATE_DEFINITION``
    A link-relevant symbol (one some other unit or the host interface
    refers to) is defined with a body in more than one unit.  Unreferenced
    duplicates are ignored: the C parser drops ``static``, so identical
    private helpers copied between units must not be flagged.
``LINK_UNRESOLVED_EXTERN``
    A registration target or host binding names a C symbol no linked
    unit defines.  Host exports count as definitions: a Rust
    ``#[no_mangle]`` fn resolves the C prototypes that call it.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

from ..diagnostics import Diagnostic, DiagnosticBag, Kind
from ..source import Position, Span
from ..telemetry.metrics import count_link_conflicts
from .summary import InterfaceSummary, SymbolRow

#: registration-key separator; NUL never appears in parsed symbol text
_KEY_SEP = "\x00"


def _row_span(row: SymbolRow) -> Span:
    position = Position(0, row.line, 1)
    return Span(row.file or "<linked>", position, position)


def _site(row: SymbolRow) -> str:
    return f"{row.file}:{row.line}"


#: Fixed-width ``<stdint.h>`` aliases normalize to one spelling before
#: the conflict comparison: ``uint32_t`` versus ``unsigned int`` is the
#: same platform type, not a link hazard (a Rust host renders ``u32`` as
#: ``unsigned int`` while a bindgen header spells ``uint32_t``).
#: Pointer-width aliases (``size_t``, ``uintptr_t``, ...) stay distinct:
#: they are semantic types of their own and mixing them is a finding.
_STDINT_ALIASES = {
    "int8_t": "signed char",
    "uint8_t": "unsigned char",
    "int16_t": "short",
    "uint16_t": "unsigned short",
    "int32_t": "int",
    "uint32_t": "unsigned int",
    "int64_t": "long long",
    "uint64_t": "unsigned long long",
}
_STDINT_RE = re.compile(r"\b(u?int(?:8|16|32|64)_t)\b")


def _canonical_type(rendered: str) -> str:
    return _STDINT_RE.sub(
        lambda m: _STDINT_ALIASES[m.group(1)], rendered
    )


@dataclass
class LinkReport:
    """Outcome of one whole-corpus link pass."""

    diagnostics: DiagnosticBag = field(default_factory=DiagnosticBag)
    units: int = 0
    exports: int = 0
    externs: int = 0
    registrations: int = 0
    bindings: int = 0
    host_exports: int = 0
    #: time the linker spent folding summaries in and applying the rules
    elapsed_seconds: float = 0.0

    def tally(self) -> dict[str, int]:
        return self.diagnostics.tally()

    @property
    def errors(self) -> list[Diagnostic]:
        return self.diagnostics.errors

    def render(self) -> str:
        lines = ["== link"]
        for diag in self.diagnostics:
            lines.append("   " + diag.render())
        counts = self.tally()
        # mention host exports only when a dialect produced them, so the
        # footer stays byte-identical for the pre-existing corpora
        hosts = (
            f", {self.host_exports} host export(s)"
            if self.host_exports
            else ""
        )
        lines.append(
            f"-- link: {self.units} unit(s), {self.exports} export(s), "
            f"{self.externs} extern(s), {self.registrations} "
            f"registration(s), {self.bindings} binding(s){hosts}: "
            f"{counts['errors']} error(s), {counts['warnings']} warning(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "units": self.units,
            "exports": self.exports,
            "externs": self.externs,
            "registrations": self.registrations,
            "bindings": self.bindings,
            "host_exports": self.host_exports,
            "tally": self.tally(),
            "diagnostics": [diag.to_dict() for diag in self.diagnostics],
            "elapsed_seconds": self.elapsed_seconds,
        }


class Linker:
    """Streaming cross-unit accumulator over interface summaries."""

    def __init__(self) -> None:
        self.units = 0
        #: symbol -> definition sites (unit, row)
        self._exports: dict[str, list[tuple[str, SymbolRow]]] = {}
        #: symbol -> extern declaration sites (unit, row)
        self._externs: dict[str, list[tuple[str, SymbolRow]]] = {}
        #: registration key -> sites (unit, row)
        self._registrations: dict[str, list[tuple[str, SymbolRow]]] = {}
        #: host bindings, deduped — the host summary and every unit that
        #: mentions a binding's symbol carry the same row
        self._bindings: dict[tuple[str, str, str, int, str], SymbolRow] = {}
        #: host-side definitions (Rust ``#[no_mangle]``), deduped for the
        #: same reason
        self._host_exports: dict[tuple[str, str, str, int, str], SymbolRow] = {}
        self._registration_rows = 0
        #: seconds spent inside ``add`` and ``report`` so far
        self._elapsed = 0.0

    def add(self, summary: InterfaceSummary) -> None:
        started = time.perf_counter()
        self.units += 1
        unit = summary.unit
        for row in summary.exports:
            self._exports.setdefault(row.symbol, []).append((unit, row))
        for row in summary.externs:
            self._externs.setdefault(row.symbol, []).append((unit, row))
        for row in summary.registrations:
            self._registration_rows += 1
            key = row.symbol + _KEY_SEP + row.type
            self._registrations.setdefault(key, []).append((unit, row))
        self._add_host_rows(summary)
        self._elapsed += time.perf_counter() - started

    def add_dict(self, data: dict) -> None:
        self.add(InterfaceSummary.from_dict(data))

    def add_host(self, summary: InterfaceSummary) -> None:
        """Fold in a dialect's host summary, once per corpus.

        Only its ``bindings`` and ``host_exports`` count, and it is not a
        unit: the report's unit count and row totals stay those of the
        units, since host rows dedupe against the unit summaries' own.
        """
        started = time.perf_counter()
        self._add_host_rows(summary)
        self._elapsed += time.perf_counter() - started

    def _add_host_rows(self, summary: InterfaceSummary) -> None:
        for row in summary.bindings:
            dedupe = (row.symbol, row.type, row.file, row.line, row.detail)
            self._bindings.setdefault(dedupe, row)
        for row in summary.host_exports:
            dedupe = (row.symbol, row.type, row.file, row.line, row.detail)
            self._host_exports.setdefault(dedupe, row)

    # -- rule helpers ------------------------------------------------------

    def _registration_target(self, row: SymbolRow) -> str:
        """The C symbol a registration row requires to exist."""
        return row.detail or row.symbol

    def _referenced_symbols(self) -> set[str]:
        """Symbols some *other* site refers to — the link-relevant set."""
        referenced = set(self._externs)
        for sites in self._registrations.values():
            for _unit, row in sites:
                referenced.add(self._registration_target(row))
        for row in self._bindings.values():
            referenced.add(row.symbol)
        return referenced

    def report(self) -> LinkReport:
        started = time.perf_counter()
        bag = DiagnosticBag()
        referenced = self._referenced_symbols()
        duplicate_registered: set[str] = set()

        # duplicate registrations first: a symbol flagged here must not
        # also be flagged as a duplicate definition
        for key in sorted(self._registrations):
            sites = self._registrations[key]
            if len(sites) < 2:
                continue
            sites = sorted(sites, key=lambda s: (_site(s[1]), s[0]))
            name = key.split(_KEY_SEP, 1)[0]
            where = ", ".join(
                f"{unit} ({_site(row)})" for unit, row in sites
            )
            bag.emit(
                Kind.LINK_DUPLICATE_REGISTRATION,
                _row_span(sites[-1][1]),
                f"entry point '{name}' registered more than once: {where}",
            )
            for _unit, row in sites:
                duplicate_registered.add(self._registration_target(row))

        # typed host-side claims join the comparison: Rust imports are
        # bindings with a rendered C type, Rust exports are host_exports
        host_claims: dict[str, list[tuple[str, SymbolRow]]] = {}
        for row in self._bindings.values():
            if row.type:
                host_claims.setdefault(row.symbol, []).append(("<host>", row))
        for row in self._host_exports.values():
            host_claims.setdefault(row.symbol, []).append(("<host>", row))

        # conflicting declarations: every type claim (definitions plus
        # extern prototypes plus typed host claims) for one symbol must
        # render identically
        claim_symbols = sorted(
            set(self._exports) | set(self._externs) | set(host_claims)
        )
        for symbol in claim_symbols:
            claims = list(self._exports.get(symbol, ()))
            claims += self._externs.get(symbol, ())
            claims += host_claims.get(symbol, ())
            by_type: dict[str, tuple[str, SymbolRow]] = {}
            for unit, row in sorted(
                claims, key=lambda s: (_site(s[1]), s[0])
            ):
                if not row.type:
                    continue
                canonical = _canonical_type(row.type)
                if canonical not in by_type:
                    by_type[canonical] = (unit, row)
            if len(by_type) < 2:
                continue
            rendered = "; ".join(
                f"'{row.type}' at {_site(row)}"
                for _unit, row in by_type.values()
            )
            last = list(by_type.values())[-1][1]
            bag.emit(
                Kind.LINK_CONFLICTING_DECL,
                _row_span(last),
                f"boundary symbol '{symbol}' declared with conflicting "
                f"C types: {rendered}",
            )

        # duplicate definitions of link-relevant symbols; a host-side
        # definition (Rust #[no_mangle]) collides with a C body too
        definition_sites: dict[str, list[tuple[str, SymbolRow]]] = {
            symbol: list(sites) for symbol, sites in self._exports.items()
        }
        for row in self._host_exports.values():
            definition_sites.setdefault(row.symbol, []).append(
                ("<host>", row)
            )
        for symbol in sorted(definition_sites):
            sites = definition_sites[symbol]
            if len(sites) < 2:
                continue
            if symbol in duplicate_registered:
                continue  # already reported as a duplicate registration
            if symbol not in referenced:
                continue  # likely copied static helpers; not link-visible
            sites = sorted(sites, key=lambda s: (_site(s[1]), s[0]))
            where = " and ".join(_site(row) for _unit, row in sites)
            bag.emit(
                Kind.LINK_DUPLICATE_DEFINITION,
                _row_span(sites[-1][1]),
                f"boundary symbol '{symbol}' defined in both {where}",
            )

        # unresolved registration targets and host bindings; host-side
        # definitions resolve references like any C body does
        defined = set(self._exports)
        defined.update(row.symbol for row in self._host_exports.values())
        missing: dict[str, tuple[str, SymbolRow]] = {}
        for key in sorted(self._registrations):
            for unit, row in self._registrations[key]:
                target = self._registration_target(row)
                if target not in defined and target not in missing:
                    missing[target] = ("registered by", row)
        for dedupe in sorted(self._bindings):
            row = self._bindings[dedupe]
            if row.symbol not in defined and row.symbol not in missing:
                missing[row.symbol] = ("bound by", row)
        for target in sorted(missing):
            origin, row = missing[target]
            bag.emit(
                Kind.LINK_UNRESOLVED_EXTERN,
                _row_span(row),
                f"'{target}' is {origin} {row.file or '<unknown>'} "
                f"but defined in no linked unit",
            )

        conflicts: dict[str, int] = {}
        for diag in bag:
            name = diag.kind.name.lower()
            conflicts[name] = conflicts.get(name, 0) + 1
        for kind_name, amount in conflicts.items():
            count_link_conflicts(kind_name, amount)

        return LinkReport(
            diagnostics=bag,
            units=self.units,
            exports=sum(len(sites) for sites in self._exports.values()),
            externs=sum(len(sites) for sites in self._externs.values()),
            registrations=self._registration_rows,
            bindings=len(self._bindings),
            host_exports=len(self._host_exports),
            elapsed_seconds=self._elapsed + time.perf_counter() - started,
        )
