"""Per-unit interface summaries — the linker's input format.

A summary is the whole-program-relevant slice of one translation unit,
small enough to serialize with its :class:`~repro.engine.jobs.CheckResult`
so it flows through every cache tier (memory, disk, shared store) and the
incremental engine's resident payloads: only dirty units re-summarize,
and the link pass re-runs over summaries, never sources.

Five row groups cover the four dialects:

``exports``
    C functions *defined* (with a body) in the unit, with their rendered
    C type — the link-time supply side.
``externs``
    C prototypes the unit *declares but does not define* — claims about
    symbols some other unit must supply, checked for conflicts.
``registrations``
    Entries the unit pushes into a host-visible registration table
    (``PyMethodDef`` rows, ``JNINativeMethod`` rows, implicit ``Java_*``
    exports).  The row's ``symbol`` is the host-side key; ``detail``
    names the C function it targets.
``bindings``
    Host-interface declarations binding a host name to a C symbol
    (OCaml ``external``, Rust ``extern "C"`` imports).
``host_exports``
    Symbols the *host side* supplies to C (Rust ``#[no_mangle] extern
    "C"`` definitions), with their canonical C rendering.  They count
    as definitions for resolution and join the conflicting-declaration
    claim set when typed.

The last two groups describe the host side, which every unit of a corpus
shares.  A unit's summary keeps only the host rows for the C symbols the
unit mentions; the dialect's host summary holds them all and reaches the
linker once per corpus (:meth:`~repro.linker.Linker.add_host`).  The
linker dedupes identical host rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SymbolRow:
    """One link-relevant fact: a symbol, its type, and where it was said."""

    symbol: str
    type: str = ""
    file: str = ""
    line: int = 0
    #: row-group-specific payload: the C target of a registration, the
    #: ML type of a binding, ...
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "symbol": self.symbol,
            "type": self.type,
            "file": self.file,
            "line": self.line,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SymbolRow":
        return cls(
            symbol=data["symbol"],
            type=data.get("type", ""),
            file=data.get("file", ""),
            line=data.get("line", 0),
            detail=data.get("detail", ""),
        )


@dataclass
class InterfaceSummary:
    """The link-relevant interface of one translation unit."""

    unit: str
    dialect: str
    exports: list[SymbolRow] = field(default_factory=list)
    externs: list[SymbolRow] = field(default_factory=list)
    registrations: list[SymbolRow] = field(default_factory=list)
    bindings: list[SymbolRow] = field(default_factory=list)
    host_exports: list[SymbolRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "unit": self.unit,
            "dialect": self.dialect,
            "exports": [row.to_dict() for row in self.exports],
            "externs": [row.to_dict() for row in self.externs],
            "registrations": [row.to_dict() for row in self.registrations],
            "bindings": [row.to_dict() for row in self.bindings],
            "host_exports": [row.to_dict() for row in self.host_exports],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InterfaceSummary":
        return cls(
            unit=data["unit"],
            dialect=data.get("dialect", ""),
            exports=[SymbolRow.from_dict(r) for r in data.get("exports", ())],
            externs=[SymbolRow.from_dict(r) for r in data.get("externs", ())],
            registrations=[
                SymbolRow.from_dict(r) for r in data.get("registrations", ())
            ],
            bindings=[SymbolRow.from_dict(r) for r in data.get("bindings", ())],
            host_exports=[
                SymbolRow.from_dict(r) for r in data.get("host_exports", ())
            ],
        )
