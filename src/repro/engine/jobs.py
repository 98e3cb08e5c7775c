"""Job model for the batch-analysis engine.

A :class:`CheckRequest` is one self-contained translation unit: the C glue
sources to analyze plus the OCaml sources that build its type repository
(``Γ_I``) and the analysis :class:`~repro.core.exprs.Options`.  Requests
carry everything a worker process needs, so they pickle cleanly across a
``multiprocessing`` pool and hash deterministically for the result cache.

A :class:`CheckResult` is the flattened, JSON-able outcome of one request —
structured diagnostics, the Figure 9 tally, inferred signatures — decoupled
from the in-process :class:`~repro.core.checker.AnalysisReport` so results
can cross process boundaries and survive on disk between runs.

A :class:`BatchReport` merges per-unit results into one Figure-9-style
tally, in deterministic (submission) order regardless of which worker
finished first.  :class:`StreamStats` is what a sweep keeps when it does
not keep results: the counts behind the same footer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

from ..core.checker import AnalysisReport
from ..core.exprs import Options
from ..diagnostics import Diagnostic, DiagnosticBag
from ..source import SourceFile

#: Bump whenever the analysis output format or semantics change, so stale
#: cache entries from older engine revisions can never be replayed.
#: v2: requests carry a boundary dialect (and results a per-unit wall time).
#: v3: results carry the cache tier that served them; batch reports carry
#: cache eviction counts.
#: v4: third dialect (jni) with new JNI_* kinds; ParseHints grew dialect
#: qualifiers, changing how shared-suffix sources can parse.
#: v5: the sharded cross-process disk layout joined the tier stack (it
#: must never replay entries from the flat layout before it).
#: v6: results carry the per-unit InterfaceSummary the whole-program
#: linker consumes; pre-link entries would replay without one and the
#: link pass would silently see an empty corpus.
#: v7: results carry ``probe_seconds`` (the measured cost of serving a
#: cache hit, distinct from the analysis wall time) so trend math over
#: replayed entries never divides by a silent 0.0.
#: v8: diagnostics carry their stable ``rule_id`` (see
#: :mod:`repro.rules`); fourth dialect (rust) with RUST_* kinds; interface
#: summaries grew the ``host_exports`` row group the linker folds in.
CACHE_SCHEMA_VERSION = 8


def _digest_sources(sources: Iterable[SourceFile]) -> str:
    """Content hash of a sequence of sources, in the given order.

    Order matters: repository building and ``ProgramIR.merge`` are
    last-wins, so permuted inputs can analyze differently and must not
    collide to one digest.
    """
    hasher = hashlib.sha256()
    for source in sources:
        hasher.update(source.filename.encode("utf-8", "replace"))
        hasher.update(b"\x00")
        hasher.update(source.text.encode("utf-8", "replace"))
        hasher.update(b"\x01")
    return hasher.hexdigest()


def repository_fingerprint(ocaml_sources: Iterable[SourceFile]) -> str:
    """Content hash of the OCaml side (the type repository inputs)."""
    return _digest_sources(ocaml_sources)


def options_fingerprint(options: Options) -> str:
    """Stable hash of the analysis switches."""
    payload = json.dumps(asdict(options), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CheckRequest:
    """One translation unit queued for analysis.

    ``dialect`` names the boundary dialect (see :mod:`repro.boundary`)
    that interprets the unit: which runtime table seeds the environment
    and where ``Γ_I`` comes from.  The same C text under a different
    dialect is a different analysis, so the dialect participates in
    :meth:`cache_key`.
    """

    name: str
    c_sources: tuple[SourceFile, ...]
    ocaml_sources: tuple[SourceFile, ...] = ()
    options: Options = field(default_factory=Options)
    dialect: str = "ocaml"
    #: record phase spans while analyzing this unit (see
    #: :mod:`repro.telemetry`).  Deliberately excluded from
    #: :meth:`cache_key`: tracing observes the analysis, it never
    #: changes the outcome.
    trace: bool = False

    def cache_key(self) -> str:
        """Content hash identifying this unit's analysis outcome.

        Keyed on the dialect, the C source digest, the host-side
        repository fingerprint, and the :class:`Options` — any change to
        any of the four must miss — plus the engine schema version.
        """
        hasher = hashlib.sha256()
        hasher.update(f"v{CACHE_SCHEMA_VERSION}".encode())
        hasher.update(self.dialect.encode("utf-8", "replace"))
        hasher.update(b"\x00")
        hasher.update(_digest_sources(self.c_sources).encode())
        hasher.update(repository_fingerprint(self.ocaml_sources).encode())
        hasher.update(options_fingerprint(self.options).encode())
        return hasher.hexdigest()


@dataclass
class CheckResult:
    """Flattened outcome of one :class:`CheckRequest`."""

    name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    signatures: dict[str, str] = field(default_factory=dict)
    unification_steps: int = 0
    elapsed_seconds: float = 0.0
    #: end-to-end time this unit cost the batch: parse + analysis for a
    #: miss, the cache probe for a hit (``elapsed_seconds`` is only the
    #: checker fixpoint).  This is what cold-vs-warm plots should use.
    wall_seconds: float = 0.0
    #: measured cost of *serving* this result when it was not freshly
    #: analyzed: the cache probe (scheduler/stream hit paths) or the
    #: resident-state copy (incremental reuse).  Always > 0 for served
    #: results — trend math can divide by it where ``wall_seconds`` and
    #: ``elapsed_seconds`` may legitimately be 0.0.  0.0 for fresh runs.
    probe_seconds: float = 0.0
    cache_key: str = ""
    from_cache: bool = False
    #: which tier satisfied a hit: "memory", "disk", "coalesced" (an
    #: intra-batch copy of another request's fresh run), or "" for a
    #: fresh run
    cache_tier: str = ""
    #: set when the worker itself failed (parse crash, etc.); such results
    #: are reported but never cached
    failure: Optional[str] = None
    #: the unit's JSON-able InterfaceSummary (see :mod:`repro.linker`);
    #: rides every cache tier so the link pass re-runs over summaries,
    #: never sources
    summary: Optional[dict] = None
    #: Chrome trace events recorded while this unit analyzed (only when
    #: the request asked for tracing).  A per-run observation, not an
    #: analysis outcome: it crosses the worker boundary by pickle,
    #: is absorbed into the parent tracer by the scheduler, and is
    #: deliberately NOT part of :meth:`to_dict` — cached payloads and
    #: JSON reports stay byte-identical with tracing on or off.
    trace_events: Optional[list] = None

    @classmethod
    def from_report(
        cls, name: str, report: AnalysisReport, cache_key: str = ""
    ) -> "CheckResult":
        return cls(
            name=name,
            diagnostics=list(report.diagnostics),
            signatures=dict(report.signatures),
            unification_steps=report.unification_steps,
            elapsed_seconds=report.elapsed_seconds,
            cache_key=cache_key,
            summary=report.summary,
        )

    def _bag(self) -> DiagnosticBag:
        return DiagnosticBag(list(self.diagnostics))

    def tally(self) -> dict[str, int]:
        return self._bag().tally()

    @property
    def errors(self) -> list[Diagnostic]:
        return self._bag().errors

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tally": self.tally(),
            "diagnostics": [diag.to_dict() for diag in self.diagnostics],
            "signatures": dict(self.signatures),
            "unification_steps": self.unification_steps,
            "elapsed_seconds": self.elapsed_seconds,
            "wall_seconds": self.wall_seconds,
            "probe_seconds": self.probe_seconds,
            "cache_key": self.cache_key,
            "from_cache": self.from_cache,
            "cache_tier": self.cache_tier,
            "failure": self.failure,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckResult":
        return cls(
            name=data["name"],
            diagnostics=[
                Diagnostic.from_dict(d) for d in data.get("diagnostics", ())
            ],
            signatures=dict(data.get("signatures", {})),
            unification_steps=data.get("unification_steps", 0),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            wall_seconds=data.get("wall_seconds", 0.0),
            probe_seconds=data.get("probe_seconds", 0.0),
            cache_key=data.get("cache_key", ""),
            from_cache=data.get("from_cache", False),
            cache_tier=data.get("cache_tier", ""),
            failure=data.get("failure"),
            summary=data.get("summary"),
        )


def render_unit(result: CheckResult) -> list[str]:
    """One unit's text block, shared by the batch report and the
    streaming path so their per-unit output is byte-identical."""
    tag = " (cached)" if result.from_cache else ""
    lines = [f"== {result.name}{tag}"]
    if result.failure is not None:
        lines.append(f"   engine failure: {result.failure}")
        return lines
    for diag in result.diagnostics:
        lines.append("   " + diag.render())
    return lines


@dataclass
class BatchReport:
    """Merged outcome of one batch run, in submission order."""

    results: list[CheckResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    jobs: int = 1
    #: LRU evictions the cache performed while this batch stored results
    cache_evictions: int = 0
    #: duplicate requests served by intra-batch coalescing (identical
    #: cache keys submitted together analyze once)
    coalesced: int = 0

    def tally(self) -> dict[str, int]:
        total = DiagnosticBag().tally()
        for result in self.results:
            for column, count in result.tally().items():
                total[column] += count
        return total

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.from_cache)

    @property
    def cache_misses(self) -> int:
        """Units that really re-analyzed: coalesced duplicates replay a
        leader's fresh run, so they are neither hits nor analyses."""
        return sum(
            1
            for r in self.results
            if not r.from_cache and r.cache_tier != "coalesced"
        )

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.failure is not None]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for r in self.results for d in r.errors]

    def render(self) -> str:
        """Figure-9-style aggregate, one block per unit plus the tally."""
        lines = [line for result in self.results for line in render_unit(result)]
        footer = StreamStats(
            units=len(self.results),
            cache_hits=self.cache_hits,
            analyzed=self.cache_misses,
            coalesced=self.coalesced,
            cache_evictions=self.cache_evictions,
            tally=self.tally(),
            elapsed_seconds=self.elapsed_seconds,
            jobs=self.jobs,
        )
        lines.append(footer.render())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema_version": CACHE_SCHEMA_VERSION,
            "units": [result.to_dict() for result in self.results],
            "tally": self.tally(),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
                "coalesced": self.coalesced,
            },
            "jobs": self.jobs,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass
class StreamStats:
    """What a sweep kept: counts, never results."""

    units: int = 0
    cache_hits: int = 0
    analyzed: int = 0
    #: duplicates served a copy of a still-pending fresh run
    coalesced: int = 0
    failures: int = 0
    tally: dict[str, int] = field(
        default_factory=lambda: DiagnosticBag().tally()
    )
    elapsed_seconds: float = 0.0
    jobs: int = 1
    #: LRU evictions the cache performed while the sweep stored results
    cache_evictions: int = 0

    def absorb(self, result: CheckResult) -> None:
        self.units += 1
        if result.from_cache:
            self.cache_hits += 1
        elif result.cache_tier == "coalesced":
            self.coalesced += 1
        else:
            self.analyzed += 1
        if result.failure is not None:
            self.failures += 1
        for column, count in result.tally().items():
            self.tally[column] += count

    def render(self) -> str:
        """The one sweep footer, shared with :meth:`BatchReport.render`."""
        shared = f", {self.coalesced} coalesced" if self.coalesced else ""
        evicted = (
            f", {self.cache_evictions} evicted" if self.cache_evictions else ""
        )
        return (
            f"-- {self.units} unit(s): {self.tally['errors']} error(s), "
            f"{self.tally['warnings']} warning(s), "
            f"{self.tally['false_positives']} false-positive-prone "
            f"report(s), "
            f"{self.tally['imprecision']} imprecision warning(s) "
            f"[{self.cache_hits} cached, {self.analyzed} analyzed"
            f"{shared}{evicted}, "
            f"jobs={self.jobs}] in {self.elapsed_seconds:.2f}s"
        )

    def to_dict(self) -> dict:
        return {
            "units": self.units,
            "tally": dict(self.tally),
            "cache": {"hits": self.cache_hits},
            "analyzed": self.analyzed,
            "failures": self.failures,
            "jobs": self.jobs,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def batch_report(self, results: list[CheckResult]) -> BatchReport:
        """The swept ``results`` (collected in order) as one report."""
        return BatchReport(
            results=results,
            elapsed_seconds=self.elapsed_seconds,
            jobs=self.jobs,
            cache_evictions=self.cache_evictions,
            coalesced=self.coalesced,
        )
