"""Dependency-aware incremental scheduler.

This is the layer that turns the one-shot batch engine into a persistent
service.  An :class:`IncrementalEngine` keeps a whole corpus resident:

* the parsed host side and every translation unit's :class:`CheckRequest`,
  rebuilt only when the file behind it changes;
* a :class:`DependencyGraph` linking each unit to the files it reads — its
  own ``.c`` source, every host-language interface file feeding ``Γ_I``,
  and the quoted headers found during lowering (see
  :func:`repro.boundary.unit_dependencies`) — so an edit
  dirties exactly the affected units;
* a two-tier result cache: an in-memory LRU in front of the on-disk
  :class:`~repro.engine.cache.ResultCache`, which is thereby demoted to a
  cold-start tier;
* each checked unit's reply row, encoded once when its result is stored:
  a report splices the resident rows of the units it did not re-run and
  encodes only the ones it did, so a one-unit edit costs one unit's
  encoding, not the corpus's.

Both entry points funnel into the same code path: :meth:`check` submits
only the dirty units to :func:`repro.engine.scheduler.run_batch`, which
collects the one sweep loop (:func:`repro.engine.stream.stream_batch`)
that ``mlffi-check batch``, ``link`` and ``conformance`` run too, so
parallel fan-out, cache probing, coalescing, and deterministic ordering
behave identically in every mode, ``serve`` and ``watch`` included.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ..boundary import (
    CORPUS_UNIT_SUFFIXES,
    get_dialect,
    host_summary,
    unit_dependencies,
)
from ..core.exprs import Options
from ..corpus import read_source, scan_tree
from ..diagnostics import DiagnosticBag
from ..linker import Linker, LinkReport
from ..source import SourceFile
from ..telemetry import span
from .cache import DEFAULT_MAX_ENTRIES, MemoryCache, NullCache, TieredCache
from .jobs import BatchReport, CheckRequest, CheckResult
from .scheduler import run_batch


#: the wire protocol's stable encoding (sorted keys, compact, ASCII), as
#: :func:`repro.server.protocol.encode_fragment` writes it: the daemon
#: splices report rows into its replies verbatim
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: the one value of a resident row that each report measures afresh
_PROBE = "probe_seconds"


def _normalize(path: str | os.PathLike, base: Path) -> str:
    """Absolute, ``..``-free form of ``path``, resolved against ``base``."""
    candidate = Path(path)
    if not candidate.is_absolute():
        candidate = base / candidate
    return os.path.normpath(str(candidate))


class DependencyGraph:
    """Bidirectional map between translation units and the files they read."""

    def __init__(self) -> None:
        self._deps: dict[str, frozenset[str]] = {}
        self._dependents: dict[str, set[str]] = {}

    def set_dependencies(self, unit: str, paths: Iterable[str]) -> None:
        self.remove_unit(unit)
        deps = frozenset(paths)
        self._deps[unit] = deps
        for path in deps:
            self._dependents.setdefault(path, set()).add(unit)

    def remove_unit(self, unit: str) -> None:
        for path in self._deps.pop(unit, frozenset()):
            dependents = self._dependents.get(path)
            if dependents is not None:
                dependents.discard(unit)
                if not dependents:
                    del self._dependents[path]

    def dependencies(self, unit: str) -> frozenset[str]:
        return self._deps.get(unit, frozenset())

    def dependents(self, path: str) -> set[str]:
        """Units that must re-check when ``path`` changes."""
        return set(self._dependents.get(path, ()))

    def __len__(self) -> int:
        return len(self._deps)

    def stats(self) -> dict[str, int]:
        """Size of the graph, for the ``status`` RPC: tracked units,
        distinct watched paths, and total dependency edges."""
        return {
            "units": len(self._deps),
            "paths": len(self._dependents),
            "edges": sum(len(deps) for deps in self._deps.values()),
        }


@dataclass
class UnitState:
    """One resident translation unit: its request, deps, and last result.

    The result is held as its encoded reply row in the form a reused
    unit takes (``from_cache``, ``cache_tier: "memory"``,
    ``wall_seconds: 0.0``), split around ``probe_seconds``, the one value
    each report measures afresh.  Beside it sit the result's tally and
    what :meth:`IncrementalEngine.link` reads.  Rows are encoded once,
    when the result is stored; reports splice them and decode
    :class:`CheckResult` copies only when asked.
    """

    name: str
    request: CheckRequest
    #: the row up to its ``"probe_seconds":`` key; ``None`` until checked
    head: Optional[str] = None
    #: the row after the probe value
    tail: str = ""
    tally: Optional[dict[str, int]] = None
    summary: Optional[dict] = None
    failed: bool = False

    def keep(self, data: dict) -> None:
        """Store a result, given as :meth:`CheckResult.to_dict`."""
        self.tally = data["tally"]
        self.summary = data["summary"]
        self.failed = data["failure"] is not None
        reused = {**data, "from_cache": True, "cache_tier": "memory"}
        reused["wall_seconds"] = 0.0
        # sort_keys puts every key of ``before`` ahead of the probe and
        # every key of ``after`` behind it, so the halves join exactly
        before = _encode({k: v for k, v in reused.items() if k < _PROBE})
        after = _encode({k: v for k, v in reused.items() if k > _PROBE})
        self.head = f'{before[:-1]},"{_PROBE}":'
        self.tail = f",{after[1:]}"


class IncrementalReport(BatchReport):
    """A :class:`BatchReport` over the whole corpus, annotated with what
    this particular check actually did.

    Built from encoded rows, one per unit in name order: :meth:`encode`
    splices them into the reply, and :meth:`to_dict` and
    :attr:`results` decode that encoding (the results once, as fresh
    copies the caller may mutate).
    """

    def __init__(
        self,
        *,
        rows: list[str],
        tally: dict[str, int],
        hits: int,
        misses: int,
        elapsed_seconds: float,
        jobs: int,
        cache_evictions: int,
        checked: list[str],
        ran: list[str],
        reused: int,
        stale: list[str],
        revision: int,
        rechecked: bool,
    ):
        self._rows = rows
        self._tally = tally
        self._hits = hits
        self._misses = misses
        self._results: Optional[list[CheckResult]] = None
        self.elapsed_seconds = elapsed_seconds
        self.jobs = jobs
        self.cache_evictions = cache_evictions
        self.coalesced = 0
        #: dirty units submitted to the batch scheduler this check
        self.checked = checked
        #: subset of ``checked`` that was really analyzed (no cache tier hit)
        self.ran = ran
        #: clean units served straight from resident engine state
        self.reused = reused
        #: dirty units a restricted check did NOT submit: their results in
        #: this report are the pre-edit ones and must not be trusted as fresh
        self.stale = stale
        #: engine revision of the state this report describes, read under
        #: the engine lock as the check ends (not part of :meth:`encode`)
        self.revision = revision
        #: every submitted unit already had a result: the check re-ran
        #: edited units, it was not a first check (not part of :meth:`encode`)
        self.rechecked = rechecked

    @property
    def results(self) -> list[CheckResult]:
        """Copies decoded from the rows on first use; the caller's to mutate."""
        if self._results is None:
            self._results = [
                CheckResult.from_dict(json.loads(row)) for row in self._rows
            ]
        return self._results

    def tally(self) -> dict[str, int]:
        return dict(self._tally)

    @property
    def cache_hits(self) -> int:
        return self._hits

    @property
    def cache_misses(self) -> int:
        return self._misses

    def encode(self, link: Optional[LinkReport] = None) -> str:
        """The report as the daemon's ``check`` result, in the wire's
        stable encoding; ``link`` adds the link pass's stanza."""
        data = self.stanzas()
        data["incremental"] = {
            "checked": self.checked,
            "ran": self.ran,
            "reused": self.reused,
            "stale": self.stale,
        }
        if link is not None:
            data["link"] = link.to_dict()
        # ``units`` sorts last, after every key above
        return f'{_encode(data)[:-1]},"units":[{",".join(self._rows)}]}}'

    def to_dict(self, link: Optional[LinkReport] = None) -> dict:
        return json.loads(self.encode(link))


class IncrementalEngine:
    """A resident corpus with dependency-aware re-checking.

    Thread-safe: the server handles requests from multiple connections,
    so every public method takes the engine lock.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        dialect: str = "ocaml",
        options: Optional[Options] = None,
        jobs: int = 1,
        cache=None,
        memory_max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        trace: bool = False,
    ):
        self.root = Path(_normalize(root, Path.cwd()))
        self.dialect = dialect
        self.options = options or Options()
        self.jobs = jobs
        #: when set, every built request asks its worker for phase spans
        self.trace = trace
        self.started_monotonic = time.monotonic()
        self.memory = MemoryCache(memory_max_entries)
        self.cold = cache if cache is not None else NullCache()
        self.cache = TieredCache(self.memory, self.cold)
        self.graph = DependencyGraph()
        self.checks_run = 0
        #: monotonic state counter: bumped whenever resident results may
        #: have changed (invalidate, reload, a check that re-analyzed).
        #: The service's request coalescer keys its memo on this, so a
        #: memoized response can never outlive the state it encoded.
        #: Guarded by its own cheap lock — not ``_lock`` — so transports
        #: can key requests while a check holds the engine lock.
        self._revision = 0
        self._revision_lock = threading.Lock()
        self._boundary = get_dialect(dialect)
        #: tally of the most recent :meth:`link` pass, for ``status``
        self._last_link: Optional[dict] = None
        self._lock = threading.RLock()
        self._hosts: dict[str, SourceFile] = {}
        self._units: dict[str, UnitState] = {}
        self._dirty: set[str] = set()
        self.reload()

    # -- corpus maintenance ---------------------------------------------------

    def _read(self, path: str) -> Optional[SourceFile]:
        """Load one source for ``invalidate``: a vanished file is a plain
        removal (no warning), an unreadable or empty one is skipped with
        the same warning :func:`repro.corpus.read_source` gives a sweep."""
        if not Path(path).is_file():
            return None
        return read_source(path, name=path)

    def _host_tuple(self) -> tuple[SourceFile, ...]:
        return tuple(self._hosts[path] for path in sorted(self._hosts))

    def _build_request(
        self, source: SourceFile, hosts: tuple[SourceFile, ...]
    ) -> CheckRequest:
        # callers pass one ``hosts`` tuple for all the requests they build,
        # so its fingerprint is hashed once per tuple, not once per unit
        return CheckRequest(
            name=source.filename,
            c_sources=(source,),
            ocaml_sources=hosts,
            options=self.options,
            dialect=self.dialect,
            trace=self.trace,
        )

    def _index_unit(self, state: UnitState) -> None:
        """Record the unit's dependency edges, resolving quoted include
        names against the unit's directory and then the project root."""
        unit_dir = Path(state.name).parent
        deps = {state.name}
        for dep in unit_dependencies(state.request):
            if dep in self._hosts:
                deps.add(dep)
                continue
            local = _normalize(dep, unit_dir)
            shared = _normalize(dep, self.root)
            deps.add(local if Path(local).exists() or local == shared else shared)
        self.graph.set_dependencies(state.name, deps)

    def _adopt_unit(
        self, source: SourceFile, hosts: tuple[SourceFile, ...]
    ) -> None:
        state = UnitState(
            name=source.filename, request=self._build_request(source, hosts)
        )
        self._units[state.name] = state
        self._index_unit(state)
        self._dirty.add(state.name)

    def _drop_unit(self, name: str) -> None:
        self._units.pop(name, None)
        self._dirty.discard(name)
        self.graph.remove_unit(name)

    def _rebuild_all_requests(self, hosts: tuple[SourceFile, ...]) -> None:
        """The host side changed: every unit's ``Γ_I`` inputs did too."""
        for state in self._units.values():
            state.request = replace(state.request, ocaml_sources=hosts)
            self._index_unit(state)
            self._dirty.add(state.name)

    def reload(self) -> set[str]:
        """Rescan the project tree from scratch; returns the dirtied units."""
        with self._lock:
            self._hosts.clear()
            for state in list(self._units.values()):
                self._drop_unit(state.name)
            scan = scan_tree(
                self.root,
                self._boundary,
                name_for=lambda path: _normalize(path, self.root),
            )
            self._hosts = {source.filename: source for source in scan.hosts}
            hosts = self._host_tuple()
            for source in scan.units:
                self._adopt_unit(source, hosts)
            self._bump_revision()
            return set(self._dirty)

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, paths: Sequence[str | os.PathLike]) -> set[str]:
        """Re-read ``paths`` and return the units that now need re-checking.

        Handles edits, deletions, and brand-new files: host-language
        changes rebuild every unit's request, unit changes rebuild one,
        header changes dirty the dependents recorded by the graph.
        """
        with self._lock:
            affected: set[str] = set()
            host_changed = False
            # new units are adopted once the host side read is final
            adopted: list[SourceFile] = []
            for raw in paths:
                path = _normalize(raw, self.root)
                suffix = Path(path).suffix
                if suffix in self._boundary.host_suffixes:
                    source = self._read(path)
                    previous = self._hosts.get(path)
                    if source is None:
                        if previous is not None:
                            del self._hosts[path]
                            host_changed = True
                    elif previous is None or previous.text != source.text:
                        self._hosts[path] = source
                        host_changed = True
                elif path in self._units:
                    source = self._read(path)
                    if source is None:
                        self._drop_unit(path)
                    else:
                        state = self._units[path]
                        state.request = replace(
                            state.request, c_sources=(source,)
                        )
                        self._index_unit(state)
                        self._dirty.add(path)
                        affected.add(path)
                elif suffix in CORPUS_UNIT_SUFFIXES and Path(path).is_file():
                    source = self._read(path)
                    if source is not None:
                        adopted.append(source)
                        affected.add(path)
                else:
                    dependents = self.graph.dependents(path)
                    self._dirty.update(dependents)
                    affected.update(dependents)
            hosts = self._host_tuple()
            if host_changed:
                self._rebuild_all_requests(hosts)
                affected.update(self._units)
            for source in adopted:
                self._adopt_unit(source, hosts)
            # conservative: any invalidate may have changed what a check
            # would report, so coalesced memos must stop being served
            self._bump_revision()
            return affected

    # -- checking -------------------------------------------------------------

    def check(
        self,
        names: Optional[Sequence[str | os.PathLike]] = None,
        *,
        jobs: Optional[int] = None,
    ) -> IncrementalReport:
        """Re-check the dirty subset and report over the whole corpus.

        ``names`` restricts the submission to particular units (clean ones
        among them are served from resident state like any other).
        """
        started = time.perf_counter()
        with self._lock:
            wanted = None
            if names is not None:
                wanted = {_normalize(name, self.root) for name in names}
            order = sorted(self._units)
            candidates = [
                name
                for name in order
                # never-checked units are always submitted (the report spans
                # the whole corpus, so each unit needs at least one result)
                if self._units[name].head is None
                or (name in self._dirty and (wanted is None or name in wanted))
            ]
            rechecked = bool(candidates) and all(
                self._units[name].head is not None for name in candidates
            )
            requests = [self._units[name].request for name in candidates]
            with span("engine-check", cat="phase", dirty=len(candidates)):
                sub = run_batch(
                    requests, jobs=jobs or self.jobs, cache=self.cache
                )
            submitted: dict[str, tuple[CheckResult, str]] = {}
            for name, result in zip(candidates, sub.results):
                data = result.to_dict()
                self._units[name].keep(data)
                self._dirty.discard(name)
                submitted[name] = (result, _encode(data))
            self.checks_run += 1
            if candidates:
                # resident rows changed: a memo of the pre-check
                # report (ran/reused/results) must not be replayed
                self._bump_revision()
            return self._report(
                started,
                jobs or self.jobs,
                submitted,
                cache_evictions=sub.cache_evictions,
                rechecked=rechecked,
            )

    def settled(self, report: IncrementalReport) -> Optional[IncrementalReport]:
        """The report an unchanged re-check gives right after ``report``:
        every unit served from resident state, nothing submitted.

        ``None`` once the engine has moved past ``report``'s revision,
        whose state can then no longer be read."""
        started = time.perf_counter()
        with self._lock:
            if self.revision != report.revision:
                return None
            return self._report(started, report.jobs, {})

    def _report(
        self,
        started: float,
        jobs: int,
        submitted: dict[str, tuple[CheckResult, str]],
        *,
        cache_evictions: int = 0,
        rechecked: bool = False,
    ) -> IncrementalReport:
        """The corpus report: the fresh row of each ``submitted`` result
        (given with its encoding, in submission order), and for every
        other unit its resident row with the measured ``probe_seconds``
        of serving it."""
        order = sorted(self._units)
        rows: list[str] = []
        tally = DiagnosticBag().tally()
        for name in order:
            served = time.perf_counter()
            state = self._units[name]
            for column, count in state.tally.items():
                tally[column] += count
            if name in submitted:
                rows.append(submitted[name][1])
            else:
                # serving from resident state is this check's only cost for
                # the unit; unlike wall_seconds it is measured, never 0.0
                probe = time.perf_counter() - served
                rows.append(f"{state.head}{probe!r}{state.tail}")
        fresh = [result for result, _row in submitted.values()]
        return IncrementalReport(
            rows=rows,
            tally=tally,
            hits=len(order) - len(fresh) + sum(r.from_cache for r in fresh),
            misses=sum(
                not r.from_cache and r.cache_tier != "coalesced" for r in fresh
            ),
            elapsed_seconds=time.perf_counter() - started,
            jobs=jobs,
            cache_evictions=cache_evictions,
            checked=list(submitted),
            ran=[
                name
                for name, (result, _row) in submitted.items()
                if not result.from_cache
            ],
            reused=len(order) - len(submitted),
            # a restricted check leaves excluded dirty units stale:
            # their rows above are pre-edit results, not fresh ones
            stale=sorted(self._dirty),
            revision=self.revision,
            rechecked=rechecked,
        )

    # -- linking --------------------------------------------------------------

    def link(
        self, *, jobs: Optional[int] = None
    ) -> tuple[IncrementalReport, LinkReport]:
        """Bring the corpus up to date, then link its resident summaries.

        The check phase only re-analyzes dirty units (summaries ride the
        per-unit results through every cache tier), so a link after one
        edit costs one re-summarize plus a pass over summaries — never a
        second pass over sources.
        """
        report = self.check(jobs=jobs)
        with self._lock, span("link", cat="phase", units=len(self._units)):
            linker = Linker()
            for name in sorted(self._units):
                state = self._units[name]
                if state.summary and not state.failed:
                    linker.add_dict(state.summary)
            host = host_summary(self._boundary, self._host_tuple())
            if host is not None:
                linker.add_host(host)
            link_report = linker.report()
            self._last_link = {
                **link_report.tally(),
                "units": link_report.units,
            }
            return report, link_report

    # -- introspection --------------------------------------------------------

    @property
    def unit_names(self) -> list[str]:
        with self._lock:
            return sorted(self._units)

    @property
    def dirty(self) -> set[str]:
        with self._lock:
            return set(self._dirty)

    def _bump_revision(self) -> None:
        with self._revision_lock:
            self._revision += 1

    @property
    def revision(self) -> int:
        """Current state revision (see ``_revision``); reading it before
        a coalescer lookup is what makes memoized responses safe.  Reads
        take only the revision lock, never the engine lock, so keying a
        request never waits behind an in-flight analysis (a bump that
        lands mid-check only makes the memoed state *newer* than its
        key, which is the safe direction)."""
        with self._revision_lock:
            return self._revision

    def dependencies(self, name: str | os.PathLike) -> frozenset[str]:
        with self._lock:
            return self.graph.dependencies(_normalize(name, self.root))

    def status(self) -> dict:
        with self._lock:
            return {
                "root": str(self.root),
                "dialect": self.dialect,
                "units": len(self._units),
                "hosts": len(self._hosts),
                "dirty": sorted(self._dirty),
                "checks_run": self.checks_run,
                "revision": self._revision,
                "jobs": self.jobs,
                # memory-relevant residency: every unit keeps its request,
                # checked ones also keep an encoded result row
                "resident_units": sum(
                    1 for state in self._units.values() if state.head is not None
                ),
                "graph": self.graph.stats(),
                "link": dict(self._last_link) if self._last_link else None,
                "uptime_seconds": round(
                    time.monotonic() - self.started_monotonic, 3
                ),
                "cache": self.cache_status(),
            }

    def cache_status(self) -> dict:
        """Per-tier hit/miss breakdown plus totals, for ``status`` and
        the ``metrics`` exposition."""
        memory = self.memory.stats()
        # the cold tier (disk, or null under --no-cache) reports under
        # the stable "disk" key, with the real tier named
        cold = (
            self.cold.stats()
            if hasattr(self.cold, "stats")
            else {
                "hits": getattr(self.cold, "hits", 0),
                "misses": getattr(self.cold, "misses", 0),
                "evictions": getattr(self.cold, "evictions", 0),
            }
        )
        return {
            "memory": memory,
            "disk": cold,
            "cold_tier": getattr(self.cold, "tier", "disk"),
            "hits": memory.get("hits", 0) + cold.get("hits", 0),
            "misses": cold.get("misses", 0),
        }
