"""High-level entry points tying the two phases together.

This is the library's public face, mirroring §5.1's two-tool pipeline:
the OCaml tool builds the type repository and ``Γ_I``; the C tool lowers
the glue code and runs the multi-lingual inference.  Both the single-shot
(:meth:`Project.analyze`) and batched (:meth:`Project.analyze_batch`)
paths delegate to :mod:`repro.engine`, so one analysis implementation
serves the library API, the CLI, and the parallel batch driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .boundary import get_dialect, lower_units
from .cfront.ir import ProgramIR
from .corpus import scan_tree
from .core.checker import AnalysisReport, InitialEnv
from .core.exprs import Options
from .defaults import DEFAULT_MAX_ENTRIES
from .engine.jobs import BatchReport, CheckRequest
from .engine.worker import analyze_request
from .source import SourceFile

if TYPE_CHECKING:
    from .engine.incremental import IncrementalReport
    from .engine.stream import Cache
    from .ocamlfront.repository import TypeRepository

SourceLike = Union[str, SourceFile]


def _as_source(source: SourceLike, default_name: str) -> SourceFile:
    if isinstance(source, SourceFile):
        return source
    return SourceFile(default_name, source)


@dataclass
class Project:
    """A multi-lingual project: host-language sources plus C glue sources.

    ``dialect`` selects the boundary being checked (``"ocaml"`` by
    default, ``"pyext"`` for CPython extension modules); it travels with
    every :class:`CheckRequest` the project produces.  ``ocaml_sources``
    holds the host-language side regardless of dialect — for pyext the
    list is simply empty, since the boundary contract (``PyMethodDef``
    tables) lives in the C sources themselves.
    """

    ocaml_sources: list[SourceFile] = field(default_factory=list)
    c_sources: list[SourceFile] = field(default_factory=list)
    dialect: str = "ocaml"

    def add_ocaml(self, source: SourceLike, name: str = "glue.ml") -> "Project":
        self.ocaml_sources.append(_as_source(source, name))
        return self

    def add_c(self, source: SourceLike, name: str = "glue.c") -> "Project":
        self.c_sources.append(_as_source(source, name))
        return self

    @classmethod
    def from_directory(
        cls, root: str | Path, dialect: str = "ocaml"
    ) -> "Project":
        """Scan ``root`` recursively using the dialect's suffix map: host
        sources (``.ml``/``.mli`` for OCaml) feed the type repository,
        every ``.c`` becomes a translation unit.

        Files that cannot be decoded as text and files with no content are
        skipped with a :class:`UserWarning` — a stray binary or an empty
        placeholder must not sink a directory sweep.
        """
        project = cls(dialect=dialect)
        scan = scan_tree(root, get_dialect(dialect))
        project.ocaml_sources.extend(scan.hosts)
        project.c_sources.extend(scan.units)
        return project

    def build_repository(self) -> TypeRepository:
        from .ocamlfront.repository import TypeRepository

        repo = TypeRepository.with_stdlib()
        for source in self.ocaml_sources:
            repo.add_source(source)
        return repo

    def _parsed(self):
        """The project's dialect and its C sources, parsed by it."""
        dialect = get_dialect(self.dialect)
        return dialect, [dialect.parse(source) for source in self.c_sources]

    def build_initial_env(self) -> InitialEnv:
        """``Γ_I``, built by the dialect's host phase."""
        dialect, units = self._parsed()
        return dialect.initial_env(self.to_request(), units)

    def lower(self) -> ProgramIR:
        """The C sources, lowered by the dialect's hook."""
        dialect, units = self._parsed()
        return lower_units(dialect, units)

    # -- engine integration ----------------------------------------------------

    def to_request(
        self,
        options: Optional[Options] = None,
        name: str = "<project>",
        *,
        trace: bool = False,
    ) -> CheckRequest:
        """The whole project as one translation unit (single-shot path).

        ``trace=True`` asks the worker to record phase spans onto the
        result (see :mod:`repro.telemetry`); it never changes the
        analysis or its cache key.
        """
        return CheckRequest(
            name=name,
            c_sources=tuple(self.c_sources),
            ocaml_sources=tuple(self.ocaml_sources),
            options=options or Options(),
            dialect=self.dialect,
            trace=trace,
        )

    def to_requests(
        self, options: Optional[Options] = None, *, trace: bool = False
    ) -> list[CheckRequest]:
        """One :class:`CheckRequest` per C file, sharing the OCaml side.

        This is the batch decomposition: the repository inputs travel with
        every unit (workers memoize parsing them), and each C file is
        analyzed — and cached — independently.
        """
        options = options or Options()
        return [
            replace(
                self.to_request(options, name=source.filename, trace=trace),
                c_sources=(source,),
            )
            for source in self.c_sources
        ]

    def analyze(self, options: Optional[Options] = None) -> AnalysisReport:
        """Run both phases and return the full report."""
        return analyze_request(self.to_request(options))

    def analyze_batch(
        self,
        options: Optional[Options] = None,
        *,
        jobs: int = 1,
        cache: Optional[Cache] = None,
        trace: bool = False,
    ) -> BatchReport:
        """Analyze every C file as its own unit via the batch engine."""
        from .engine.scheduler import run_batch

        return run_batch(
            self.to_requests(options, trace=trace), jobs=jobs, cache=cache
        )


class Session:
    """A long-lived incremental analysis session.

    This is the library face of the persistent service: it owns one
    :class:`~repro.engine.IncrementalEngine` (resident host environment,
    per-unit requests, dependency graph, and a memory result tier over an
    optional on-disk cold cache) and exposes the daemon's lifecycle as
    plain method calls::

        with Session("src/glue", dialect="ocaml", cache_dir=".mlffi-cache") as s:
            first = s.check()            # cold: every unit analyzed
            s.invalidate(["src/glue/stubs.c"])   # after an edit
            second = s.check()           # warm: only stubs.c re-runs

    ``service()`` upgrades the session to the JSON-RPC surface
    (:class:`repro.server.AnalysisService`) without a separate process —
    useful for driving the exact wire semantics in-process.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        dialect: str = "ocaml",
        options: Optional[Options] = None,
        jobs: int = 1,
        cache_dir: Optional[str | Path] = None,
        cache: Optional[Cache] = None,
        memory_max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
    ):
        from .engine.cache import NullCache, ResultCache
        from .engine.incremental import IncrementalEngine

        if cache is None:
            cache = ResultCache(cache_dir) if cache_dir is not None else NullCache()
        self.engine = IncrementalEngine(
            root,
            dialect=dialect,
            options=options,
            jobs=jobs,
            cache=cache,
            memory_max_entries=memory_max_entries,
        )
        self._service = None
        self._closed = False

    # -- daemon lifecycle ------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release resident state; further calls raise ``RuntimeError``."""
        self._closed = True
        self.engine.memory.clear()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # -- operations ------------------------------------------------------------

    def check(
        self, paths: Optional[Sequence[str | Path]] = None
    ) -> IncrementalReport:
        """Incrementally re-check (optionally restricted to ``paths``)."""
        self._require_open()
        return self.engine.check(paths)

    def invalidate(self, paths: Sequence[str | Path]) -> set[str]:
        """Tell the session ``paths`` changed; returns affected units."""
        self._require_open()
        return self.engine.invalidate(paths)

    def reload(self) -> set[str]:
        """Rescan the whole tree (e.g. after a branch switch)."""
        self._require_open()
        return self.engine.reload()

    def status(self) -> dict:
        self._require_open()
        return self.engine.status()

    def link(self):
        """Re-check what is dirty, then link the whole corpus's interface
        summaries; returns ``(IncrementalReport, LinkReport)``."""
        self._require_open()
        return self.engine.link()

    def service(self):
        """The JSON-RPC face of this session (lazily constructed)."""
        self._require_open()
        if self._service is None:
            from .server import AnalysisService

            self._service = AnalysisService(self.engine)
        return self._service


def analyze_project(
    ocaml_sources: Sequence[SourceLike],
    c_sources: Sequence[SourceLike],
    options: Optional[Options] = None,
) -> AnalysisReport:
    """Analyze OCaml + C sources given as text or :class:`SourceFile`."""
    project = Project()
    for index, source in enumerate(ocaml_sources):
        project.add_ocaml(source, f"input{index}.ml")
    for index, source in enumerate(c_sources):
        project.add_c(source, f"input{index}.c")
    return project.analyze(options)


def check_c_source(
    c_text: str,
    ocaml_text: str = "",
    options: Optional[Options] = None,
) -> AnalysisReport:
    """One-shot convenience: analyze a single C file (plus optional .ml)."""
    ocaml_sources: list[SourceLike] = [ocaml_text] if ocaml_text else []
    return analyze_project(ocaml_sources, [c_text], options)
