"""Project-tree scanning shared by the batch and incremental drivers.

One place decides what a corpus is: host-language sources (the dialect's
``host_suffixes``) feed the shared type repository, ``.c`` files
(:data:`repro.boundary.CORPUS_UNIT_SUFFIXES`) are translation units, and
files that cannot be decoded or have no content are skipped with a
:class:`UserWarning` — a stray binary or an empty placeholder must not
sink a sweep.  :meth:`repro.api.Project.from_directory`,
:meth:`repro.engine.IncrementalEngine.reload` and the streaming link
driver all go through here, so batch mode and the persistent service can
never disagree about which files a tree contains.

Two entry points share the walk: :func:`scan_tree` materializes every
source (the classic batch path), and :func:`iter_tree` loads only the
host side eagerly while yielding units lazily — the mega-corpus mode,
where holding 100k parsed units resident would defeat the bounded-memory
scheduler.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from .boundary import CORPUS_UNIT_SUFFIXES, BoundaryDialect
from .source import SourceFile


def read_source(
    path: str | Path, name: Optional[str] = None
) -> Optional[SourceFile]:
    """Load one source file, or ``None`` (with a warning) if unusable.

    ``name`` overrides the filename recorded on the :class:`SourceFile`
    (the incremental engine uses normalized absolute paths).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (UnicodeDecodeError, OSError) as exc:
        warnings.warn(
            f"skipping unreadable source {path}: {exc}", stacklevel=2
        )
        return None
    if not text.strip():
        warnings.warn(f"skipping empty source {path}", stacklevel=2)
        return None
    return SourceFile(name if name is not None else str(path), text)


@dataclass
class CorpusScan:
    """The usable sources found under one project root."""

    hosts: list[SourceFile] = field(default_factory=list)
    units: list[SourceFile] = field(default_factory=list)


@dataclass
class StreamScan:
    """A lazy corpus: eager hosts, unit *paths* resolved up front, unit
    *contents* loaded one at a time by :meth:`iter_units`.

    The host side stays eager because every unit's ``Γ_I`` needs it; the
    unit list stays paths-only so a 100k-unit tree costs a directory walk,
    not a corpus-sized read, before the first check runs.
    """

    hosts: list[SourceFile] = field(default_factory=list)
    unit_paths: list[Path] = field(default_factory=list)
    name_for: Callable[[Path], str] = str

    def __len__(self) -> int:
        return len(self.unit_paths)

    def iter_units(self) -> Iterator[SourceFile]:
        for path in self.unit_paths:
            source = read_source(path, self.name_for(path))
            if source is not None:
                yield source


def iter_tree(
    root: str | Path,
    dialect: BoundaryDialect,
    name_for: Callable[[Path], str] = str,
) -> StreamScan:
    """Walk ``root`` with the dialect's suffix map, hosts eager, units lazy."""
    scan = StreamScan(name_for=name_for)
    for path in sorted(Path(root).rglob("*")):
        if not path.is_file():
            continue
        if path.suffix in dialect.host_suffixes:
            source = read_source(path, name_for(path))
            if source is not None:
                scan.hosts.append(source)
        elif path.suffix in CORPUS_UNIT_SUFFIXES:
            scan.unit_paths.append(path)
    return scan


def scan_tree(
    root: str | Path,
    dialect: BoundaryDialect,
    name_for: Callable[[Path], str] = str,
) -> CorpusScan:
    """Walk ``root`` with the dialect's suffix map, in sorted order."""
    stream = iter_tree(root, dialect, name_for)
    return CorpusScan(hosts=stream.hosts, units=list(stream.iter_units()))
