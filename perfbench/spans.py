"""Spans recorded from outside the program, around the calls into each layer.

The traced run patches a layer's public function at the name its caller
binds (``repro.ocamlfront.dialect.build_initial_env``, not the defining
module), so the program itself is unchanged and its own telemetry stays
off.  Spans stay in memory and are written out once, as a Chrome trace.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Recorder:
    """An in-memory span tree for one single-threaded traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        record = Span(
            id=len(self.spans), name=name, start=self.clock(),
            parent=parent, args=args,
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str, on_return=None) -> Callable:
        """``fn`` inside a span; ``on_return(recorder, result, args)``
        may add counts measured where the work happened."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_return))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def _children(self) -> dict[int, list[Span]]:
        children: dict[int, list[Span]] = {}
        for record in self.spans:
            if record.parent is not None:
                children.setdefault(record.parent, []).append(record)
        return children

    def _ancestors(self, record: Span) -> Iterator[Span]:
        parent = record.parent
        while parent is not None:
            # ids are list positions, so the parent is an index
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def has_ancestor(self, record: Span, name: str) -> bool:
        return any(a.name == name for a in self._ancestors(record))

    def within(self, root: Span) -> Callable[[Span], bool]:
        """A ``where`` filter for spans recorded under ``root``."""
        return lambda record: any(a.id == root.id for a in self._ancestors(record))

    def find(self, name: str, **args) -> Span:
        """The first ``name`` span whose args include ``args``."""
        return next(
            s for s in self.spans
            if s.name == name and all(s.args.get(k) == v for k, v in args.items())
        )

    def total(self, name: str, where: Optional[Callable[[Span], bool]] = None) -> float:
        """Summed duration of ``name`` spans, counting a recursive call
        (a ``name`` span inside another) only once."""
        return sum(
            record.duration
            for record in self.spans
            if record.name == name
            and (where is None or where(record))
            and not self.has_ancestor(record, name)
        )

    def self_time(self, *names: str) -> float:
        """Summed self time of the named spans: each span's duration
        minus the part of it that its child spans cover."""
        children = self._children()
        seconds = 0.0
        for record in self.spans:
            if record.name not in names:
                continue
            kids = [(kid.start, kid.end) for kid in children.get(record.id, ())]
            seconds += record.duration - _covered(kids)
        return seconds

    def calls(self, name: str) -> int:
        return sum(1 for record in self.spans if record.name == name)

    # -- export ---------------------------------------------------------------

    def chrome_events(self) -> list[dict]:
        if not self.spans:
            return []
        origin = min(record.start for record in self.spans)
        return [
            {
                "name": record.name,
                "ph": "X",
                "ts": round((record.start - origin) * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": record.id, "parent": record.parent, **record.args},
            }
            for record in self.spans
        ]

    def write_chrome(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}
        path.write_text(json.dumps(document))


def phase_totals(trace_path: Path) -> dict[str, float]:
    """Per-phase seconds from a program-written ``--trace-out`` file
    (complete events only; nested same-name events counted once)."""
    events = json.loads(Path(trace_path).read_text())
    if isinstance(events, dict):
        events = events.get("traceEvents", [])
    totals: dict[str, float] = {}
    for event in events:
        if event.get("ph") == "X":
            totals[event["name"]] = totals.get(event["name"], 0.0) + event.get("dur", 0) / 1e6
    return totals
