"""Request coalescing for the analysis service.

Fleet traffic is massively redundant: hundreds of editor and CI clients
asking the same daemon to ``check`` the same tree produce identical
requests, and re-running (or even re-serializing) the answer per client
throws away almost all of the warm path's headroom.  The
:class:`CheckCoalescer` deduplicates that work at two levels:

* **in-flight sharing** — identical concurrent ``check`` requests (same
  params digest at the same engine revision) elect one *leader* that
  computes; every *follower* waits on the leader's future and receives
  the same pre-encoded result fragment.
* **revision memo** — once a check completes, its encoded result stays
  valid until the engine's revision changes (an ``invalidate``, a
  ``reload``, or a check that actually re-analyzed something bumps it).
  Repeat requests at the same revision are served straight from the
  memo: no engine lock, no re-serialization, just an id splice.  A
  check that re-ran edited units moves the engine to a new revision, so
  its leader also files, under that revision, the response an unchanged
  re-check gives there (:meth:`CheckCoalescer.remember`): the first
  re-check after an edit is a memo hit too.

Entries are keyed on ``(params digest, engine revision)``, so a check
that races an invalidation can only ever observe *fresher* results than
its key implies, never staler: the revision is read before the lookup,
and publications always carry state at least as new as the revision
they are filed under.  Revisions only grow, so an entry under an older
revision can never be probed again: the memo holds only the newest
revision it has filed under, dropping the older ones and never filing
under one of them.  Its LRU cap bounds the entries within that revision.

The shared payload is the *encoded result fragment* (a stable-JSON
string, itself spliced from the engine's resident per-unit rows by
:meth:`repro.engine.IncrementalReport.encode`), not a Python object —
consumers splice their own request id around it
(:func:`repro.server.protocol.splice_result`), which keeps fan-out
O(bytes) and guarantees every client sees byte-identical diagnostics.

Futures are :class:`concurrent.futures.Future`, so synchronous
transports block on ``result()`` while the asyncio daemon awaits them
via ``asyncio.wrap_future`` without occupying a worker thread.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Hashable, Optional, Union

#: completed results remembered per coalescer at one engine revision;
#: one entry per distinct params digest is typical, so this is ample
DEFAULT_MEMO_ENTRIES = 64


class InflightEntry:
    """One computation in progress: its key and the future it resolves."""

    __slots__ = ("key", "future")

    def __init__(self, key: Hashable):
        self.key = key
        self.future: "Future[str]" = Future()


class CheckCoalescer:
    """Deduplicates identical ``check`` computations across clients.

    Thread-safe.  The protocol is two-step so transports can apply
    backpressure between them::

        probed = coalescer.probe(key)      # memo string or entry or None
        # ... None means a computation is needed: check queue capacity,
        # shed here if the daemon is saturated ...
        role, entry = coalescer.begin(key)  # "leader" computes, then
        coalescer.resolve(entry, fragment)  # publishes to all followers
    """

    def __init__(self, memo_entries: int = DEFAULT_MEMO_ENTRIES):
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, InflightEntry] = {}
        self._memo: "OrderedDict[Hashable, str]" = OrderedDict()
        self._memo_entries = memo_entries
        #: the engine revision every memo entry is filed under
        self._memo_revision: Optional[int] = None
        #: check requests that received a (shared or fresh) result
        self.requests = 0
        #: requests that actually computed (coalescing leaders)
        self.computed = 0
        #: requests served by waiting on an in-flight leader
        self.coalesced_inflight = 0
        #: requests served straight from the revision memo
        self.coalesced_memo = 0

    # -- lookup ---------------------------------------------------------------

    def probe(self, key: Hashable) -> Optional[Union[str, InflightEntry]]:
        """Non-blocking lookup: a memoized fragment, an in-flight entry
        to wait on, or ``None`` when a new computation is needed.

        Only the first two count as served requests; a ``None`` caller
        is expected to come back through :meth:`begin` (or be shed)."""
        with self._lock:
            fragment = self._memo.get(key)
            if fragment is not None:
                self._memo.move_to_end(key)
                self.requests += 1
                self.coalesced_memo += 1
                return fragment
            entry = self._inflight.get(key)
            if entry is not None:
                self.requests += 1
                self.coalesced_inflight += 1
                return entry
            return None

    def begin(self, key: Hashable) -> tuple[str, InflightEntry]:
        """Join or start the computation for ``key``.

        Returns ``("leader", entry)`` for the caller that must compute
        and :meth:`resolve` the entry, or ``("follower", entry)`` when
        another caller won the race after this one's :meth:`probe`."""
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None:
                self.requests += 1
                self.coalesced_inflight += 1
                return "follower", entry
            entry = InflightEntry(key)
            self._inflight[key] = entry
            self.requests += 1
            self.computed += 1
            return "leader", entry

    # -- publication ----------------------------------------------------------

    def resolve(self, entry: InflightEntry, fragment: str) -> None:
        """Leader publishes: memoize the fragment and wake every follower."""
        with self._lock:
            self._inflight.pop(entry.key, None)
            self._remember(entry.key, fragment)
        entry.future.set_result(fragment)

    def remember(self, key: Hashable, fragment: str) -> None:
        """Memoize ``fragment`` under ``key`` with no computation in flight
        (the caller vouches that it is the response for ``key``)."""
        with self._lock:
            self._remember(key, fragment)

    def _remember(self, key: Hashable, fragment: str) -> None:
        _digest, revision = key
        if self._memo_revision is not None and revision < self._memo_revision:
            return  # already superseded: no request can key on it again
        if revision != self._memo_revision:
            self._memo.clear()
            self._memo_revision = revision
        self._memo[key] = fragment
        self._memo.move_to_end(key)
        while len(self._memo) > self._memo_entries:
            self._memo.popitem(last=False)

    def fail(self, entry: InflightEntry, exc: BaseException) -> None:
        """Leader failed (or was shed): propagate to followers, memoize
        nothing — the next request retries the computation."""
        with self._lock:
            self._inflight.pop(entry.key, None)
        entry.future.set_exception(exc)

    # -- introspection --------------------------------------------------------

    def dedup_ratio(self) -> float:
        """Fraction of served check requests that shared a computation."""
        with self._lock:
            if self.requests == 0:
                return 0.0
            return 1.0 - (self.computed / self.requests)

    def stats(self) -> dict:
        with self._lock:
            requests = self.requests
            computed = self.computed
            return {
                "requests": requests,
                "computed": computed,
                "coalesced_inflight": self.coalesced_inflight,
                "coalesced_memo": self.coalesced_memo,
                "memo_entries": len(self._memo),
                "dedup_ratio": round(
                    1.0 - (computed / requests) if requests else 0.0, 4
                ),
            }
