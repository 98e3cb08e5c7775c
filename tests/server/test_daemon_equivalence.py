"""Mode equivalence: the daemon after any edit sequence agrees with a
cold sweep of the same tree.

Hypothesis draws a corpus (which filler and defect templates its units
use) and a sequence of edits: a unit toggled between its clean filler
and its defect, a shared-header edit, a host edit that adds or drops
one unit's externals, a unit added and a unit deleted.  After each edit
the daemon (:meth:`AnalysisService.handle_line`) is told what changed
and re-checks; every unit row of its reply must equal a cold
:func:`repro.engine.run_batch` of the tree as it now stands, apart from
timing and cache-provenance fields.  The unchanged re-check that
follows (the coalescer's settled memo, where one is on file) must equal
an uncoalesced re-check apart from timing fields.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.defects import DEFECT_TEMPLATES, FILLER_TEMPLATES
from repro.boundary import get_dialect
from repro.corpus import scan_tree
from repro.engine import CheckRequest, IncrementalEngine, run_batch
from repro.server import AnalysisService

#: units a corpus can hold; the first ``INITIAL`` exist from the start
POOL = 5
INITIAL = 3
KINDS = sorted(DEFECT_TEMPLATES)
TIMING = {"elapsed_seconds", "wall_seconds", "probe_seconds"}
#: how a row was served, not what it says
PROVENANCE = TIMING | {"cache_key", "from_cache", "cache_tier"}

EDITS = st.tuples(
    st.sampled_from(("toggle", "header", "host", "add", "delete")),
    st.integers(0, POOL - 1),
)


class Corpus:
    """A generated tree: one ``lib.ml``, one shared header, and up to
    ``POOL`` units that each include it."""

    def __init__(self, root: Path, rotation: int):
        self.root = root
        self.units = {}
        for i in range(POOL):
            base = 1000 + 10 * i
            filler = FILLER_TEMPLATES[(i + rotation) % len(FILLER_TEMPLATES)](base)
            defect = DEFECT_TEMPLATES[KINDS[(i + rotation) % len(KINDS)]](base + 1)
            self.units[i] = (filler, defect)
        self.defect_on: set[int] = set()
        self.declared = set(range(POOL))
        self.edits = 0
        self.write_host()
        self.write_header()
        for i in range(INITIAL):
            self.write_unit(i)

    def unit_path(self, i: int) -> Path:
        return self.root / f"unit{i}.c"

    def write_unit(self, i: int) -> Path:
        filler, defect = self.units[i]
        body = defect.c if i in self.defect_on else filler.c
        self.edits += 1
        path = self.unit_path(i)
        path.write_text(
            '#include <caml/mlvalues.h>\n#include "shared.h"\n'
            f"{body}/* edit {self.edits} */\n"
        )
        return path

    def write_host(self) -> Path:
        path = self.root / "lib.ml"
        path.write_text(
            "".join(
                glue.ml
                for i in sorted(self.declared)
                for glue in self.units[i]
            )
        )
        return path

    def write_header(self) -> Path:
        self.edits += 1
        path = self.root / "shared.h"
        path.write_text(f"/* revision {self.edits} */\n#define GLUE_REV {self.edits}\n")
        return path

    def apply(self, kind: str, i: int):
        """Make one edit; the path it touched, or ``None`` for no edit."""
        exists = self.unit_path(i).exists()
        if kind == "toggle" and exists:
            self.defect_on ^= {i}
            return self.write_unit(i)
        if kind == "header":
            return self.write_header()
        if kind == "host":
            self.declared ^= {i}
            return self.write_host()
        if kind == "add" and not exists:
            return self.write_unit(i)
        if kind == "delete" and exists:
            self.unit_path(i).unlink()
            return self.unit_path(i)
        return None

    def cold_rows(self) -> list[dict]:
        scan = scan_tree(self.root, get_dialect("ocaml"))
        hosts = tuple(scan.hosts)
        requests = [
            CheckRequest(name=s.filename, c_sources=(s,), ocaml_sources=hosts)
            for s in scan.units
        ]
        return [r.to_dict() for r in run_batch(requests, jobs=1).results]


def _outcome(row: dict) -> dict:
    return {key: value for key, value in row.items() if key not in PROVENANCE}


def _untimed(result: dict) -> dict:
    units = [
        {key: value for key, value in row.items() if key not in TIMING}
        for row in result["units"]
    ]
    return {**result, "elapsed_seconds": 0.0, "units": units}


@settings(max_examples=12, deadline=None)
@given(rotation=st.integers(0, 50), edits=st.lists(EDITS, max_size=6))
def test_daemon_replies_match_a_cold_sweep(rotation, edits):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Corpus(Path(tmp), rotation)
        service = AnalysisService(IncrementalEngine(corpus.root))
        frames = iter(range(1, 1 << 20))

        def check() -> dict:
            frame = json.dumps({"id": next(frames), "method": "check"})
            return json.loads(service.handle_line(frame))["result"]

        for step in [None, *edits]:
            if step is not None:
                path = corpus.apply(*step)
                if path is not None:
                    frame = {"method": "invalidate", "params": {"paths": [str(path)]}}
                    service.handle_line(json.dumps({"id": 0, **frame}))
            reply = check()
            cold = corpus.cold_rows()
            assert [_outcome(u) for u in reply["units"]] == [
                _outcome(row) for row in cold
            ], step
            assert reply["tally"] == {
                column: sum(row["tally"][column] for row in cold)
                for column in reply["tally"]
            }, step
            settled = check()
            direct = service.handle(json.dumps({"id": 0, "method": "check"}))
            assert _untimed(settled) == _untimed(direct["result"]), step
