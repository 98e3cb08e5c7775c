"""Known-answer verdict oracles.

Each oracle compares what the checker reported with the answer the
inputs were built to carry, and returns ``None`` on a match or a
one-line reason on a mismatch.  A mismatch fails the run.
"""

from __future__ import annotations

from typing import Optional

from inputs import COLUMNS, LinkCorpus, Program


def _tally_mismatch(reported: dict, expected: dict) -> Optional[str]:
    got = {column: reported.get(column, 0) for column in COLUMNS}
    want = {column: expected.get(column, 0) for column in COLUMNS}
    if got == want:
        return None
    return f"tally {got} != expected {want}"


def check_program(program: Program, document: dict) -> Optional[str]:
    """A one-shot ``check --format json`` document against the
    program's planted (Figure 9) or hand-seeded (examples) tally."""
    reason = _tally_mismatch(document.get("tally", {}), program.expected)
    return f"{program.name}: {reason}" if reason else None


def check_link(corpus: LinkCorpus, document: dict) -> Optional[str]:
    """A ``link --format json`` document: exactly ``plants`` of each
    planted link kind, nothing else, and no per-unit diagnostics."""
    counts: dict[str, int] = {}
    for diagnostic in document["link"]["diagnostics"]:
        counts[diagnostic["kind"]] = counts.get(diagnostic["kind"], 0) + 1
    if counts != corpus.expected_link():
        return f"link kinds {counts} != expected {corpus.expected_link()}"
    stream = document["stream"]
    if stream.get("failures"):
        return f"{stream['failures']} unit failure(s)"
    if stream.get("units") != corpus.c_units:
        return f"swept {stream.get('units')} units, corpus has {corpus.c_units}"
    return _tally_mismatch(stream.get("tally", {}), {})


def check_daemon(expected: dict, reply: dict) -> Optional[str]:
    """A daemon ``check`` reply: the corpus tally must equal the sum
    over the defects currently toggled on."""
    if "error" in reply:
        return f"rpc error {reply['error']}"
    result = reply.get("result", {})
    failures = [u["name"] for u in result.get("units", ()) if u.get("failure")]
    if failures:
        return f"unit failure(s): {failures[:3]}"
    return _tally_mismatch(result.get("tally", {}), expected)
