"""Byte-for-byte goldens for the corpus-sweeping commands.

``batch`` (eager and ``--stream``, with and without ``--link``), ``link``
and ``conformance`` each render the same sweep in their own format; this
pins every one of those renderings over two checked-in corpora, so a
change to the sweep machinery underneath cannot move a byte of output or
an exit code unnoticed.

Commands run from ``examples/`` with relative paths, so unit names (and
the cache keys that hash them) render relative to ``examples/`` and the
golden compares equal from any checkout.  Timings are the only
normalized values.  Regenerate after an intended output change with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
GOLDEN = Path(__file__).resolve().parent / "goldens" / "cli_sweep.txt"

CORPORA = ("link/ocaml", "glue")


def _cases() -> list[tuple[str, ...]]:
    cases: list[tuple[str, ...]] = []
    for corpus in CORPORA:
        for fmt in ("text", "json", "sarif"):
            for link in ((), ("--link",)):
                cases.append(("batch", corpus, "--format", fmt, *link))
        for fmt in ("text", "json"):
            for link in ((), ("--link",)):
                cases.append(
                    ("batch", corpus, "--stream", "--format", fmt, *link)
                )
        for fmt in ("text", "json", "sarif"):
            cases.append(("link", corpus, "--format", fmt))
        cases.append(("link", corpus, "--quiet"))
        for fmt in ("text", "json", "sarif"):
            cases.append(("conformance", corpus, "--format", fmt))
    return [(*case, "--no-cache") for case in cases]


CASES = _cases()

_SECONDS = re.compile(
    r'("\w*(?:elapsed_seconds|wall_seconds|probe_seconds)": )[-+.\deE]+'
)
_FOOTER_TIME = re.compile(r" in \d+\.\d\ds\b")
_JOBS = re.compile(r'(jobs=|"jobs": )\d+')


def normalize(text: str) -> str:
    text = _SECONDS.sub(r"\g<1>0.0", text)
    return _FOOTER_TIME.sub(" in N.NNs", text)


def run(argv: tuple[str, ...]) -> str:
    """One command's normalized stdout plus its exit code, run from
    ``examples/``."""
    out = io.StringIO()
    previous = Path.cwd()
    os.chdir(EXAMPLES)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(previous)
    return f"{normalize(out.getvalue())}[exit {code}]\n"


def _header(argv: tuple[str, ...]) -> str:
    return "$ mlffi-check " + " ".join(argv) + "\n"


def _golden_sections() -> dict[str, str]:
    sections: dict[str, str] = {}
    header = None
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith("$ mlffi-check "):
            header = line
            sections[header] = ""
        else:
            sections[header] += line
    return sections


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return _golden_sections()


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_header(case) for case in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_the_golden(argv, golden, capsys):
    actual = run(argv)
    capsys.readouterr()
    assert actual == golden[_header(argv)]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_two_jobs_match_one_job(argv, capsys):
    # the pool changes who computes a unit, never what the sweep reports
    sequential = run((*argv, "--jobs", "1"))
    parallel = run((*argv, "--jobs", "2"))
    capsys.readouterr()
    assert _JOBS.sub(r"\g<1>N", parallel) == _JOBS.sub(r"\g<1>N", sequential)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(_header(case) + run(case) for case in CASES))
    print(f"wrote {len(CASES)} case(s) to {GOLDEN}")
