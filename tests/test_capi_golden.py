"""Byte-for-byte goldens for the C-contract dialects (pyext and jni).

Pins what the two dialects that read their boundary contract out of the
C sources report, so a refactor of the machinery they share — the idiom
rewrite, the reference-discipline pass, the runtime tables — cannot move
a diagnostic, a message, a span, an inferred signature or an exit code
unnoticed:

* ``check --format json`` over every file in ``examples/pyext`` and
  ``examples/jni``;
* ``batch --link --format json`` over ``examples/link/{pyext,jni}``;
* the synthesized corpora of ``tests/test_dialect_detection.py``, one
  unit at a time.

Commands run from ``examples/`` with relative paths; timings and the
checkout prefix are the only normalized values.  Regenerate after an
intended output change with::

    PYTHONPATH=src python tests/test_capi_golden.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.worker import run_request

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
GOLDEN = Path(__file__).resolve().parent / "goldens" / "capi_outputs.txt"

DIALECTS = ("pyext", "jni")

_SECONDS = re.compile(
    r'("\w*(?:elapsed_seconds|wall_seconds|probe_seconds)": )[-+.\deE]+'
)


def _detection_module():
    """``tests/test_dialect_detection.py``, loaded by path: the importlib
    import mode keeps test directories off ``sys.path``."""
    path = Path(__file__).resolve().parent / "test_dialect_detection.py"
    spec = importlib.util.spec_from_file_location("_capi_detection", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def normalize(text: str) -> str:
    text = _SECONDS.sub(r"\g<1>0.0", text)
    return text.replace(str(ROOT), "<ROOT>")


def _cli_cases() -> list[tuple[str, ...]]:
    cases: list[tuple[str, ...]] = []
    for dialect in DIALECTS:
        for path in sorted((EXAMPLES / dialect).glob("*.c")):
            cases.append(
                ("check", "--dialect", dialect, "--format", "json",
                 f"{dialect}/{path.name}")
            )
    for dialect in DIALECTS:
        cases.append(
            ("batch", f"link/{dialect}", "--dialect", dialect, "--link",
             "--format", "json", "--no-cache")
        )
    return cases


CLI_CASES = _cli_cases()


def _corpus_cases() -> list[tuple[str, str]]:
    detection = _detection_module()
    return [
        (dialect, request.name)
        for dialect in DIALECTS
        for request, _expected in detection.build_corpus(dialect)
    ]


CORPUS_CASES = _corpus_cases()


def run_cli(argv: tuple[str, ...]) -> str:
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


def run_unit(dialect: str, name: str) -> str:
    """One synthesized unit's result, analyzed on its own."""
    detection = _detection_module()
    (request,) = [
        request
        for request, _expected in detection.build_corpus(dialect)
        if request.name == name
    ]
    result = run_request(request)
    return normalize(json.dumps(result.to_dict(), indent=2, sort_keys=True)) + "\n"


def _cli_header(argv: tuple[str, ...]) -> str:
    return "$ mlffi-check " + " ".join(argv) + "\n"


def _unit_header(dialect: str, name: str) -> str:
    return f"$ unit {dialect} {name}\n"


def _render_all() -> str:
    parts = [_cli_header(case) + run_cli(case) for case in CLI_CASES]
    parts += [
        _unit_header(dialect, name) + run_unit(dialect, name)
        for dialect, name in CORPUS_CASES
    ]
    return "".join(parts)


def _golden_sections() -> dict[str, str]:
    sections: dict[str, str] = {}
    header = None
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith(("$ mlffi-check ", "$ unit ")):
            header = line
            sections[header] = ""
        else:
            sections[header] += line
    return sections


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return _golden_sections()


def test_golden_covers_every_case(golden):
    expected = [_cli_header(case) for case in CLI_CASES]
    expected += [_unit_header(*case) for case in CORPUS_CASES]
    assert list(golden) == expected


@pytest.mark.parametrize("argv", CLI_CASES, ids=" ".join)
def test_cli_output_matches_the_golden(argv, golden, capsys):
    actual = run_cli(argv)
    capsys.readouterr()
    assert actual == golden[_cli_header(argv)]


@pytest.mark.parametrize("case", CORPUS_CASES, ids=" ".join)
def test_unit_result_matches_the_golden(case, golden):
    assert run_unit(*case) == golden[_unit_header(*case)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_render_all())
    print(f"wrote {len(CLI_CASES) + len(CORPUS_CASES)} case(s) to {GOLDEN}")
