"""Byte-for-byte golden for ``mlffi-check --help`` and every subcommand's.

The help text is built from the parser alone (flag names, choices such
as ``--dialect {jni,ocaml,pyext,rust}``, and defaults such as
``--workers``/``--max-queue``), so this pins the parser against changes
to where those values come from.  Rendered at a fixed 80 columns; the
golden is byte-exact on Python 3.10-3.12.  Python 3.13 renders an option
with aliases as ``--cache-dir, --shared-store DIR`` (not
``--cache-dir DIR, --shared-store DIR``) and wraps a long usage line
differently, so there :func:`comparable` folds the alias spelling back
and compares word by word.  Regenerate after an intended change with::

    PYTHONPATH=src python tests/test_cli_help.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent / "goldens" / "cli_help.txt"

SUBCOMMANDS = (
    "check",
    "batch",
    "link",
    "serve",
    "watch",
    "rules",
    "conformance",
    "bench",
    "warmup",
    "example",
)
CASES = (("--help",), *((command, "--help") for command in SUBCOMMANDS))

_ALIASES = re.compile(r"(--[\w-]+), (--[\w-]+) ([A-Z][A-Z_]*)")


def comparable(text: str) -> str | list[str]:
    """``text`` itself before Python 3.13; its words, with the 3.13
    alias spelling folded back, from 3.13 on."""
    if sys.version_info < (3, 13):
        return text
    return _ALIASES.sub(r"\1 \3, \2 \3", text).split()


def render(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
    return f"{out.getvalue()}[exit {exit_info.value.code}]\n"


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


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_golden_covers_every_case():
    assert sorted(_golden_sections()) == sorted(_header(case) for case in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_help_matches_the_golden(argv):
    golden = _golden_sections()[_header(argv)]
    assert comparable(render(argv)) == comparable(golden)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(_header(case) + render(case) for case in CASES))
    print(f"wrote {len(CASES)} case(s) to {GOLDEN}")
