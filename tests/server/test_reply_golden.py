"""Byte-for-byte golden of the daemon's ``check`` and ``link`` replies.

:meth:`AnalysisService.handle_line` serves every frame of a fixed edit
script over a small generated corpus: a first check, then a unit, a
header and a host edit, a new and a deleted unit, a ``units``-restricted
check that leaves a stale row, a linked check and the ``link`` RPC.
After each edit the unchanged re-check (the settled reply the
coalescer's memo serves) is recorded as well; a label ending in
``[memo]`` marks a reply the memo served.  Any change to how a reply
is assembled must leave every byte of these lines where it was.

Normalized: timing fields, the corpus root (unit names are absolute
paths) and ``cache_key`` (it hashes those absolute names).  Regenerate
after an intended output change with::

    PYTHONPATH=src python tests/server/test_reply_golden.py
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

from repro.engine import IncrementalEngine
from repro.server import AnalysisService

GOLDEN = Path(__file__).resolve().parent.parent / "goldens" / "daemon_replies.txt"

ML = (
    "type t = A of int | B\n"
    'external get : t -> int = "ml_get"\n'
    'external bad : int -> int = "ml_bad"\n'
    'external make : int -> int = "ml_make"\n'
    'external missing : int -> int = "ml_missing"\n'
)

FILES = {
    "lib.ml": ML,
    "shared.h": "/* shared header, revision 0 */\n#define GLUE_STEP 1\n",
    "good.c": (
        "value ml_get(value x)\n"
        "{\n"
        "    if (Is_long(x)) return Val_int(0);\n"
        "    return Field(x, 0);\n"
        "}\n"
    ),
    "bad.c": "value ml_bad(value x) { return Val_int(x); }\n",
    "hdr.c": (
        "#include <caml/mlvalues.h>\n"
        '#include "shared.h"\n'
        "\n"
        "value ml_make(value n)\n"
        "{\n"
        "    return Val_int(Int_val(n) + GLUE_STEP);\n"
        "}\n"
    ),
}

HEADER_EDIT = "/* shared header, revision 1 */\n#define GLUE_STEP 1\n"

FIXED_BAD_C = "value ml_bad(value x) { return Val_int(Int_val(x)); }\n"

EXTRA_C = (
    "value ml_extra(value n) { return Val_int(Int_val(n) * 2); }\n"
    "value ml_make(value n) { return Val_int(Int_val(n)); }\n"
)

_SECONDS = re.compile(
    r'("(?:elapsed_seconds|wall_seconds|probe_seconds)":)[-+.\deE]+'
)
_CACHE_KEY = re.compile(r'("cache_key":)"[0-9a-f]*"')


def _write(root: Path, name: str, text: str) -> None:
    (root / name).write_text(text)


def _steps(root: Path):
    """The edit script: ``(label, edit, frame)`` triples.  ``edit`` runs
    before ``frame`` is served; ``None`` sends the frame as is."""
    check = {"method": "check"}
    yield "first check", None, check
    yield "second check", None, check

    def rechecked(label, edit, paths, params=None):
        frame = {"method": "check", **({"params": params} if params else {})}
        yield label, edit, {"method": "invalidate", "params": {"paths": paths}}
        yield label + ": check", None, frame
        yield label + ": settled re-check", None, frame

    yield from rechecked(
        "unit edit", lambda: _write(root, "bad.c", FIXED_BAD_C), ["bad.c"]
    )
    yield from rechecked(
        "header edit",
        lambda: _write(root, "shared.h", HEADER_EDIT),
        ["shared.h"],
    )
    yield from rechecked(
        "host edit",
        lambda: _write(
            root, "lib.ml", ML + 'external extra : int -> int = "ml_extra"\n'
        ),
        ["lib.ml"],
    )
    yield from rechecked(
        "new unit", lambda: _write(root, "extra.c", EXTRA_C), ["extra.c"]
    )
    yield from rechecked(
        "deleted unit", lambda: (root / "good.c").unlink(), ["good.c"]
    )

    def two_unit_edit():
        _write(root, "hdr.c", FILES["hdr.c"] + "/* edit 1 */\n")
        _write(root, "extra.c", EXTRA_C + "/* edit 1 */\n")

    yield from rechecked(
        "restricted check",
        two_unit_edit,
        ["hdr.c", "extra.c"],
        {"units": ["hdr.c"]},
    )
    yield "restricted check: full check", None, check
    yield "restricted check: full settled re-check", None, check
    yield from rechecked(
        "linked check",
        lambda: _write(root, "bad.c", FILES["bad.c"]),
        ["bad.c"],
        {"link": True},
    )
    yield "link rpc", None, {"method": "link"}


def normalize(line: str, root: Path) -> str:
    line = line.replace(str(root), "ROOT")
    line = _SECONDS.sub(r"\g<1>0.0", line)
    return _CACHE_KEY.sub(r'\g<1>"KEY"', line)


def transcript() -> str:
    """Every normalized reply of the script, one labelled block each."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "tree"
        root.mkdir()
        for name, text in FILES.items():
            _write(root, name, text)
        service = AnalysisService(IncrementalEngine(root))
        out = []
        for request_id, (label, edit, frame) in enumerate(_steps(root), 1):
            if edit is not None:
                edit()
            memo_hits = service.coalescer.coalesced_memo
            line = service.handle_line(json.dumps({"id": request_id, **frame}))
            if service.coalescer.coalesced_memo > memo_hits:
                label += " [memo]"
            out.append(f"# {label}\n{normalize(line, root)}")
        return "".join(out)


def test_replies_match_the_golden():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(transcript())
    print(f"wrote {GOLDEN}")
