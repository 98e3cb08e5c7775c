"""A one-shot process loads only the code it runs.

Each case runs in a fresh interpreter, since this suite's own process
has long since imported everything.  ``import repro.cli`` must load
neither the daemon (``asyncio``, :mod:`repro.server`) nor the
incremental engine nor any dialect; a ``check`` loads only the dialect
it was asked for, with or without a warm host artifact (and only pyext
and jni load the machinery they share); and the lazy package re-exports
still resolve every public name.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: modules a one-shot process must not load unless it runs them
DAEMON = ("asyncio", "repro.server", "repro.engine.incremental")
DIALECT_MODULES = {
    "jni": "repro.jni",
    "ocaml": "repro.ocamlfront",
    "pyext": "repro.pyext",
    "rust": "repro.rustffi",
}
#: what the C-contract dialects (pyext, jni) share: no other dialect's
#: one-shot check loads it
CONTRACT_SHARED = ("repro.cfront.idioms", "repro.cfront.discipline")

_LOADED = """
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""

_CHECK = """
import contextlib, io
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(code, file=sys.stderr)
"""


def loaded_after(body: str, seed_dir: Path) -> list[str]:
    """``sys.modules`` of a fresh interpreter after it runs ``body``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["MLFFI_SEED_DIR"] = str(seed_dir)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED.format(body=body)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def matching(modules: list[str], prefixes) -> list[str]:
    return [
        name
        for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


def test_import_cli_loads_no_daemon_engine_or_dialect(tmp_path):
    modules = loaded_after("import repro.cli", tmp_path)
    assert matching(modules, (*DAEMON, *DIALECT_MODULES.values())) == []


def test_import_repro_loads_no_api_or_engine(tmp_path):
    modules = loaded_after("import repro", tmp_path)
    assert matching(modules, ("repro.api", "repro.engine")) == []


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm-seeds"])
@pytest.mark.parametrize(
    "dialect, files",
    [
        ("ocaml", sorted(str(p) for p in (EXAMPLES / "glue").iterdir())),
        (
            "rust",
            sorted(
                str(p) for p in (EXAMPLES / "rust" / "clean_bindings").iterdir()
            ),
        ),
        ("pyext", sorted(str(p) for p in (EXAMPLES / "pyext").iterdir())),
        ("jni", sorted(str(p) for p in (EXAMPLES / "jni").iterdir())),
    ],
    ids=["ocaml", "rust", "pyext", "jni"],
)
def test_check_loads_only_its_dialect(dialect, files, warm, tmp_path):
    if warm:  # warmup loads every dialect and stores this corpus's host
        corpus = str(Path(files[0]).parent)
        warmup = ["warmup", corpus, "--dialect", dialect]
        loaded_after(_CHECK.format(argv=warmup), tmp_path)
    argv = ["check", "--dialect", dialect, *files]
    modules = loaded_after(_CHECK.format(argv=argv), tmp_path)
    others = [m for name, m in DIALECT_MODULES.items() if name != dialect]
    assert matching(modules, (*DAEMON, *others)) == []
    assert matching(modules, (DIALECT_MODULES[dialect],))
    shared = matching(modules, CONTRACT_SHARED)
    if dialect in ("pyext", "jni"):
        assert shared == sorted(CONTRACT_SHARED)
    else:
        assert shared == []


def test_public_names_resolve():
    import repro
    import repro.engine
    import repro.linker

    for package in (repro, repro.engine, repro.linker):
        for name in package.__all__:
            assert getattr(package, name) is not None, name
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_unknown_attribute_is_an_attribute_error():
    import repro
    import repro.engine
    import repro.linker

    for package in (repro, repro.engine, repro.linker):
        with pytest.raises(AttributeError):
            package.no_such_name  # noqa: B018
