"""Link smoke: the streamed link sweep's peak RSS on a large corpus.

``mlffi-check link`` over a generated on-disk ocaml corpus runs as a
*child process* and its ``ru_maxrss`` must stay under ``--max-rss-mb``.
The streaming scheduler discards per-unit payloads as soon as they are
drained, so peak residency tracks the window, not the corpus; a cap that
a resident-corpus implementation would blow at 10k units is the
regression tripwire.  perfbench's ``link-sweep`` reports peak RSS too,
but at 200 units at most, where a corpus-resident sweep still fits.

Run::

    python benchmarks/bench_link.py --quick
    python benchmarks/bench_link.py --units 10000 --jobs 4
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_cold import _SCALE_SPECS, CORPORA, _rename


def materialize_corpus(root: Path, units: int) -> None:
    """Write ``units`` renamed copies of the clean glue counter pair.

    Every boundary symbol carries a rename root, so the corpus is clean
    per unit and links clean; the shapes pair is left out because it
    ships a seeded per-unit defect.
    """
    (names, roots) = _SCALE_SPECS["ocaml"][0]
    loaded = [(name, (CORPORA["ocaml"] / name).read_text()) for name in names]
    for index in range(units):
        for name, text in loaded:
            (root / f"u{index:05d}_{name}").write_text(_rename(text, roots, index))


#: child wrapper: run the CLI link sweep, then record this process's own
#: peak RSS (kilobytes on Linux, bytes on macOS -- normalized to bytes)
_CHILD = """\
import json, resource, sys
from repro.cli import main

rc = main(sys.argv[2:])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform != "darwin":
    peak *= 1024
with open(sys.argv[1], "w") as fh:
    json.dump({"rc": rc, "maxrss_bytes": peak}, fh)
sys.exit(rc)
"""


def streamed_link(corpus: Path, jobs: int, rss_path: Path) -> tuple[dict, dict]:
    """Run ``mlffi-check link`` in a child; returns (link doc, rss info)."""
    argv = [
        sys.executable, "-c", _CHILD, str(rss_path),
        "link", str(corpus), "--dialect", "ocaml", "--jobs", str(jobs),
        "--no-cache", "--quiet", "--format", "json",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if not rss_path.is_file():
        raise RuntimeError(
            f"link child produced no RSS record (exit {proc.returncode}): "
            f"{proc.stderr.strip()[-300:]}"
        )
    return json.loads(proc.stdout), json.loads(rss_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--units", type=int, default=10000, help="generated corpus size"
    )
    parser.add_argument(
        "--jobs", type=int, default=2, help="streaming worker processes"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizing (800 units)"
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=400.0,
        help="peak-RSS cap for the streamed child process",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the JSON payload to PATH",
    )
    args = parser.parse_args(argv)
    units = 800 if args.quick else args.units

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="mlffi-bench-link-") as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        materialize_corpus(corpus, units)
        document, rss = streamed_link(corpus, args.jobs, Path(tmp) / "rss.json")

    stream = document["stream"]
    if rss["rc"] != 0 or stream["failures"] or document["link"]["diagnostics"]:
        failures.append(
            f"sweep: exit {rss['rc']}, {stream['failures']} engine failure(s), "
            f"{len(document['link']['diagnostics'])} link diagnostic(s) on a "
            "clean corpus"
        )
    max_rss_mb = rss["maxrss_bytes"] / (1024 * 1024)
    if max_rss_mb > args.max_rss_mb:
        failures.append(
            f"rss: streamed link peaked at {max_rss_mb:.1f} MiB "
            f"> cap {args.max_rss_mb:.1f} MiB on {units} units"
        )

    payload = {
        "schema": "mlffi-bench-link",
        "units": units,
        "jobs": args.jobs,
        "max_rss_mb": round(max_rss_mb, 1),
        "rss_cap_mb": args.max_rss_mb,
        "stream": stream,
        "gates": {"failures": failures},
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.json is not None:
        Path(args.json).write_text(text + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
