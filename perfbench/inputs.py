"""Seeded inputs for the three workloads, written under a run's temp root.

Every generator takes the workload seed and returns, next to the files
it wrote, the answer the checker must give.  The answers come from the
inputs' construction (the synthesizer's planted defects, the examples'
hand-seeded counts, the linker plants), never from the checker.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

COLUMNS = ("errors", "warnings", "false_positives", "imprecision")


def tally(**counts: int) -> dict[str, int]:
    return {column: counts.get(column, 0) for column in COLUMNS}


def add_tallies(*tallies: dict[str, int]) -> dict[str, int]:
    return tally(**{c: sum(t.get(c, 0) for t in tallies) for c in COLUMNS})


# ---------------------------------------------------------------------------
# fig9-oneshot
# ---------------------------------------------------------------------------


@dataclass
class Program:
    """One ``mlffi-check check`` invocation and its known tally."""

    name: str
    dialect: str
    files: list[Path]
    expected: dict[str, int]


#: (dialect, example directory, file names, hand-seeded tally) — the
#: counts the examples were written to carry and CI gates by exit code
EXAMPLES = (
    ("pyext", "examples/pyext", ("clean_module.c",), tally()),
    ("pyext", "examples/pyext", ("bad_stubs.c",), tally(errors=4, warnings=1)),
    ("jni", "examples/jni", ("clean_native.c",), tally(imprecision=1)),
    ("jni", "examples/jni", ("bad_native.c",), tally(errors=8, warnings=1, imprecision=1)),
    ("rust", "examples/rust/clean_bindings", ("lib.rs", "glue.c"), tally()),
    ("rust", "examples/rust/bad_bindings", ("lib.rs", "glue.c"), tally(errors=6)),
)


def fig9_programs(checkout: Path, root: Path, seed: int) -> list[Program]:
    """The 11 Figure 9 rows, identifiers renamed by seed, plus the
    seeded pyext/jni/rust example programs (clean and bad)."""
    from repro.bench.specs import SUITE
    from repro.bench.synth import synthesize

    programs: list[Program] = []
    # five-digit prefixes: identifiers change with the seed, their
    # lengths (and so the work) do not
    base = 10_000 + (seed % 8000) * 11
    for offset, spec in enumerate(SUITE):
        row = synthesize(spec, unique_prefix=base + offset)
        folder = root / "fig9" / spec.name
        folder.mkdir(parents=True)
        host, unit = folder / "lib.ml", folder / "stubs.c"
        host.write_text(row.ocaml_source)
        unit.write_text(row.c_source)
        programs.append(Program(spec.name, "ocaml", [host, unit], row.expected_tally()))
    for dialect, directory, names, expected in EXAMPLES:
        source = checkout / directory
        folder = root / "examples" / f"{dialect}-{source.name}-{names[-1].split('.')[0]}"
        folder.mkdir(parents=True)
        files = []
        for name in names:
            shutil.copyfile(source / name, folder / name)
            files.append(folder / name)
        programs.append(Program(f"{dialect}/{names[-1]}", dialect, files, dict(expected)))
    return programs


#: the trivial program behind fig9-oneshot's ``noop_ms``: start-up plus
#: a check with almost nothing to analyze
TRIVIAL_ML = 'external tiny_add : int -> int -> int = "ml_tiny_add"\n'
TRIVIAL_C = """\
#include <caml/mlvalues.h>
value ml_tiny_add(value a, value b)
{
    return Val_int(Int_val(a) + Int_val(b));
}
"""


def trivial_program(root: Path) -> Program:
    folder = root / "trivial"
    folder.mkdir(parents=True)
    (folder / "tiny.ml").write_text(TRIVIAL_ML)
    (folder / "tiny.c").write_text(TRIVIAL_C)
    return Program("trivial", "ocaml", [folder / "tiny.ml", folder / "tiny.c"], tally())


# ---------------------------------------------------------------------------
# link-sweep
# ---------------------------------------------------------------------------

#: one planted trio: a definition, an identical duplicate of a second
#: function, and a user whose prototype conflicts with the first.  Each
#: trio yields one LINK_CONFLICTING_DECL and one LINK_DUPLICATE_DEFINITION,
#: and every unit is clean on its own.
_PLANT_A = """\
long plant_confl_{tag}(long a, long b)
{{
    return a + b;
}}

long plant_dup_{tag}(long x)
{{
    return x + 1;
}}
"""
_PLANT_B = """\
long plant_dup_{tag}(long x)
{{
    return x + 1;
}}
"""
_PLANT_C = """\
long plant_confl_{tag}(long a);
extern long plant_dup_{tag}(long x);

long plant_user_{tag}(long x)
{{
    return plant_confl_{tag}(x) + plant_dup_{tag}(x);
}}
"""

#: the link kinds each plant trio must produce, once each
PLANT_KINDS = ("LINK_CONFLICTING_DECL", "LINK_DUPLICATE_DEFINITION")


@dataclass
class LinkCorpus:
    directory: Path
    units: int
    plants: int

    @property
    def c_units(self) -> int:
        return self.units + 3 * self.plants

    def expected_link(self) -> dict[str, int]:
        return {kind: self.plants for kind in PLANT_KINDS}


def plants_for(units: int) -> int:
    return max(2, units // 25)


def link_corpus(checkout: Path, directory: Path, units: int, seed: int) -> LinkCorpus:
    """A per-unit-clean ocaml corpus in which each unit brings its own
    renamed ``.ml``/``.c`` pair (so the host grows with the corpus), plus
    conflict/duplicate trios planted at seeded positions."""
    glue = checkout / "examples" / "glue"
    ml_text = (glue / "counter.ml").read_text()
    c_text = (glue / "counter_stubs.c").read_text()
    directory.mkdir(parents=True)
    for index in range(units):
        root = f"counter{seed % 10**6:06d}x{index:05d}"
        (directory / f"u{index:05d}_counter.ml").write_text(ml_text.replace("counter", root))
        (directory / f"u{index:05d}_counter_stubs.c").write_text(c_text.replace("counter", root))
    plants = plants_for(units)
    rng = random.Random(f"link-{seed}-{units}")
    for j, position in enumerate(sorted(rng.sample(range(units), plants))):
        tag = f"{seed % 10**6:06d}_{j:04d}"
        for part, template in (("a", _PLANT_A), ("b", _PLANT_B), ("c", _PLANT_C)):
            name = f"u{position:05d}_plant{j}_{part}.c"
            (directory / name).write_text(template.format(tag=tag))
    return LinkCorpus(directory, units, plants)


# ---------------------------------------------------------------------------
# daemon-edit
# ---------------------------------------------------------------------------

_C_PRELUDE = """\
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include "shared.h"
"""

#: defect kinds the daemon corpus leaves out: a polymorphic-variant
#: external is reported by every unit (a host-side note repeated per
#: unit), so its count is not a property of the unit that declares it
DAEMON_SKIPPED_DEFECTS = ("poly_variant",)


@dataclass
class DaemonUnit:
    path: Path
    clean_c: str
    defect_c: str
    defect_kind: str
    defect_tally: dict[str, int]
    defect_on: bool = False
    edits: int = 0

    def source(self) -> str:
        body = self.defect_c if self.defect_on else self.clean_c
        # a fresh comment per edit: every edit is new content, so it is
        # a real re-run rather than a content-addressed cache hit
        return f"{body}/* edit {self.edits} */\n"


@dataclass
class DaemonCorpus:
    directory: Path
    lib_ml: Path
    header: Path
    ml_text: str
    units: list[DaemonUnit] = field(default_factory=list)
    host_edits: int = 0
    header_edits: int = 0

    def expected(self) -> dict[str, int]:
        """The tally the daemon must report: the sum over the defects
        currently toggled on (every filler is clean)."""
        return add_tallies(*(u.defect_tally for u in self.units if u.defect_on))

    def toggle(self, index: int) -> Path:
        unit = self.units[index]
        unit.defect_on = not unit.defect_on
        unit.edits += 1
        unit.path.write_text(unit.source())
        return unit.path

    def edit_host(self) -> Path:
        self.host_edits += 1
        self.lib_ml.write_text(f"{self.ml_text}(* host edit {self.host_edits} *)\n")
        return self.lib_ml

    def edit_header(self) -> Path:
        self.header_edits += 1
        self.header.write_text(_header_text(self.header_edits))
        return self.header


def _header_text(revision: int) -> str:
    return f"/* shared configuration, revision {revision} */\n#define GLUE_REVISION {revision}\n"


def daemon_corpus(directory: Path, units: int, seed: int) -> DaemonCorpus:
    """``units`` ocaml units, each with its own ``.c`` that includes one
    shared quoted header; one shared ``lib.ml`` declares the externals of
    every unit's clean filler and of its defect variant."""
    from repro.bench.defects import DEFECT_TEMPLATES, FILLER_TEMPLATES
    from repro.diagnostics import Category

    columns = {
        Category.ERROR: "errors",
        Category.WARNING: "warnings",
        Category.FALSE_POSITIVE_PRONE: "false_positives",
        Category.IMPRECISION: "imprecision",
    }
    kinds = sorted(k for k in DEFECT_TEMPLATES if k not in DAEMON_SKIPPED_DEFECTS)
    # the seed renames every identifier and rotates which filler and
    # defect each unit gets; the corpus's make-up (and so its cost) is
    # the same for every seed
    base = 10_000_000 + (seed % 9000) * 1000
    rotation = seed % len(FILLER_TEMPLATES)
    directory.mkdir(parents=True)
    header = directory / "shared.h"
    header.write_text(_header_text(0))
    ml_parts: list[str] = ["(* shared host side of the daemon corpus *)\n"]
    corpus_units: list[DaemonUnit] = []
    for i in range(units):
        filler = FILLER_TEMPLATES[(i + rotation) % len(FILLER_TEMPLATES)](base + 2 * i)
        kind = kinds[(i + rotation) % len(kinds)]
        defect = DEFECT_TEMPLATES[kind](base + 2 * i + 1)
        ml_parts += [filler.ml, defect.ml]
        unit = DaemonUnit(
            path=directory / f"unit{i:04d}.c",
            clean_c=_C_PRELUDE + filler.c,
            defect_c=_C_PRELUDE + defect.c,
            defect_kind=kind,
            defect_tally=tally(**{columns[c]: n for c, n in defect.expected.items()}),
        )
        unit.path.write_text(unit.source())
        corpus_units.append(unit)
    ml_text = "".join(part if part.endswith("\n") else part + "\n" for part in ml_parts)
    lib_ml = directory / "lib.ml"
    lib_ml.write_text(ml_text)
    return DaemonCorpus(directory, lib_ml, header, ml_text, corpus_units)
