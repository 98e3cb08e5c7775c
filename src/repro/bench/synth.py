"""Benchmark program synthesizer.

Given a :class:`~repro.bench.specs.BenchmarkSpec`, produce one OCaml module
and one C glue file whose sizes match the Figure 9 row's LoC budgets and
whose seeded defects produce exactly the row's report counts.  Ground truth
is carried alongside, so the harness can verify that every diagnostic lands
in its intended column (the paper established this by manual inspection;
we get it by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..diagnostics import Category
from ..source import count_code_lines
from .defects import DEFECT_TEMPLATES, FILLER_TEMPLATES, GlueUnit
from .specs import BenchmarkSpec


@dataclass
class SynthesizedBenchmark:
    """A generated OCaml+C project with its expected Figure 9 row."""

    name: str
    ocaml_source: str
    c_source: str
    expected: Dict[Category, int]
    units: List[GlueUnit] = field(default_factory=list)

    @property
    def c_loc(self) -> int:
        return count_code_lines(self.c_source)

    @property
    def ocaml_loc(self) -> int:
        return count_code_lines(self.ocaml_source)

    def expected_tally(self) -> dict[str, int]:
        return {
            "errors": self.expected[Category.ERROR],
            "warnings": self.expected[Category.WARNING],
            "false_positives": self.expected[Category.FALSE_POSITIVE_PRONE],
            "imprecision": self.expected[Category.IMPRECISION],
        }


_C_HEADER = """\
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
"""

_ML_HEADER = "(* generated glue module: {name} *)\n"


def _ocaml_filler_lines(count: int, salt: str) -> str:
    """Plain OCaml code the extractor skips; pads the .ml LoC budget."""
    lines = []
    for index in range(count):
        lines.append(
            f"let helper_{salt}_{index} x = x + {index % 7} "
            f"(* convenience wrapper {index} *)"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def synthesize(spec: BenchmarkSpec, unique_prefix: int = 0) -> SynthesizedBenchmark:
    """Build the benchmark program for one Figure 9 row."""
    units: List[GlueUnit] = []
    expected: Dict[Category, int] = {category: 0 for category in Category}

    index = unique_prefix * 100_000
    for seed in spec.seeds:
        template = DEFECT_TEMPLATES[seed.kind]
        for _ in range(seed.count):
            unit = template(index)
            index += 1
            units.append(unit)
            for category, count in unit.expected.items():
                expected[category] += count

    # Fill the C LoC budget with correct glue, round-robin over templates.
    ml_parts = [unit.ml for unit in units if unit.ml]
    c_parts = [unit.c for unit in units if unit.c]
    c_loc = count_code_lines(_C_HEADER + "\n".join(c_parts))
    filler_cursor = 0
    while c_loc < spec.c_loc:
        template = FILLER_TEMPLATES[filler_cursor % len(FILLER_TEMPLATES)]
        filler_cursor += 1
        unit = template(index)
        index += 1
        units.append(unit)
        ml_parts.append(unit.ml)
        c_parts.append(unit.c)
        c_loc += count_code_lines(unit.c)

    ocaml_source = _ML_HEADER.format(name=spec.name) + "\n".join(ml_parts)
    ml_loc = count_code_lines(ocaml_source)
    if ml_loc < spec.ocaml_loc:
        ocaml_source += _ocaml_filler_lines(
            spec.ocaml_loc - ml_loc, salt=str(unique_prefix)
        )

    return SynthesizedBenchmark(
        name=spec.name,
        ocaml_source=ocaml_source,
        c_source=_C_HEADER + "\n".join(c_parts),
        expected=expected,
        units=units,
    )


def synthesize_scaled(
    base: BenchmarkSpec, c_loc: int, unique_prefix: int = 0
) -> SynthesizedBenchmark:
    """A defect-free variant of ``base`` scaled to a C LoC target.

    Used by the scaling test (unification steps vs code size).
    """
    scaled = BenchmarkSpec(
        name=f"{base.name}@{c_loc}",
        c_loc=c_loc,
        ocaml_loc=0,
        paper_time_s=0.0,
        errors=0,
        warnings=0,
        false_positives=0,
        imprecision=0,
        seeds=(),
    )
    return synthesize(scaled, unique_prefix)
