"""Random generator of restricted-language programs for the Theorem 1 test.

Generates a random OCaml variant type, a random inhabitant of it laid out
in the OCaml store, and a Figure 2-style dispatch program over it — along
with the matching ``external`` declaration and the generated program as C
source text so the *whole* pipeline (parse → lower → infer) can be
exercised before the machine runs.

The generator can optionally *sabotage* the program with one of the defect
classes of §5.2; the soundness property then reads: whenever the inference
system accepts a (possibly sabotaged) program, the machine does not get
stuck on any generated inhabitant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from .stores import MachineState
from .values import MLInt, Value


@dataclass(frozen=True)
class GenConstructor:
    name: str
    arity: int  # 0 for nullary


@dataclass(frozen=True)
class GenVariant:
    """A generated OCaml variant type with int-only payloads."""

    name: str
    constructors: tuple[GenConstructor, ...]

    @property
    def nullary(self) -> list[GenConstructor]:
        return [c for c in self.constructors if c.arity == 0]

    @property
    def non_nullary(self) -> list[GenConstructor]:
        return [c for c in self.constructors if c.arity > 0]

    def ocaml_decl(self) -> str:
        parts = []
        for ctor in self.constructors:
            if ctor.arity == 0:
                parts.append(ctor.name)
            else:
                parts.append(
                    f"{ctor.name} of " + " * ".join(["int"] * ctor.arity)
                )
        return f"type {self.name} = " + " | ".join(parts)


_NAMES = ["Alpha", "Bravo", "Carol", "Delta", "Echo", "Fox", "Golf", "Hotel"]


def random_variant(rng: random.Random) -> GenVariant:
    """A variant with 1-4 nullary and 0-3 non-nullary constructors."""
    n_nullary = rng.randint(1, 4)
    n_boxed = rng.randint(0, 3)
    names = rng.sample(_NAMES, n_nullary + n_boxed)
    ctors: list[GenConstructor] = []
    for index in range(n_nullary):
        ctors.append(GenConstructor(names[index], 0))
    for index in range(n_boxed):
        ctors.append(
            GenConstructor(names[n_nullary + index], rng.randint(1, 3))
        )
    return GenVariant(name="t", constructors=tuple(ctors))


def random_inhabitant(
    rng: random.Random, variant: GenVariant, state: MachineState
) -> Value:
    """Build a runtime value of the variant, allocating blocks as needed."""
    pick = rng.randrange(len(variant.constructors))
    ctor = variant.constructors[pick]
    if ctor.arity == 0:
        number = variant.nullary.index(ctor)
        return MLInt(number)
    tag = variant.non_nullary.index(ctor)
    fields = [MLInt(rng.randint(-5, 5)) for _ in range(ctor.arity)]
    return state.ml_store.alloc_block(tag, fields)


@dataclass
class GeneratedProgram:
    """Everything the property test needs for one sample."""

    variant: GenVariant
    ocaml_source: str
    c_source: str
    #: name of the C function to execute
    entry: str = "ml_dispatch"
    #: defect injected (None for intended-correct programs)
    sabotage: Optional[str] = None


SABOTAGES = (
    "field_without_test",  # Field on possibly-unboxed data
    "tag_too_big",  # Tag_val case beyond the constructors
    "int_tag_too_big",  # Int_val case beyond the nullary count
    "val_int_on_value",  # Val_int applied to the value itself
    "field_out_of_range",  # Field index past the payload
)


def generate_program(
    rng: random.Random, sabotage: Optional[str] = None
) -> GeneratedProgram:
    """A dispatch function over a random variant, optionally sabotaged."""
    variant = random_variant(rng)
    ocaml = (
        variant.ocaml_decl()
        + f'\nexternal dispatch : {variant.name} -> int = "ml_dispatch"'
    )

    lines: List[str] = ["value ml_dispatch(value x)", "{", "    int acc = 0;"]

    if sabotage == "val_int_on_value":
        lines.append("    return Val_int(x);")
    elif sabotage == "field_without_test":
        lines.append("    acc = Int_val(Field(x, 0));")
        lines.append("    return Val_int(acc);")
    else:
        lines.append("    if (Is_long(x)) {")
        lines.append("        switch (Int_val(x)) {")
        nullary_cases = len(variant.nullary)
        if sabotage == "int_tag_too_big":
            nullary_cases += 2
        for number in range(nullary_cases):
            lines.append(f"        case {number}: acc = {number + 1}; break;")
        lines.append("        }")
        lines.append("    } else {")
        lines.append("        switch (Tag_val(x)) {")
        boxed = list(variant.non_nullary)
        cases = len(boxed)
        if sabotage == "tag_too_big":
            cases += 2
        for tag in range(cases):
            ctor = boxed[tag] if tag < len(boxed) else None
            if ctor is None:
                lines.append(f"        case {tag}: acc = 99; break;")
                continue
            index = ctor.arity - 1
            if sabotage == "field_out_of_range" and tag == 0:
                index = ctor.arity + 3
            lines.append(
                f"        case {tag}: acc = Int_val(Field(x, {index})); break;"
            )
        lines.append("        }")
        lines.append("    }")
        lines.append("    return Val_int(acc);")
    lines.append("}")

    return GeneratedProgram(
        variant=variant,
        ocaml_source=ocaml,
        c_source="\n".join(lines),
        sabotage=sabotage,
    )
