"""Knowledge base for bindgen-style C headers: the rust dialect's parse
hints.

Rust glue is checked against C sources as bindgen and cbindgen write
them: ``stdint.h``/``stddef.h`` scalar typedefs everywhere, ``bool``
from ``stdbool.h``, and no runtime entry-point table at all — the Rust
boundary has no ``caml_alloc`` or ``JNIEnv`` analogue, so the dialect's
builtin seeds are empty and all the checking weight sits on declaration
agreement (:mod:`repro.rustffi.declcheck`).

Every typedef maps to a :class:`CSrcScalar` carrying its *own* spelling
rather than collapsing to ``int``: the width classifier
(:mod:`repro.rustffi.widths`) and the linker's rendered-type comparison
both need ``uint64_t`` and ``int`` to stay distinguishable.
"""

from __future__ import annotations


from ..cfront.parser import ParseHints
from ..seeds import seed_table
from ..core.srctypes import CSrcScalar, CSrcType

#: ``stdint.h``/``stddef.h``/``sys/types.h`` scalar typedefs, each kept
#: under its own spelling so width classes survive parsing.
STDINT_TYPEDEFS: tuple[str, ...] = (
    "int8_t",
    "uint8_t",
    "int16_t",
    "uint16_t",
    "int32_t",
    "uint32_t",
    "int64_t",
    "uint64_t",
    "intptr_t",
    "uintptr_t",
    "ptrdiff_t",
    "ssize_t",
)

#: ``stdbool.h`` — ``bool`` is not a C type keyword in the shared
#: parser, so it enters as a typedef; ``_Bool`` rides along.
BOOL_TYPEDEFS: tuple[str, ...] = ("bool", "_Bool")

_TYPEDEFS: dict[str, CSrcType] = {
    name: CSrcScalar(name) for name in STDINT_TYPEDEFS + BOOL_TYPEDEFS
}


@seed_table("rust.parse_hints")
def parse_hints() -> ParseHints:
    """How to read bindgen-style C with the shared parser.

    Memoized per process; :class:`ParseHints` is frozen and the parser
    copies the typedef table, so one instance serves every request.
    """
    return ParseHints(typedefs=dict(_TYPEDEFS))
