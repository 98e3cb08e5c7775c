"""Whole-program boundary linker (ROADMAP open item 2).

The per-unit checker validates each glue unit against its host interface
``Γ_I`` in isolation; this package adds the cross-unit *link step*.  Each
dialect attaches a cheap, JSON-able :class:`~repro.linker.summary.
InterfaceSummary` to its per-unit report (exported externs with resolved
C types, registration-table entries, host-interface bindings); the
:class:`~repro.linker.link.Linker` unions those summaries over an entire
corpus — streamed one at a time, never holding sources — and reports the
inconsistencies no single-unit analysis can see: the same external
declared with conflicting types in two stubs, duplicate ``Java_*`` or
``PyMethodDef`` registrations, registered entry points that nothing
defines.
"""

from .. import _lazy_exports

#: public name -> its submodule, imported on first access: a dialect that
#: only summarizes its unit never loads the linker
_EXPORTS = {
    "InterfaceSummary": ".summary",
    "LinkReport": ".link",
    "Linker": ".link",
    "SymbolRow": ".summary",
}
__getattr__ = _lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_EXPORTS)
