"""The multi-dialect boundary layer: one analysis pipeline, many FFIs.

The paper's inference is not OCaml-specific: it needs (a) an initial
environment ``Γ_I`` giving the C types of the functions the host language
calls, (b) a table of runtime entry points with their GC effects, and
(c) a notion of which C type is "a host value".  Everything else — the
Figure 6/7 rules, the representational lattice, the effect solver — is
shared.  A :class:`BoundaryDialect` packages exactly that per-FFI
knowledge as a handful of hooks, and :func:`run_pipeline` runs §5.1's
two-phase shape over them, once, for every dialect:

    parse → initial-env (``Γ_I``) → lower → ``Checker`` → dialect passes
    → summarize

Each step but the parse is a phase span (``initial-env``, ``lower``, the
checker's ``seed``/``dataflow``/``unify-constraints``,
``dialect-passes``, ``summarize``), so every dialect's trace has the
same shape.  The built-in dialects:

* ``ocaml`` — the paper's OCaml-to-C FFI (:mod:`repro.ocamlfront.dialect`);
* ``pyext`` — CPython extension modules (:mod:`repro.pyext.dialect`),
  where ``PyObject *`` plays the role of ``value``, ``PyMethodDef``
  tables play the role of ``external`` declarations, and the
  ``Py_INCREF``/``Py_DECREF`` reference discipline plays the role of
  ``CAMLprotect``;
* ``jni`` — Java Native Interface glue (:mod:`repro.jni.dialect`), where
  ``jobject`` is the boxed value, ``JNINativeMethod`` tables and the
  ``Java_*`` export convention are the boundary contract, JVM type
  descriptors are the conversion signatures, and the local/global
  reference lifecycle is the protection discipline;
* ``rust`` — Rust ``extern "C"`` FFI (:mod:`repro.rustffi.dialect`),
  where ``extern`` blocks and ``#[no_mangle]`` export mirrors are the
  boundary contract, ``Γ_I`` comes from the ``.rs`` side the way
  ``ocamlfront`` reads it from the repository, and declaration agreement
  (arity, rendered type, platform width class) is the checked property.

The dialect object is the dialect's only declaration: its ``name`` is
the registry key, the ``--dialect`` value and the rule-pack name, its
``host_suffixes`` feed ``Γ_I``, and every dialect reads C the same way
(:data:`UNIT_SUFFIXES`, :data:`CORPUS_UNIT_SUFFIXES`).  Adding a fifth
dialect (Lua, Erlang NIFs, ...) means implementing the hooks below and
calling :func:`register_dialect`; nothing in the core or the engine
changes.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from .cfront.ir import ProgramIR
from .cfront.lexer import scan_identifiers, scan_includes
from .core.checker import AnalysisReport, Checker
from .telemetry import span as _tspan

if TYPE_CHECKING:  # avoid import cycles: the engine imports us
    from .cfront.ast import TranslationUnit
    from .core.checker import InitialEnv
    from .core.environment import Entry
    from .diagnostics import Diagnostic
    from .engine.jobs import CheckRequest
    from .linker.summary import InterfaceSummary
    from .source import SourceFile

#: suffixes accepted as C-side inputs (units and headers), every dialect
UNIT_SUFFIXES: tuple[str, ...] = (".c", ".h")
#: the subset of :data:`UNIT_SUFFIXES` a tree scan treats as standalone
#: translation units; headers reach the analysis as dependencies of
#: their includers
CORPUS_UNIT_SUFFIXES: tuple[str, ...] = (".c",)
#: the ``unit`` of a host summary (see :meth:`BoundaryDialect.host_summary`)
HOST_UNIT = "<host>"


@runtime_checkable
class BoundaryDialect(Protocol):
    """Everything dialect-specific the shared pipeline consumes.

    The seeding methods build *fresh* inference variables on every call —
    entries must never be shared between analysis runs, or one program's
    unifier bindings would leak into the next.

    One hook runs per corpus, not per unit, and is optional so a dialect
    without a host side may leave it out: ``host_summary(request)``
    returns an :class:`~repro.linker.summary.InterfaceSummary` of the
    host side's link rows (``bindings``, ``host_exports``), which the
    link pass folds in once through
    :meth:`~repro.linker.Linker.add_host`.  ``request`` carries the host
    sources and no C units.  Every built-in dialect defines it; pyext and
    jni return an empty summary.
    """

    #: registry key, the CLI's ``--dialect`` value, and the name of the
    #: dialect's pack in :mod:`repro.rules`
    name: str
    #: suffixes of host-language sources feeding ``Γ_I`` (may be empty:
    #: pyext reads its boundary contract out of the C sources themselves)
    host_suffixes: tuple[str, ...]

    # -- seeds ---------------------------------------------------------------

    def builtin_entries(self) -> dict[str, "Entry"]:
        """The runtime entry-point table (the dialect's `macros.py`)."""
        ...

    def polymorphic_builtins(self) -> frozenset[str]:
        """Builtins instantiated afresh at every call site."""
        ...

    def global_entries(self) -> dict[str, "Entry"]:
        """Well-known runtime globals visible in every function."""
        ...

    def alloc_result_tags(self) -> dict[str, int | str]:
        """Allocators whose result is a fresh block with a known tag."""
        ...

    # -- pipeline hooks, in the order :func:`run_pipeline` calls them --------

    def parse(self, source: "SourceFile") -> "TranslationUnit":
        """Parse one C source with the dialect's vocabulary."""
        ...

    def initial_env(
        self, request: "CheckRequest", units: list["TranslationUnit"]
    ) -> "InitialEnv":
        """Phase one for this unit: ``Γ_I`` from the host side (or, when
        the contract lives in C, from the parsed units).

        A host-side ``Γ_I`` holds only the entries the unit can use: those
        whose C names the unit mentions (:func:`unit_names`).  The parsed
        host side behind it is memoized per host fingerprint, so its
        cost is paid once per corpus, not once per unit."""
        ...

    def lower(self, unit: "TranslationUnit") -> ProgramIR:
        """Lower one parsed unit, rewriting dialect idioms into the
        shared C subset first if the dialect has any."""
        ...

    def passes(
        self, request: "CheckRequest", units: list["TranslationUnit"]
    ) -> list["Diagnostic"]:
        """Dialect-specific checks over the *original* AST, appended
        after the checker's diagnostics (may be empty)."""
        ...

    def summarize(
        self, request: "CheckRequest", units: list["TranslationUnit"]
    ) -> "InterfaceSummary":
        """The unit's link-relevant slice (see :mod:`repro.linker`).

        Host rows (``bindings``, ``host_exports``) appear only for the C
        symbols the unit mentions; the whole host side reaches the
        linker once, through :meth:`host_summary`."""
        ...

    def analyze(self, request: "CheckRequest") -> AnalysisReport:
        """Run both phases for one unit: ``run_pipeline(self, request)``.

        Defined in each dialect's own class body, like ``summarize``, and
        ``parse``/``lower`` call the ``parse_c``/``lower_unit`` names bound
        in the dialect's module: the traced benchmark run
        (``perfbench/layers.py``) wraps exactly those bindings.
        """
        ...


def lower_units(dialect: BoundaryDialect, units: list["TranslationUnit"]) -> ProgramIR:
    """Lower every unit with the dialect's hook into one program."""
    program = ProgramIR()
    for unit in units:
        program = program.merge(dialect.lower(unit))
    return program


def run_pipeline(dialect: BoundaryDialect, request: "CheckRequest") -> AnalysisReport:
    """§5.1's two phases for one request, through the dialect's hooks."""
    units = [dialect.parse(source) for source in request.c_sources]
    with _tspan("initial-env", cat="phase"):
        initial_env = dialect.initial_env(request, units)
    with _tspan("lower", cat="phase"):
        program = lower_units(dialect, units)
    report = Checker(program, initial_env, request.options, dialect=dialect).run()
    with _tspan("dialect-passes", cat="phase"):
        report.diagnostics.extend(dialect.passes(request, units))
    with _tspan("summarize", cat="phase"):
        report.summary = dialect.summarize(request, units).to_dict()
    return report


def unit_names(request: "CheckRequest") -> frozenset[str]:
    """Every identifier in the unit's C sources: the names that select
    its host entries.

    A superset of the names the unit uses (comments and strings count
    too), which is the safe direction: a selected entry the unit never
    touches constrains nothing."""
    names: set[str] = set()
    for source in request.c_sources:
        names.update(scan_identifiers(source.text))
    return frozenset(names)


def host_summary(
    dialect: BoundaryDialect, host_sources: tuple["SourceFile", ...]
) -> Optional["InterfaceSummary"]:
    """The dialect's host summary over ``host_sources``, or ``None`` when
    the dialect has no ``host_summary`` hook or its host side does not
    build (every unit then fails with that error itself)."""
    from .engine.jobs import CheckRequest

    hook = getattr(dialect, "host_summary", None)
    if hook is None:
        return None
    request = CheckRequest(
        name=HOST_UNIT,
        c_sources=(),
        ocaml_sources=host_sources,
        dialect=dialect.name,
    )
    try:
        return hook(request)
    except Exception:  # noqa: BLE001 - reported per unit, not here
        return None


def unit_dependencies(request: "CheckRequest") -> tuple[str, ...]:
    """Files an edit to which must invalidate this unit's result.

    Every host source by its recorded filename (an edit rebuilds the
    shared host side, so every unit depends on all of it), then the
    units' quoted ``#include`` targets verbatim.  The incremental engine
    resolves them against the unit's directory and the project root to
    build its dependency graph.
    """
    deps = dict.fromkeys(source.filename for source in request.ocaml_sources)
    for source in request.c_sources:
        for header in scan_includes(source.text):
            deps.setdefault(header)
    return tuple(deps)


_REGISTRY: dict[str, BoundaryDialect] = {}

#: the built-in dialects: name -> the module that defines and registers
#: it, imported the first time :func:`get_dialect` asks for that name
BUILTIN_DIALECTS: dict[str, str] = {
    "jni": "repro.jni.dialect",
    "ocaml": "repro.ocamlfront.dialect",
    "pyext": "repro.pyext.dialect",
    "rust": "repro.rustffi.dialect",
}


def register_dialect(dialect: BoundaryDialect) -> BoundaryDialect:
    """Make a dialect addressable by name (last registration wins)."""
    _REGISTRY[dialect.name] = dialect
    return dialect


def get_dialect(name: str) -> BoundaryDialect:
    """Resolve a dialect by name, importing only that built-in's module
    on first use."""
    if name not in _REGISTRY and name in BUILTIN_DIALECTS:
        import_module(BUILTIN_DIALECTS[name])
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_dialects())
        raise ValueError(
            f"unknown boundary dialect `{name}` (known: {known})"
        ) from None


def available_dialects() -> tuple[str, ...]:
    """Names of every built-in and registered dialect, sorted; imports
    nothing."""
    return tuple(sorted({*BUILTIN_DIALECTS, *_REGISTRY}))
