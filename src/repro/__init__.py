"""repro — multi-lingual type inference for the OCaml-to-C FFI.

A from-scratch reproduction of Furr & Foster, *Checking Type Safety of
Foreign Function Calls* (PLDI 2005): representational types for OCaml data
as seen from C, flow-sensitive tracking of boxedness/offset/tag
information, and GC effects that ensure heap pointers are registered before
the collector can run.

Quickstart::

    from repro import analyze_project

    report = analyze_project([ocaml_source], [c_source])
    for diag in report.diagnostics:
        print(diag.render())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

from importlib import import_module

__version__ = "1.2.0"


def _lazy_exports(package: str, exports: dict[str, str]):
    """A PEP 562 module ``__getattr__`` for ``package``: each public name
    is imported from its submodule on first access, then cached."""
    namespace = vars(import_module(package))

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(exports[name], package), name)
        namespace[name] = value
        return value

    return __getattr__


#: public name -> the submodule defining it, imported on first access:
#: ``import repro.cli`` pays only for what the command runs
_EXPORTS = {
    "AnalysisReport": ".core.checker",
    "BatchReport": ".engine",
    "Category": ".diagnostics",
    "Checker": ".core.checker",
    "CheckRequest": ".engine",
    "CheckResult": ".engine",
    "Diagnostic": ".diagnostics",
    "DiagnosticBag": ".diagnostics",
    "InitialEnv": ".core.checker",
    "Kind": ".diagnostics",
    "NullCache": ".engine",
    "Options": ".core.exprs",
    "Project": ".api",
    "ResultCache": ".engine",
    "SourceFile": ".source",
    "analyze_project": ".api",
    "check_c_source": ".api",
    "run_batch": ".engine",
}
__getattr__ = _lazy_exports(__name__, _EXPORTS)
__all__ = [*_EXPORTS, "__version__"]
