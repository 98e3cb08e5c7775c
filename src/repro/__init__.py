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

from .api import Project, analyze_project, check_c_source
from .core.checker import AnalysisReport, Checker, InitialEnv
from .core.exprs import Options
from .diagnostics import Category, Diagnostic, DiagnosticBag, Kind
from .engine import (
    BatchReport,
    CheckRequest,
    CheckResult,
    NullCache,
    ResultCache,
    run_batch,
)
from .source import SourceFile

__version__ = "1.2.0"

__all__ = [
    "AnalysisReport",
    "BatchReport",
    "Category",
    "Checker",
    "CheckRequest",
    "CheckResult",
    "Diagnostic",
    "DiagnosticBag",
    "InitialEnv",
    "Kind",
    "NullCache",
    "Options",
    "Project",
    "ResultCache",
    "SourceFile",
    "analyze_project",
    "check_c_source",
    "run_batch",
    "__version__",
]
