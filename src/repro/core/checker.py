"""Whole-program driver for the multi-lingual analysis (paper §3.3.3, §5.1).

The checker stitches the two phases together:

1. it receives ``Γ_I`` — the C types of ``external`` functions produced by
   the host phase (:mod:`repro.ocamlfront.repository` for OCaml) — and
   seeds the function environment with it plus the dialect's runtime
   entry points;
2. it runs the Figure 6/7 inference over every C function body to
   fixpoint;
3. it discharges the deferred constraints: ``T + 1 ≤ Ψ`` bounds, GC-effect
   reachability and the protection obligations, and the
   polymorphic-parameter audit (the ``gz`` seek idiom, §5.2).

The result is an :class:`AnalysisReport` whose diagnostics carry Figure 9
categories, ready for the benchmark harness to tabulate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..cfront.ir import ProgramIR
from ..diagnostics import DiagnosticBag, Kind
from ..source import DUMMY_SPAN, Span
from ..telemetry import span as _tspan
from .constraints import EffectConstraintStore, PsiConstraintStore
from .environment import Entry
from .exprs import Context, Options, normalize_alloc_tags
from .gceffects import GCCheckSummary, discharge_gc_checks
from .srctypes import CSrcPtr, CSrcType, is_value_src
from .stmts import FunctionAnalyzer, FunctionResult
from .translate import eta
from .types import CFun, MTVar
from .unify import Unifier


@dataclass(frozen=True)
class PolyParam:
    """An external whose OCaml type had a bare ``'a`` parameter."""

    c_name: str
    param_index: int
    var: MTVar
    span: Span = DUMMY_SPAN


@dataclass
class InitialEnv:
    """``Γ_I`` — everything the OCaml phase hands to the C phase."""

    functions: dict[str, CFun] = field(default_factory=dict)
    poly_params: list[PolyParam] = field(default_factory=list)
    spans: dict[str, Span] = field(default_factory=dict)
    #: C names of externals using polymorphic variants (flagged on sight)
    poly_variant_users: set[str] = field(default_factory=set)

    def merge(self, other: "InitialEnv") -> "InitialEnv":
        merged = InitialEnv(
            functions={**self.functions, **other.functions},
            poly_params=self.poly_params + other.poly_params,
            spans={**self.spans, **other.spans},
            poly_variant_users=self.poly_variant_users | other.poly_variant_users,
        )
        return merged


@dataclass
class AnalysisReport:
    """Outcome of a whole-program run."""

    diagnostics: DiagnosticBag
    function_results: dict[str, FunctionResult]
    gc_summary: GCCheckSummary
    unification_steps: int
    elapsed_seconds: float
    #: fully-resolved signatures of the analyzed functions, pretty-printed
    signatures: dict[str, str] = field(default_factory=dict)
    #: JSON-able per-unit interface summary attached by the boundary
    #: dialect (see :mod:`repro.linker.summary`); ``None`` until a dialect
    #: extracts one
    summary: Optional[dict] = None

    def tally(self) -> dict[str, int]:
        return self.diagnostics.tally()

    @property
    def errors(self):
        return self.diagnostics.errors

    @property
    def warnings(self):
        return self.diagnostics.warnings

    def render(self) -> str:
        lines = [diag.render() for diag in self.diagnostics]
        counts = self.tally()
        lines.append(
            f"-- {counts['errors']} error(s), {counts['warnings']} warning(s), "
            f"{counts['false_positives']} false-positive-prone report(s), "
            f"{counts['imprecision']} imprecision warning(s) "
            f"in {self.elapsed_seconds:.2f}s"
        )
        return "\n".join(lines)


class Checker:
    """Run the full analysis over a lowered program.

    ``dialect`` supplies the boundary-specific seeds — the runtime builtin
    table, the polymorphic-builtin set, well-known runtime globals, and the
    allocator tag table (any object satisfying
    :class:`repro.boundary.BoundaryDialect` works).
    """

    def __init__(
        self,
        program: ProgramIR,
        initial_env: Optional[InitialEnv] = None,
        options: Optional[Options] = None,
        *,
        dialect,
    ):
        self.program = program
        self.initial_env = initial_env or InitialEnv()
        self.dialect = dialect
        effect_constraints = EffectConstraintStore()
        self.ctx = Context(
            unifier=Unifier(on_effect_equal=effect_constraints.equate),
            psi_constraints=PsiConstraintStore(),
            effect_constraints=effect_constraints,
            diagnostics=DiagnosticBag(),
            options=options or Options(),
        )
        self.ctx.alloc_result_tags = normalize_alloc_tags(
            dialect.alloc_result_tags()
        )

    # -- seeding -------------------------------------------------------------

    def _seed_functions(self) -> None:
        self.ctx.functions.update(self.dialect.builtin_entries())
        self.ctx.polymorphic.update(self.dialect.polymorphic_builtins())
        for name, fn_ct in self.initial_env.functions.items():
            self.ctx.functions[name] = Entry(fn_ct)
        for fn in self.program.functions:
            if fn.polymorphic:
                self.ctx.polymorphic.add(fn.name)
            if fn.name not in self.ctx.functions:
                params = tuple(eta(t) for _, t in fn.params)
                from .types import fresh_gc

                self.ctx.functions[fn.name] = Entry(
                    CFun(
                        params=params,
                        result=eta(fn.return_type),
                        effect=fresh_gc(fn.name),
                    )
                )

    def _seed_globals(self) -> None:
        self.ctx.global_bindings.update(self.dialect.global_entries())
        for decl in self.program.globals:
            if self._mentions_value(decl.ctype):
                self.ctx.report(
                    Kind.GLOBAL_VALUE,
                    decl.span,
                    f"global `{decl.name}` holds host values; the analysis "
                    "does not track globals (register it as a global root)",
                )
                continue
            self.ctx.global_bindings[decl.name] = Entry(eta(decl.ctype))

    @staticmethod
    def _mentions_value(ctype: CSrcType) -> bool:
        node = ctype
        while True:
            if is_value_src(node):
                return True
            if not isinstance(node, CSrcPtr):
                return False
            node = node.target

    # -- post passes ------------------------------------------------------------

    def _check_poly_params(self) -> None:
        """The gz idiom: an external declared ``'a -> ...`` whose C code
        commits the parameter to one concrete representation (§5.2)."""
        from .pretty import TypePrinter

        for poly in self.initial_env.poly_params:
            resolved = self.ctx.unifier.resolve_mt(poly.var)
            if isinstance(resolved, MTVar):
                continue
            # the printer names variables per message (ψ1, σ1, ...): raw
            # ids count every variable the process made before this unit
            used_at = TypePrinter(self.ctx.unifier).mt(resolved)
            self.ctx.report(
                Kind.POLYMORPHIC_ABUSE,
                poly.span,
                f"external `{poly.c_name}` declares parameter "
                f"{poly.param_index + 1} with the polymorphic type 'a but its "
                f"C code uses it at `{used_at}`; "
                "any OCaml value can be passed here",
                function=poly.c_name,
            )

    def _flag_poly_variant_users(self) -> None:
        # nothing gates this note, so it belongs to the unit implementing
        # the external: it then appears once per corpus however the
        # corpus is split into units
        defined = {fn.name for fn in self.program.functions if fn.is_definition}
        users = self.initial_env.poly_variant_users & defined
        for c_name in sorted(users):
            self.ctx.report(
                Kind.POLY_VARIANT,
                self.initial_env.spans.get(c_name, DUMMY_SPAN),
                f"external `{c_name}` traffics in polymorphic variants, which "
                "the analysis does not model; its uses cannot be verified",
                function=c_name,
            )

    # -- main entry ------------------------------------------------------------

    def run(self) -> AnalysisReport:
        started = time.perf_counter()
        with _tspan("seed", cat="phase"):
            self._seed_functions()
            self._seed_globals()
            self._flag_poly_variant_users()

        # the per-function fixpoints are where unification and the B/I/T
        # dataflow actually run; the span tags how many were analyzed
        definitions = [fn for fn in self.program.functions if fn.is_definition]
        results: dict[str, FunctionResult] = {}
        with _tspan("dataflow", cat="phase", functions=len(definitions)):
            for fn in definitions:
                analyzer = FunctionAnalyzer(self.ctx, fn)
                results[fn.name] = analyzer.run()

        with _tspan("unify-constraints", cat="phase"):
            self.ctx.psi_constraints.check(
                self.ctx.unifier, self.ctx.diagnostics
            )
            gc_summary = discharge_gc_checks(
                self.ctx.pending_gc_checks,
                self.ctx.effect_constraints,
                self.ctx.unifier,
                self.ctx.diagnostics,
            )
            self._check_poly_params()

        elapsed = time.perf_counter() - started
        return AnalysisReport(
            diagnostics=self.ctx.diagnostics,
            function_results=results,
            gc_summary=gc_summary,
            unification_steps=self.ctx.unifier.steps,
            elapsed_seconds=elapsed,
            signatures=self._render_signatures(results),
        )

    def _render_signatures(
        self, results: dict[str, FunctionResult]
    ) -> dict[str, str]:
        """Pretty-print the final inferred type of every analyzed function.

        Effects are rendered as solved: ``gc`` when the collector is
        reachable, ``nogc`` otherwise.
        """
        from .pretty import TypePrinter
        from .types import GC, NOGC

        printer = TypePrinter(self.ctx.unifier)
        signatures: dict[str, str] = {}
        for name in results:
            entry = self.ctx.functions.get(name)
            if entry is None or not isinstance(entry.ct, CFun):
                continue
            fn_ct = entry.ct
            solved_effect = (
                GC
                if self.ctx.effect_constraints.may_gc(fn_ct.effect)
                else NOGC
            )
            solved = CFun(fn_ct.params, fn_ct.result, solved_effect)
            signatures[name] = printer.signature(name, solved)
        return signatures

