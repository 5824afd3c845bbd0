"""REPRO8xx — kernel-layer discipline.

PR 10 hoisted the stack's hot inner loops (cell-table gather, closed-ball
membership, edge splicing, event stepping) into :mod:`repro.kernels`: one
SoA vocabulary with scalar ``reference`` loops and property-tested
byte-identity certificates.  The refactor only stays done if new hot paths
keep going *through* that layer instead of hand-rolling the same
searchsorted/argsort idioms inline — every inline copy is one more loop the
certificates do not cover and one more place an optimisation has to be
re-implemented.

:class:`InlineKernelIdiomRule` approximates "hand-rolled kernel hot path"
by idiom co-occurrence *within one function*: a CSR-style gather
(``searchsorted`` feeding a ``repeat`` expansion) or a sort-and-regroup
(``argsort``/``lexsort`` feeding a ``split``).  Either combination is the
signature of code re-implementing ``cell_gather``/``pair_candidates``;
single uses of any of these functions are ubiquitous and never flagged.
A third idiom is flagged per call: ``np.unique`` with an ``axis`` keyword
is a hand-rolled edge splice (row-wise dedup) that belongs to
``splice_edges``; the 1-D ``np.unique`` calls stay clean.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.devtools.engine import FileContext, Finding, Rule

#: searchsorted feeding repeat: the CSR bulk-gather idiom (cell_gather /
#: pair_candidates territory).
_GATHER_CALLS = {"numpy.searchsorted", "numpy.repeat"}
#: argsort/lexsort feeding split: the sort-and-regroup idiom
#: (pair_candidates / sort_groups territory).
_SORTS = {"numpy.argsort", "numpy.lexsort"}
_REGROUP = "numpy.split"
#: np.unique(..., axis=...): the row-wise dedup idiom (splice_edges territory).
_UNIQUE = "numpy.unique"


class InlineKernelIdiomRule(Rule):
    code = "REPRO801"
    name = "inline-kernel-idiom"
    summary = (
        "No hand-rolled gather/regroup/splice hot paths (searchsorted+repeat, "
        "argsort/lexsort+split, np.unique(axis=...)) outside repro.kernels; "
        "call the kernel layer."
    )
    rationale = (
        "The kernel layer (repro.kernels) carries the property-tested "
        "byte-identity certificates.  A function "
        "that re-rolls the CSR gather (np.searchsorted feeding np.repeat) or "
        "the sort-and-regroup (np.argsort/np.lexsort feeding np.split), or "
        "that dedups rows with np.unique(..., axis=...), is a hot path the "
        "certificates do not cover — route it through kernels.ops "
        "(cell_gather / pair_candidates / splice_edges) or kernels.layout "
        "(sort_groups) instead, or add the module to the allowlist if it is "
        "a sanctioned kernel home."
    )
    # The sanctioned homes of these idioms:
    #  - the kernel package itself (the implementations under certificate);
    #  - geometry/index.py: the grid index's packed-key construction feeds
    #    the kernels and documents its own chunk discipline;
    #  - dynamics/incremental.py: the dynamic index's compaction keeps one
    #    argsort+split regroup over its own id space.
    allow_paths = (
        "src/repro/kernels/*",
        "src/repro/geometry/index.py",
        "src/repro/dynamics/incremental.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and ctx.qualified_name(node.func) == _UNIQUE
                and any(kw.arg == "axis" for kw in node.keywords)
            ):
                yield ctx.finding(
                    self,
                    node,
                    "np.unique(..., axis=...) hand-rolls an edge splice; orient "
                    "the rows and call repro.kernels.ops.splice_edges",
                )
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls: Set[str] = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    qual = ctx.qualified_name(sub.func)
                    if qual:
                        calls.add(qual)
            if _GATHER_CALLS <= calls:
                yield ctx.finding(
                    self,
                    node,
                    f"function {node.name!r} hand-rolls a searchsorted+repeat "
                    "gather; use repro.kernels.ops.cell_gather (or "
                    "pair_candidates) so the byte-identity certificates cover it",
                )
            elif calls & _SORTS and _REGROUP in calls:
                yield ctx.finding(
                    self,
                    node,
                    f"function {node.name!r} hand-rolls an argsort/lexsort+split "
                    "regroup; use repro.kernels.ops.pair_candidates or "
                    "repro.kernels.layout.sort_groups",
                )
