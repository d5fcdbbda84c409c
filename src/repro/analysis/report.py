"""Paper-vs-measured markdown report generation.

Turns a collection of :class:`~repro.analysis.series.ExperimentSeries`
plus their shape-check verdicts into paper-vs-measured markdown.  Used
by the CLI's ``--out`` mode.  Panels can be
built from live series or loaded back out of a sweep's
:class:`~repro.sim.results.ResultsBackend` — JSON directory or SQLite
file alike (:func:`panels_from_store`), so reports are reproducible
from persisted artifacts alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.series import ExperimentSeries
from repro.analysis.shape_checks import ShapeCheck

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.sim.results import ResultsBackend

__all__ = ["PanelReport", "panels_from_store", "render_report"]


@dataclass
class PanelReport:
    """One figure panel: series slice + the paper's claim about it."""

    panel: str  # e.g. "Fig 10(a)"
    metric: str
    series: ExperimentSeries
    paper_claim: str
    checks: Sequence[ShapeCheck] = field(default_factory=tuple)

    def to_markdown(self) -> str:
        """Markdown section: heading, paper claim, table, check list."""
        lines = [
            f"### {self.panel} — `{self.metric}` "
            f"({self.series.runs} runs per point)",
            "",
            f"**Paper:** {self.paper_claim}",
            "",
            self.series.to_markdown(self.metric),
        ]
        if self.checks:
            lines.append("")
            lines.append("Shape checks:")
            for c in self.checks:
                mark = "x" if c.passed else " "
                detail = f" — {c.detail}" if (not c.passed and c.detail) else ""
                lines.append(f"- [{mark}] {c.claim}{detail}")
        return "\n".join(lines)


def panels_from_store(
    store: "ResultsBackend",
    panel_specs: Sequence[tuple[str, str, str, str]],
) -> list[PanelReport]:
    """Build panels from a results store instead of in-memory series.

    ``panel_specs`` entries are ``(experiment_id, panel, metric,
    paper_claim)``; each experiment id must have an assembled series in
    the store (written by a previous ``run_sweep(..., store=...)``).
    Raises :class:`~repro.errors.ConfigurationError` for missing ids.
    """
    series_cache: dict[str, ExperimentSeries] = {}
    panels: list[PanelReport] = []
    for experiment_id, panel, metric, claim in panel_specs:
        if experiment_id not in series_cache:
            series_cache[experiment_id] = store.load_series(experiment_id)
        panels.append(
            PanelReport(
                panel=panel,
                metric=metric,
                series=series_cache[experiment_id],
                paper_claim=claim,
            )
        )
    return panels


def render_report(
    title: str,
    preamble: str,
    panels: Sequence[PanelReport],
) -> str:
    """Full markdown document for a set of panels."""
    parts = [f"# {title}", "", preamble.strip(), ""]
    current_experiment = None
    for p in panels:
        if p.series.experiment != current_experiment:
            current_experiment = p.series.experiment
            parts.append(f"## {current_experiment}")
            parts.append("")
        parts.append(p.to_markdown())
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"
