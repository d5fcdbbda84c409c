"""Experiment series containers and table rendering.

An :class:`ExperimentSeries` holds, for one experiment, the mean value
of each metric for each strategy at each x-value — i.e. exactly one of
the paper's figure panels per (metric) slice.  Rendering produces the
rows the benchmark harness prints.  Series round-trip losslessly
through plain dicts / JSON files, which is how the results store
(:mod:`repro.sim.results`) persists and reloads them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["ExperimentSeries", "write_json_atomic"]


def write_json_atomic(path: Path | str, payload) -> Path:
    """Write ``payload`` as JSON via write-then-rename.

    The single JSON-persistence primitive of the results machinery:
    readers never observe partial files, even if the writer dies
    mid-write.  The temp name is unique per writer, so concurrent
    processes racing the same destination (workers saving an
    at-least-once duplicate) each rename a complete file — last write
    wins, no window where the destination is missing or partial.
    """
    import os
    import uuid

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


@dataclass
class ExperimentSeries:
    """Averaged results of one experiment.

    Attributes
    ----------
    experiment:
        Short id, e.g. ``"fig10-join"``.
    x_label:
        Name of the swept parameter (``"N"``, ``"raisefactor"``, ...).
    x_values:
        The sweep points.
    metrics:
        ``metric -> strategy -> [mean at each x]``.
    runs:
        Number of runs each mean aggregates.
    """

    experiment: str
    x_label: str
    x_values: list[float]
    metrics: dict[str, dict[str, list[float]]]
    runs: int
    notes: str = ""
    stderr: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def strategies(self) -> list[str]:
        """Strategy names present (stable order of first metric)."""
        first = next(iter(self.metrics.values()), {})
        return list(first)

    def series(self, metric: str, strategy: str) -> list[float]:
        """The mean series for one (metric, strategy) pair."""
        return self.metrics[metric][strategy]

    def value_at(self, metric: str, strategy: str, x: float) -> float:
        """Mean of ``metric`` for ``strategy`` at sweep point ``x``."""
        i = self.x_values.index(x)
        return self.metrics[metric][strategy][i]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain JSON-able dict (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSeries":
        """Rebuild a series from :meth:`to_dict` output."""
        return cls(
            experiment=data["experiment"],
            x_label=data["x_label"],
            x_values=[float(x) for x in data["x_values"]],
            metrics=data["metrics"],
            runs=int(data["runs"]),
            notes=data.get("notes", ""),
            stderr=data.get("stderr", {}),
        )

    def save(self, path: Path | str) -> Path:
        """Write the series to ``path`` as JSON (atomically)."""
        return write_json_atomic(path, self.to_dict())

    @classmethod
    def load(cls, path: Path | str) -> "ExperimentSeries":
        """Read a series previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def table(self, metric: str, *, fmt: str = "{:>10.2f}") -> str:
        """ASCII table of one metric: one row per x, one column per strategy."""
        strategies = list(self.metrics[metric])
        header = f"{self.x_label:>10} | " + " ".join(f"{s:>10}" for s in strategies)
        rule = "-" * len(header)
        lines = [f"[{self.experiment}] {metric} (mean of {self.runs} runs)", header, rule]
        for i, x in enumerate(self.x_values):
            row = f"{x:>10g} | " + " ".join(
                fmt.format(self.metrics[metric][s][i]) for s in strategies
            )
            lines.append(row)
        return "\n".join(lines)

    def to_markdown(self, metric: str) -> str:
        """Markdown table of one metric (for the ``--out`` report)."""
        strategies = list(self.metrics[metric])
        lines = [
            "| " + self.x_label + " | " + " | ".join(strategies) + " |",
            "|" + "---|" * (len(strategies) + 1),
        ]
        for i, x in enumerate(self.x_values):
            cells = " | ".join(f"{self.metrics[metric][s][i]:.2f}" for s in strategies)
            lines.append(f"| {x:g} | {cells} |")
        return "\n".join(lines)

    def render_all(self) -> str:
        """All metric tables, blank-line separated."""
        return "\n\n".join(self.table(m) for m in self.metrics)
