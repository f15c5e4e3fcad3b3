"""Run every workload and print every metric with its unit and samples.

Usage (from the root of a checkout)::

    python3 perfbench/report.py [--workloads stream-scale,eco-chain]
        [--seed 1] [--format table|json]

Each workload runs twice through ``run.py``'s measurement code: once as
``--trace 0`` does, which gives the end-to-end metrics and
``failed_frac``, and once as ``--trace 1`` does, which gives the
per-layer metrics and the layer ledger (self seconds, share of traced
wall, calls).  The checker gathers the numbers; the formatter only
renders them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Any

import run


class OutputFormat(str, Enum):
    table = "table"
    json = "json"


@dataclass
class MetricRow:
    name: str
    unit: str
    value: float
    samples: int
    kind: str


@dataclass
class WorkloadReport:
    workload: str
    why: str
    spec: str
    seed: int
    options: dict[str, Any]
    ffs: float
    pairs: float
    #: operations of the untraced run, the one ``--trace 0`` gates
    attempted: int
    failed: int
    #: failures of both runs, traced-run ones prefixed "traced run:"
    failures: list[str] = field(default_factory=list)
    metrics: list[MetricRow] = field(default_factory=list)
    ledger: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class BenchmarkChecker:
    """Measures workloads; knows nothing about how results are shown."""

    def __init__(self, benchmark: dict[str, Any], seed: int) -> None:
        self.benchmark = benchmark
        self.seed = seed

    def check(self, workload: Any) -> WorkloadReport:
        # The same two runs the benchmark makes: untraced for the
        # end-to-end metrics, traced for the per-layer ones and the ledger.
        plain = run.run_workload(workload, self.seed, False)
        traced = run.run_workload(workload, self.seed, True)
        why = next((w["why"] for w in self.benchmark["workloads"]
                    if w["name"] == workload.name),
                   "not in BENCHMARK.json: measured by this report only")
        report = WorkloadReport(
            workload=workload.name, why=why, spec=workload.spec,
            seed=self.seed, options=workload.options,
            ffs=run._mean([o["netlist"]["ffs"] for o in plain.plain]),
            pairs=run._mean([o["netlist"]["pairs"] for o in plain.plain]),
            attempted=plain.attempted, failed=plain.failed,
            failures=plain.failures
            + [f"traced run: {f}" for f in traced.failures],
        )
        if plain.plain:
            self._rows(report, "end_to_end", run.end_to_end(plain))
        if traced.traced:
            self._rows(report, "per_layer", run.per_layer(traced))
            report.ledger = run.ledger_table(traced)
        return report

    def _rows(self, report: WorkloadReport, kind: str,
              measured: dict[str, tuple[float, int]]) -> None:
        for declared in self.benchmark[kind]:
            value, samples = measured[declared["name"]]
            report.metrics.append(MetricRow(
                declared["name"], declared["unit"], value, samples, kind
            ))


class ReportFormatter:
    """Renders workload reports as a text table or as JSON."""

    def __init__(self, output_format: OutputFormat) -> None:
        self.output_format = output_format

    def render(self, reports: list[WorkloadReport]) -> str:
        if self.output_format is OutputFormat.json:
            return json.dumps(
                [dict(asdict(r), failed_frac=r.failed_frac) for r in reports],
                indent=2,
            )
        return "\n\n".join(self._table(r) for r in reports)

    @staticmethod
    def _table(report: WorkloadReport) -> str:
        lines = [
            f"== {report.workload}: {report.spec}, seed {report.seed}, "
            f"options {report.options or 'defaults'}",
            f"   {report.ffs:.0f} FFs, {report.pairs:.0f} connected pairs "
            f"(mean per netlist); {report.why}",
            f"   failed_frac {report.failed_frac:.4f} "
            f"({report.failed}/{report.attempted} operations)",
        ]
        lines += [f"   failure: {f.splitlines()[-1]}" for f in report.failures]
        lines.append(f"   {'metric':44s} {'value':>14s} {'unit':8s} samples")
        for row in report.metrics:
            lines.append(f"   {row.name:44s} {row.value:14.6g} "
                         f"{row.unit:8s} {row.samples}")
        if report.ledger:
            lines.append(f"   {'layer (traced)':44s} {'self s':>14s} "
                         f"{'share':>8s} {'calls':>10s}")
            for layer, row in sorted(report.ledger.items(),
                                     key=lambda kv: -kv[1]["self_s"]):
                lines.append(f"   {layer:44s} {row['self_s']:14.4f} "
                             f"{row['share']:8.1%} {row['calls']:10.1f}")
        return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--format", type=OutputFormat,
                        choices=list(OutputFormat), default=OutputFormat.table)
    args = parser.parse_args(argv)

    if not (run.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    benchmark = run.load_benchmark()
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workloads {unknown}", file=sys.stderr)
        return 2
    checker = BenchmarkChecker(benchmark, args.seed)
    reports = [checker.check(WORKLOADS[name]) for name in names]
    print(ReportFormatter(args.format).render(reports))
    return 0 if all(not r.failures and r.metrics for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
