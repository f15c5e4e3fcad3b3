"""Regeneration of the paper's result tables on the benchmark suite.

Each ``run_tableN`` function produces the same rows/columns the paper
reports (Tables 1-3), computed on our circuits; ``format_table`` renders
them as aligned text.  The benchmark harness (``benchmarks/``), the CLI
(``python -m repro tableN``) and EXPERIMENTS.md all share these functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.circuit.netlist import Circuit
from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs
from repro.core.hazard import check_hazards
from repro.core.result import DetectionResult, Stage
from repro.core.sensitization import SensitizationMode
from repro.core.session import SAT_CONFLICT_LIMIT
from repro.sat.mc_sat import sat_detect_multi_cycle_pairs


@dataclass
class Table:
    """A titled text table plus the raw row data."""

    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: list[str] = field(default_factory=list)

    def format(self) -> str:
        return format_table(self.title, self.headers, self.rows, self.notes)


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> str:
    """Render rows as a fixed-width text table."""
    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(headers))))
    for note in notes:
        lines.append(f"  {note}")
    return "\n".join(lines)


def _apply_pipeline_options(
    options: DetectorOptions | None,
    engine: str | None,
    workers: int | None,
) -> DetectorOptions | None:
    """Fold ``engine``/``workers`` overrides into the detector options."""
    if engine is None and workers is None:
        return options
    from dataclasses import replace

    base = options or DetectorOptions()
    updates: dict[str, object] = {}
    if engine is not None:
        updates["search_engine"] = engine
    if workers is not None:
        updates["workers"] = workers
    return replace(base, **updates)


# ----------------------------------------------------------------------
# Table 1: MC pairs + CPU, implication-based vs SAT-based.
# ----------------------------------------------------------------------
def run_table1(
    circuits: Sequence[Circuit],
    options: DetectorOptions | None = None,
    sat_mode: str = "per-pair",
    run_sat: bool = True,
    engine: str | None = None,
    workers: int | None = None,
) -> tuple[Table, list[DetectionResult]]:
    """Per-circuit MC-pair counts and CPU seconds, ours vs SAT baseline.

    Mirrors the paper's Table 1 (their SAT column is ref. [9]; ours is the
    from-scratch CDCL baseline in the requested ``sat_mode``).  ``engine``
    and ``workers`` select the pipeline's decision engine and worker count
    for the "ours" column without the caller building options by hand.
    """
    options = _apply_pipeline_options(options, engine, workers)
    headers = ["circuit", "In", "FF", "FF-pair", "MC-pair", "CPU(s)",
               "SAT MC-pair", "SAT CPU(s)"]
    rows: list[list[object]] = []
    detections: list[DetectionResult] = []
    total_pairs = total_mc = 0
    total_cpu = total_sat_cpu = 0.0
    for circuit in circuits:
        detection = detect_multi_cycle_pairs(circuit, options)
        detections.append(detection)
        stats = circuit.stats()
        mc = len(detection.multi_cycle_pairs)
        row: list[object] = [
            circuit.name, stats["inputs"], stats["dffs"],
            detection.connected_pairs, mc, detection.total_seconds,
        ]
        if run_sat:
            sat = sat_detect_multi_cycle_pairs(circuit, mode=sat_mode)
            row.extend([len(sat.multi_cycle_pairs), sat.total_seconds])
            total_sat_cpu += sat.total_seconds
        else:
            row.extend(["-", "-"])
        rows.append(row)
        total_pairs += detection.connected_pairs
        total_mc += mc
        total_cpu += detection.total_seconds
    rows.append(
        ["Total", "", "", total_pairs, total_mc, total_cpu,
         "", total_sat_cpu if run_sat else "-"]
    )
    notes = [
        "MC-pair counts include self-loop pairs (the paper notes [9] excluded them).",
        f"SAT baseline mode: {sat_mode}.",
    ]
    return Table("Table 1: multi-cycle FF pairs (no hazard checking)",
                 headers, rows, notes), detections


# ----------------------------------------------------------------------
# Table 2: per-stage resolution counts.
# ----------------------------------------------------------------------
def run_table2(
    circuits: Sequence[Circuit],
    options: DetectorOptions | None = None,
    detections: Sequence[DetectionResult] | None = None,
) -> Table:
    """Totals of pairs identified per stage (Sim / Implication / ATPG / SAT)."""
    if detections is None:
        detections = [detect_multi_cycle_pairs(c, options) for c in circuits]
    single = {stage: 0 for stage in Stage}
    multi = {stage: 0 for stage in Stage}
    cpu = {stage: 0.0 for stage in Stage}
    undecided = 0
    for detection in detections:
        for stage in Stage:
            stage_stats = detection.stats[stage]
            single[stage] += stage_stats.single_cycle
            multi[stage] += stage_stats.multi_cycle
            undecided += stage_stats.undecided
            cpu[stage] += stage_stats.cpu_seconds

    def percent(count: int, total: int) -> str:
        return f"{count} ({100.0 * count / total:.1f}%)" if total else "0"

    total_single = sum(single.values())
    total_multi = sum(multi.values())
    # The paper's three columns, plus one per extra pipeline stage: the
    # SAT tier that decides what implication (and the ATPG search, when
    # it has a budget) left open, and the "decision" column that only
    # carries counts for non-implication engines.
    labels = {
        Stage.SIMULATION: "Sim.",
        Stage.IMPLICATION: "Implication",
        Stage.ATPG: "ATPG",
        Stage.SAT: "SAT",
        Stage.DECISION: "Decision",
    }
    headers = [""] + [labels.get(s, s.value) for s in Stage]
    rows = [
        ["single cycle"] + [percent(single[s], total_single) for s in Stage],
        ["multi cycle"] + [percent(multi[s], total_multi) for s in Stage],
        ["CPU(s)"] + [cpu[s] for s in Stage],
    ]
    notes = [
        f"undecided pairs (the SAT tier's {SAT_CONFLICT_LIMIT:,}-conflict "
        f"budget ran out): {undecided}"
    ] if undecided else []
    return Table("Table 2: results of each analysis step", headers, rows, notes)


# ----------------------------------------------------------------------
# Table 3: static hazard checking.
# ----------------------------------------------------------------------
def run_table3(
    circuits: Sequence[Circuit],
    options: DetectorOptions | None = None,
) -> Table:
    """MC pairs before/after hazard checks plus checking CPU time.

    The circuits are technology-mapped first (hazards live in the mapped
    AND/OR/NOT structure, paper Fig. 3).
    """
    from repro.circuit.techmap import techmap

    before = 0
    kept = {mode: 0 for mode in SensitizationMode}
    cpu = {mode: 0.0 for mode in SensitizationMode}
    for circuit in circuits:
        mapped = techmap(circuit)
        detection = detect_multi_cycle_pairs(mapped, options)
        before += len(detection.multi_cycle_pairs)
        for mode in SensitizationMode:
            result = check_hazards(mapped, detection, mode)
            kept[mode] += len(result.verified_pairs)
            cpu[mode] += result.total_seconds

    headers = ["", "MC-pair", "CPU(s)"]
    rows: list[list[object]] = [["before", before, 0.0]]
    rows.append(
        ["sensitize", kept[SensitizationMode.STATIC_SENSITIZATION],
         cpu[SensitizationMode.STATIC_SENSITIZATION]]
    )
    rows.append(
        ["co-sensitize", kept[SensitizationMode.STATIC_CO_SENSITIZATION],
         cpu[SensitizationMode.STATIC_CO_SENSITIZATION]]
    )
    notes = [
        "Rows are MC pairs surviving each check (detection on mapped circuits).",
        "Invariant: before >= sensitize >= co-sensitize.",
    ]
    return Table("Table 3: results of static hazard checking", headers, rows, notes)
