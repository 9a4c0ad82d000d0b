"""Comparison of estimated unit counts against ground-truth survey data.

Percent differences always use the ground truth as the denominator; when an
external reference report used a different convention, the discrepancies can
be footnoted next to the recomputed values.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .errors import PipelineError, ReportMismatchError, decimal
from .estimate import SocietyEstimate

TOTAL_LABEL = "TOTAL"


@dataclass(frozen=True)
class GroundTruthRow:
    type_label: str
    units: int

    def __post_init__(self):
        if self.units < 0:
            raise PipelineError(f"ground-truth units must be >= 0, got {self.units}")


@dataclass(frozen=True)
class ValidationRow:
    type_label: str
    estimated_units: int
    ground_units: int
    diff_pct: float


def csv_field(rec: dict, column: str, kind: str, line: int, convert=float, expected="a number"):
    """``decimal(rec[column], convert)``; text it refuses is a PipelineError
    naming the ``kind`` of CSV, the line, the column and the value."""
    value = decimal(rec[column], convert)
    if value is None:
        raise PipelineError(
            f"{kind} CSV line {line}, column {column!r}: expected {expected}, got {rec[column]!r}"
        )
    return value


def csv_text(header: str, rows) -> str:
    """The CSV text of the comma-separated ``header`` and ``rows``, ``\\n`` line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buf.getvalue()


def csv_records(
    text: str, kind: str, columns: str, unique: Optional[str] = None
) -> Iterator[tuple[int, dict]]:
    """(line, record) for each row of a CSV whose header holds the
    comma-separated ``columns``; fields missing from a short row read "". A
    value of the ``unique`` column seen twice, and a record the ``csv`` module
    cannot read, is a PipelineError that names the ``kind`` of CSV and the
    line."""
    reader = csv.DictReader(io.StringIO(text), restval="")
    try:
        if reader.fieldnames is None or not set(columns.split(",")) <= set(reader.fieldnames):
            raise PipelineError(f"{kind} CSV needs columns: {columns}")
        seen = set()
        for rec in reader:
            if unique is not None:
                if rec[unique] in seen:
                    raise PipelineError(
                        f"{kind} CSV line {reader.line_num}: duplicate {unique} {rec[unique]!r}"
                    )
                seen.add(rec[unique])
            yield reader.line_num, rec
    except csv.Error as e:  # DictReader.line_num is the last good record's
        raise PipelineError(f"{kind} CSV line {reader.reader.line_num}: {e}") from None


def read_ground_truth(text: str) -> list[GroundTruthRow]:
    """Parse a `type_label,units` CSV; type labels must be unique and units
    integers >= 0."""
    rows = []
    seen = set()
    for line, rec in csv_records(text, "ground-truth", "type_label,units"):
        label = rec["type_label"].strip()
        if label in seen:
            raise PipelineError(f"duplicate ground-truth type label {label!r}")
        seen.add(label)
        rows.append(csv_field(rec, "units", "ground-truth", line,
                              lambda raw: GroundTruthRow(label, int(raw)), "an integer >= 0"))
    return rows


def percent_diff(estimated: int, ground: int) -> float:
    """|estimated - ground| / ground * 100, ground truth as denominator."""
    if ground == 0:
        raise ReportMismatchError("ground-truth units are 0; percent difference undefined")
    return abs(estimated - ground) / ground * 100.0


def validate_report(
    est: SocietyEstimate, gt: Sequence[GroundTruthRow]
) -> list[ValidationRow]:
    """One row per type plus a TOTAL row; both sides must list the same types.
    A mismatch names on their own the ground-truth types whose buildings
    were all excluded."""
    gt_by_type = {row.type_label: row.units for row in gt}
    est_types = set(est.per_type)
    gt_types = set(gt_by_type)
    if est_types != gt_types:
        only_gt = gt_types - est_types
        parts = [
            f"{what}: {', '.join(sorted(labels))}"
            for what, labels in (
                ("only estimated", est_types - gt_types),
                ("only ground truth", only_gt - set(est.excluded_types)),
                ("all buildings excluded", only_gt & set(est.excluded_types)),
            )
            if labels
        ]
        raise ReportMismatchError("type labels do not match (" + "; ".join(parts) + ")")

    rows = [
        ValidationRow(label, tot.units, gt_by_type[label], percent_diff(tot.units, gt_by_type[label]))
        for label, tot in est.per_type.items()
    ]
    ground_total = sum(gt_by_type.values())
    rows.append(
        ValidationRow(
            TOTAL_LABEL,
            est.total_units,
            ground_total,
            percent_diff(est.total_units, ground_total),
        )
    )
    return rows


def render_report_csv(rows: Sequence[ValidationRow]) -> str:
    return csv_text(
        "type_label,estimated_units,ground_units,diff_pct",
        ((r.type_label, r.estimated_units, r.ground_units, f"{r.diff_pct:.2f}") for r in rows),
    )


def diff_footnotes(
    rows: Sequence[ValidationRow], published_diffs: Mapping[str, float]
) -> list[str]:
    """Note rows whose recomputed percent difference disagrees with a
    previously published figure (usually a denominator-convention artifact)."""
    notes = []
    for row in rows:
        published = published_diffs.get(row.type_label)
        if published is None:
            continue
        if abs(round(row.diff_pct, 2) - published) > 0.005:
            notes.append(
                f"{row.type_label}: recomputed unit diff {row.diff_pct:.2f}% differs "
                f"from published {published}% (denominator convention)"
            )
    return notes


def person_total_footnotes(
    est: SocietyEstimate, published_persons: Mapping[str, float]
) -> list[str]:
    """Note per-type person totals that disagree with published figures."""
    notes = []
    for label, tot in est.per_type.items():
        published = published_persons.get(label)
        if published is None:
            continue
        if abs(tot.persons - published) > 1e-9:
            notes.append(
                f"{label}: computed {tot.persons:g} persons vs published "
                f"{published:g} (arithmetic discrepancy in the published total)"
            )
    published_total = published_persons.get(TOTAL_LABEL)
    if published_total is not None and abs(est.total_persons - published_total) > 1e-9:
        notes.append(
            f"{TOTAL_LABEL}: computed {est.total_persons:g} persons vs published "
            f"{published_total:g}"
        )
    return notes
