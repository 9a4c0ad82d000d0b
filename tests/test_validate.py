import pytest

from popvol import (
    GroundTruthRow,
    ReportMismatchError,
    SocietyEstimate,
    diff_footnotes,
    percent_diff,
    person_total_footnotes,
    read_ground_truth,
    render_report_csv,
    validate_report,
)
from popvol.estimate import TypeTotal

import site_data


def _society(units_by_type, persons_by_type=None):
    persons_by_type = persons_by_type or {}
    per_type = {
        label: TypeTotal(units=units, persons=persons_by_type.get(label, 0.0))
        for label, units in sorted(units_by_type.items())
    }
    return SocietyEstimate(
        per_type=per_type,
        total_units=sum(units_by_type.values()),
        total_persons=sum(persons_by_type.values()),
    )


def test_percent_diff_examples():
    assert percent_diff(136, 133) == pytest.approx(2.2556, abs=1e-4)
    assert percent_diff(240, 241) == pytest.approx(0.4149, abs=1e-4)
    assert percent_diff(648, 648) == 0.0


def test_percent_diff_zero_ground_rejected():
    with pytest.raises(ReportMismatchError):
        percent_diff(5, 0)


def test_percent_diff_reflection_symmetry():
    # only |estimated - ground| matters
    for est, ground in [(136, 133), (32, 43), (100, 250)]:
        mirrored = 2 * ground - est
        assert percent_diff(mirrored, ground) == pytest.approx(percent_diff(est, ground))


def test_percent_diff_nonnegative_zero_iff_equal():
    for est in range(0, 30):
        d = percent_diff(est, 17)
        assert d >= 0
        assert (d == 0) == (est == 17)


def test_validate_report_site_totals():
    society = _society(site_data.EXPECTED_UNIT_TOTALS)
    gt = [GroundTruthRow(t, u) for t, u in site_data.GROUND_TRUTH_UNITS.items()]
    rows = validate_report(society, gt)
    assert [r.type_label for r in rows] == ["Type1", "Type2", "Type3", "Type4", "Type5", "TOTAL"]
    total = rows[-1]
    assert total.estimated_units == 648
    assert total.ground_units == 659
    assert total.diff_pct == pytest.approx(1.6692, abs=1e-4)


def test_validate_report_identical_all_zero():
    society = _society({"A": 10, "B": 20})
    gt = [GroundTruthRow("A", 10), GroundTruthRow("B", 20)]
    rows = validate_report(society, gt)
    assert all(r.diff_pct == 0.0 for r in rows)


def test_validate_report_label_mismatch():
    society = _society(site_data.EXPECTED_UNIT_TOTALS)
    gt = [
        GroundTruthRow(t, u)
        for t, u in site_data.GROUND_TRUTH_UNITS.items()
        if t != "Type5"
    ]
    with pytest.raises(ReportMismatchError, match="Type5"):
        validate_report(society, gt)


def test_validate_report_mismatch_names_each_kind_of_missing_type():
    society = _society({"A": 4, "E": 2})
    society.excluded_types = ("C",)
    gt = [GroundTruthRow(t, 1) for t in ("A", "B", "C", "D")]
    with pytest.raises(ReportMismatchError) as err:
        validate_report(society, gt)
    assert str(err.value) == (
        "type labels do not match (only estimated: E; only ground truth: B, D; "
        "all buildings excluded: C)"
    )


def test_report_totals_are_column_sums():
    society = _society({"A": 12, "B": 7, "C": 31})
    gt = [GroundTruthRow("A", 10), GroundTruthRow("B", 9), GroundTruthRow("C", 30)]
    rows = validate_report(society, gt)
    assert rows[-1].estimated_units == sum(r.estimated_units for r in rows[:-1])
    assert rows[-1].ground_units == sum(r.ground_units for r in rows[:-1])


def test_render_report_csv():
    society = _society({"A": 136})
    rows = validate_report(society, [GroundTruthRow("A", 133)])
    text = render_report_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "type_label,estimated_units,ground_units,diff_pct"
    assert lines[1] == "A,136,133,2.26"
    assert lines[2] == "TOTAL,136,133,2.26"


def test_read_ground_truth():
    rows = read_ground_truth("type_label,units\nType1,133\nType2,211\n")
    assert rows == [GroundTruthRow("Type1", 133), GroundTruthRow("Type2", 211)]


def test_read_ground_truth_duplicate_label():
    with pytest.raises(Exception, match="duplicate"):
        read_ground_truth("type_label,units\nType1,133\nType1,4\n")


def test_diff_footnotes_flags_convention_differences():
    society = _society(site_data.EXPECTED_UNIT_TOTALS)
    gt = [GroundTruthRow(t, u) for t, u in site_data.GROUND_TRUTH_UNITS.items()]
    rows = validate_report(society, gt)
    notes = diff_footnotes(rows, site_data.PUBLISHED_UNIT_DIFF_PCT)
    flagged = {n.split(":")[0] for n in notes}
    # Type3 agrees at 2 decimals; everything else was published differently
    assert flagged == {"Type1", "Type2", "Type4", "Type5", "TOTAL"}


def test_person_total_footnotes():
    society = _society(
        site_data.EXPECTED_UNIT_TOTALS,
        persons_by_type=site_data.EXPECTED_PERSON_TOTALS,
    )
    notes = person_total_footnotes(society, site_data.PUBLISHED_PERSONS)
    flagged = {n.split(":")[0] for n in notes}
    assert flagged == {"Type2", "TOTAL"}
