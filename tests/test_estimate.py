import math

import pytest

from popvol import (
    BuildingHeightRecord,
    ConfigError,
    EstimationConfig,
    Footprint,
    PersonsBand,
    aggregate,
    estimate_building,
    floors_from_height,
    persons_per_unit,
    units_per_floor,
)

import site_data
from conftest import rectangle_ring

CFG = EstimationConfig()


@pytest.mark.parametrize(
    "height,floors",
    [(19.8, 7), (9.0, 3), (20.0, 7), (4.5, 2), (6.0, 2), (10.0, 4), (12.0, 4), (2.0, 1)],
)
def test_floors_from_height(height, floors):
    assert floors_from_height(height, CFG) == floors


def test_floors_below_minimum_excluded():
    assert floors_from_height(1.0, CFG) is None
    assert floors_from_height(0.0, CFG) is None
    assert floors_from_height(-0.5, CFG) is None


def test_floors_monotone_in_height():
    heights = [i * 0.25 for i in range(8, 120)]
    floors = [floors_from_height(h, CFG) for h in heights]
    for a, b in zip(floors, floors[1:]):
        assert b >= a


def test_units_per_floor_override_wins():
    assert units_per_floor(915.0, 187.5, CFG, override=4) == 4


def test_units_per_floor_from_areas():
    # floor(516.8 * 0.7 / 90.25) = floor(4.008) = 4
    assert units_per_floor(516.8, 90.25, CFG) == 4
    # floor(915 * 0.7 / 187.5) = floor(3.416) = 3
    assert units_per_floor(915.0, 187.5, CFG) == 3


def test_units_per_floor_at_least_one():
    assert units_per_floor(20.0, 100.0, CFG) == 1


@pytest.mark.parametrize("override", [None, 4])
def test_estimate_building_requires_unit_area(override):
    rec = BuildingHeightRecord("B42", 10.0, 915.0, 200)
    fp = Footprint("B42", "T", rectangle_ring(0, 0, 30, 30.5), units_per_floor_override=override)
    message = "^building 'B42': unit_area_m2 is required to assign persons per unit$"
    with pytest.raises(ConfigError, match=message):
        estimate_building(rec, fp, CFG)


@pytest.mark.parametrize(
    "area,persons",
    [
        (150.0, 6.0),   # inside the 146-187 band
        (35.75, 2.0),   # exact point band
        (60.0, 3.5),    # gap: midpoint 51 nearer than 87.5
        (43.2, 3.0),    # gap: nearest midpoint is the 43.1 point band
        (90.25, 4.0),   # gap just above the 85-90 band
        (85.0, 4.0),    # inclusive lower bound
        (52.0, 3.5),    # inclusive upper bound
        (10.0, 2.0),    # below every band -> nearest extreme
        (500.0, 6.0),   # above every band -> nearest extreme
    ],
)
def test_persons_per_unit(area, persons):
    assert persons_per_unit(area, CFG) == persons


def test_persons_gap_tie_takes_smaller_band():
    bands = (PersonsBand(0.0, 10.0, 1.0), PersonsBand(30.0, 40.0, 2.0))
    # 20 is equidistant from midpoints 5 and 35
    assert persons_per_unit(20.0, EstimationConfig(bands=bands)) == 1.0


def test_band_validation():
    with pytest.raises(ConfigError):
        PersonsBand(10.0, 5.0, 2.0)
    with pytest.raises(ConfigError):
        PersonsBand(1.0, 2.0, 0.0)
    with pytest.raises(ConfigError):
        PersonsBand(1.0, 2.0, 21.0)
    with pytest.raises(ConfigError):
        EstimationConfig(bands=(PersonsBand(0, 10, 1), PersonsBand(5, 20, 2)))
    with pytest.raises(ConfigError):
        EstimationConfig(bands=())


def test_config_validation():
    with pytest.raises(ConfigError):
        EstimationConfig(floor_height_m=0)
    with pytest.raises(ConfigError):
        EstimationConfig(occupancy_rate=1.5)
    with pytest.raises(ConfigError):
        EstimationConfig(efficiency=0)


def _fp(unit_area, override=4, type_label="Type4"):
    return Footprint(
        "B1", type_label, rectangle_ring(0, 0, 15, 16.5),
        unit_area_m2=unit_area, units_per_floor_override=override,
    )


def test_estimate_building_composition():
    rec = BuildingHeightRecord("B1", 10.0, 15 * 16.5, 200)
    est = estimate_building(rec, _fp(43.1), CFG)
    assert (est.floors, est.units, est.persons) == (4, 16, 48.0)


def test_estimate_building_zero_occupancy():
    cfg = EstimationConfig(occupancy_rate=0.0)
    rec = BuildingHeightRecord("B1", 10.0, 250.0, 200)
    est = estimate_building(rec, _fp(43.1), cfg)
    assert est.units == 16
    assert est.persons == 0.0


def test_estimate_building_tall_tower():
    rec = BuildingHeightRecord("B1", 19.8, 915.0, 900)
    est = estimate_building(rec, _fp(150.0), CFG)
    assert (est.floors, est.units, est.persons) == (7, 28, 168.0)


def test_estimate_building_excluded_when_short():
    rec = BuildingHeightRecord("B1", 1.0, 900.0, 900)
    est = estimate_building(rec, _fp(150.0), CFG)
    assert est.excluded
    assert est.excluded_reason == "below minimum height"
    assert est.persons == 0.0 and est.units == 0


def test_estimate_building_requires_unit_area_for_persons():
    rec = BuildingHeightRecord("B1", 10.0, 900.0, 900)
    with pytest.raises(ConfigError, match="unit_area_m2"):
        estimate_building(rec, _fp(None), CFG)


@pytest.mark.parametrize(
    "cfg,fp,message",
    [
        (EstimationConfig(floor_height_m=1e-320), _fp(150.0),
         "height 10.0 m over floor_height_m 1e-320 gives inf floors"),
        (CFG, _fp(5e-324, override=None),
         "footprint area 900.0 m2 at efficiency 0.7 over unit_area_m2 5e-324 gives inf units "
         "per floor"),
        (EstimationConfig(floor_height_m=1e-10), _fp(150.0, override=10**300),
         "floors, units per floor and persons per unit give inf persons"),
    ],
    ids=["floors", "units_per_floor", "persons"],
)
def test_non_finite_building_quantities_are_config_errors_naming_the_building(cfg, fp, message):
    """A quotient beyond the float range once ended in an OverflowError from
    math.ceil/math.floor, which no caller catches."""
    rec = BuildingHeightRecord("B1", 10.0, 900.0, 900)
    with pytest.raises(ConfigError) as caught:
        estimate_building(rec, fp, cfg)
    assert str(caught.value) == f"building 'B1': {message}"


def test_aggregate_rejects_persons_that_sum_beyond_the_float_range():
    cfg = EstimationConfig(floor_height_m=1e-306)
    estimates = [
        estimate_building(BuildingHeightRecord(f"B{i}", 10.0, 900.0, 900), _fp(43.1), cfg)
        for i in range(2)
    ]
    assert all(math.isfinite(e.persons) for e in estimates)
    with pytest.raises(ConfigError, match="^the buildings' persons sum to inf$"):
        aggregate(estimates)


def test_estimate_invariants():
    rec = BuildingHeightRecord("B1", 13.7, 500.0, 450)
    for occupancy in (1.0, 0.75, 0.5):
        cfg = EstimationConfig(occupancy_rate=occupancy)
        est = estimate_building(rec, _fp(90.0), cfg)
        assert est.units == est.floors * est.units_per_floor
        assert est.persons == pytest.approx(est.units * 4.0 * occupancy)


def test_occupancy_scales_linearly():
    rec = BuildingHeightRecord("B1", 16.2, 600.0, 500)
    full = estimate_building(rec, _fp(52.0), EstimationConfig(occupancy_rate=1.0))
    for rate in (0.0, 0.3, 0.85):
        scaled = estimate_building(rec, _fp(52.0), EstimationConfig(occupancy_rate=rate))
        assert scaled.persons == pytest.approx(rate * full.persons)


def test_aggregate_type1_block():
    heights = [19.8, 19.8, 20.0, 4.5, 4.5, 4.5, 19.3]
    estimates = []
    for i, h in enumerate(heights):
        rec = BuildingHeightRecord(f"T1-{i}", h, 915.0, 900)
        estimates.append(estimate_building(rec, _fp(150.0, type_label="Type1"), CFG))
    society = aggregate(estimates)
    assert society.per_type["Type1"].units == 136


def test_aggregate_type4_block():
    estimates = []
    for i, h in enumerate([10.0, 11.0]):
        rec = BuildingHeightRecord(f"T4-{i}", h, 15 * 16.5, 240)
        estimates.append(estimate_building(rec, _fp(43.1), CFG))
    society = aggregate(estimates)
    assert society.per_type["Type4"].units == 32
    assert society.per_type["Type4"].persons == 96.0


def test_aggregate_empty():
    society = aggregate([])
    assert society.total_units == 0
    assert society.total_persons == 0.0
    assert society.total_persons_rounded == 0
    assert society.per_type == {}


def test_aggregate_skips_excluded():
    rec = BuildingHeightRecord("B1", 1.0, 900.0, 900)
    excluded = estimate_building(rec, _fp(150.0), CFG)
    society = aggregate([excluded])
    assert society.total_units == 0


def test_site_floor_counts_match_published(site_rows):
    mismatches = []
    for bid, _, height, published_floors, *_ in site_rows:
        if floors_from_height(height, CFG) != published_floors:
            mismatches.append(bid)
    assert mismatches == [site_data.FLOOR_MISMATCH_ID]


def test_site_unit_totals(site_society):
    per_type_units = {label: tot.units for label, tot in site_society.per_type.items()}
    assert per_type_units == site_data.EXPECTED_UNIT_TOTALS
    assert site_society.total_units == site_data.EXPECTED_TOTAL_UNITS


def test_site_person_totals(site_society):
    per_type = {label: tot.persons for label, tot in site_society.per_type.items()}
    assert per_type == site_data.EXPECTED_PERSON_TOTALS
    assert site_society.total_persons == site_data.EXPECTED_TOTAL_PERSONS
    assert site_society.total_persons_rounded == 2648
