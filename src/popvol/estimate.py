"""Height -> floors -> dwelling units -> persons conversion.

Floors come from dividing building height by a per-floor height and rounding
up. Units per floor come from an explicit override when available, otherwise
from the footprint area scaled by a built-up-to-carpet efficiency factor and
divided by the dwelling-unit area. Persons per unit are looked up in an
area-band table; occupancy scales the final person count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ConfigError
from .footprints import (
    DEFAULT_HEIGHT_PERCENTILE,
    DEFAULT_MIN_CELLS,
    BuildingHeightRecord,
    Footprint,
)


@dataclass(frozen=True)
class PersonsBand:
    """Persons per dwelling unit for a unit-area range (bounds inclusive).

    A band may be a single point (min == max) for a known exact unit size.
    Fractional persons encode ranges like "3-4 persons" as 3.5.
    """

    min_area_m2: float
    max_area_m2: float
    persons: float

    def __post_init__(self):
        if self.min_area_m2 > self.max_area_m2:
            raise ConfigError(
                f"band minimum {self.min_area_m2} exceeds maximum {self.max_area_m2}"
            )
        if not 0 < self.persons <= 20:
            raise ConfigError(f"persons per unit must be in (0, 20], got {self.persons}")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.min_area_m2 + self.max_area_m2)


# Dwelling-size occupancy table for typical apartment stock, smallest first.
DEFAULT_BANDS: tuple[PersonsBand, ...] = (
    PersonsBand(35.75, 35.75, 2.0),
    PersonsBand(43.1, 43.1, 3.0),
    PersonsBand(50.0, 52.0, 3.5),
    PersonsBand(85.0, 90.0, 4.0),
    PersonsBand(146.0, 187.0, 6.0),
)


@dataclass
class EstimationConfig:
    floor_height_m: float = 3.0
    min_building_height_m: float = 2.0
    occupancy_rate: float = 1.0
    efficiency: float = 0.7
    bands: tuple[PersonsBand, ...] = DEFAULT_BANDS
    height_percentile: float = DEFAULT_HEIGHT_PERCENTILE
    min_cells: int = DEFAULT_MIN_CELLS

    def __post_init__(self):
        if self.floor_height_m <= 0:
            raise ConfigError(f"floor_height_m must be > 0, got {self.floor_height_m}")
        if self.min_building_height_m < 0:
            raise ConfigError("min_building_height_m must be >= 0")
        if not 0 <= self.occupancy_rate <= 1:
            raise ConfigError(f"occupancy_rate must be in [0, 1], got {self.occupancy_rate}")
        if not 0 < self.efficiency <= 1:
            raise ConfigError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not 0 <= self.height_percentile <= 100:
            raise ConfigError(
                f"height_percentile must be in [0, 100], got {self.height_percentile}"
            )
        if not (float(self.min_cells).is_integer() and self.min_cells >= 1):
            raise ConfigError(f"min_cells must be an integer >= 1, got {self.min_cells}")
        self.bands = tuple(self.bands)
        if not self.bands:
            raise ConfigError("band table must not be empty")
        for prev, cur in zip(self.bands, self.bands[1:]):
            if cur.min_area_m2 <= prev.max_area_m2:
                raise ConfigError(
                    "bands must be sorted ascending and non-overlapping: "
                    f"{prev} vs {cur}"
                )


@dataclass
class BuildingEstimate:
    id: str
    type_label: str
    height_m: float
    floors: int
    units_per_floor: int
    units: int
    unit_area_m2: Optional[float]
    persons: float
    excluded: bool = False
    excluded_reason: str = ""


@dataclass
class TypeTotal:
    units: int = 0
    persons: float = 0.0


@dataclass
class SocietyEstimate:
    """Aggregated totals, per type and overall.

    per_type is ordered by type label. total_persons keeps the exact sum;
    total_persons_rounded applies half-up rounding once, at the very end.
    """

    per_type: dict[str, TypeTotal] = field(default_factory=dict)
    total_units: int = 0
    total_persons: float = 0.0
    # the types whose every building is excluded, so not in per_type
    excluded_types: tuple[str, ...] = ()

    @property
    def total_persons_rounded(self) -> int:
        return math.floor(self.total_persons + 0.5)


def floors_from_height(height_m: float, cfg: EstimationConfig) -> Optional[int]:
    """Number of floors, or None when the building is below the minimum height."""
    if height_m < cfg.min_building_height_m:
        return None
    floors = height_m / cfg.floor_height_m
    if not math.isfinite(floors):
        raise ConfigError(
            f"height {height_m} m over floor_height_m {cfg.floor_height_m} gives {floors} floors"
        )
    return max(1, math.ceil(floors))


def units_per_floor(
    footprint_area_m2: float, unit_area_m2: float, cfg: EstimationConfig,
    override: Optional[int] = None,
) -> int:
    """Dwelling units on one floor; an explicit override wins."""
    if override is not None:
        return override
    units = footprint_area_m2 * cfg.efficiency / unit_area_m2
    if not math.isfinite(units):
        raise ConfigError(
            f"footprint area {footprint_area_m2} m2 at efficiency {cfg.efficiency} over "
            f"unit_area_m2 {unit_area_m2} gives {units} units per floor"
        )
    return max(1, math.floor(units))


def persons_per_unit(unit_area_m2: float, cfg: EstimationConfig) -> float:
    """Band lookup in ``cfg.bands`` with inclusive bounds.

    Areas falling between bands take the band with the nearest midpoint
    (ties go to the smaller band); areas outside the table take the nearest
    extreme band.
    """
    bands = cfg.bands
    for band in bands:
        if band.min_area_m2 <= unit_area_m2 <= band.max_area_m2:
            return band.persons
    if unit_area_m2 < bands[0].min_area_m2:
        return bands[0].persons
    if unit_area_m2 > bands[-1].max_area_m2:
        return bands[-1].persons
    best = min(bands, key=lambda b: (abs(unit_area_m2 - b.midpoint), b.midpoint))
    return best.persons


def excluded_estimate(fp: Footprint, height_m: float, reason: str) -> BuildingEstimate:
    """The zeroed row of a building left out of the totals for ``reason``."""
    return BuildingEstimate(
        id=fp.id, type_label=fp.type_label, height_m=height_m, floors=0, units_per_floor=0,
        units=0, unit_area_m2=fp.unit_area_m2, persons=0.0, excluded=True, excluded_reason=reason,
    )


def estimate_building(
    rec: BuildingHeightRecord, fp: Footprint, cfg: EstimationConfig
) -> BuildingEstimate:
    """Full per-building estimate; short buildings come back excluded.

    Raises ConfigError, naming the building, when its unit area is missing
    or its floors, units per floor or persons are not finite.
    """
    try:
        floors = floors_from_height(rec.height_m, cfg)
        if floors is None:
            return excluded_estimate(fp, rec.height_m, "below minimum height")
        if fp.unit_area_m2 is None:
            raise ConfigError("unit_area_m2 is required to assign persons per unit")
        upf = units_per_floor(
            rec.footprint_area_m2, fp.unit_area_m2, cfg, override=fp.units_per_floor_override
        )
        per_unit = persons_per_unit(fp.unit_area_m2, cfg)
        full = float(floors) * upf * per_unit  # persons at full occupancy, without OverflowError
        if not math.isfinite(full):
            raise ConfigError(f"floors, units per floor and persons per unit give {full} persons")
    except ConfigError as e:
        raise ConfigError(f"building {rec.id!r}: {e}") from None
    units = floors * upf
    persons = units * per_unit * cfg.occupancy_rate
    return BuildingEstimate(
        id=rec.id,
        type_label=fp.type_label,
        height_m=rec.height_m,
        floors=floors,
        units_per_floor=upf,
        units=units,
        unit_area_m2=fp.unit_area_m2,
        persons=persons,
    )


def aggregate(estimates: Sequence[BuildingEstimate]) -> SocietyEstimate:
    """Sum units and persons per type over non-excluded buildings, and note
    the types whose every building is excluded. Raises ConfigError when the
    persons total is not finite."""
    per_type: dict[str, TypeTotal] = {}
    excluded = set()
    for est in estimates:
        if est.excluded:
            excluded.add(est.type_label)
            continue
        tot = per_type.setdefault(est.type_label, TypeTotal())
        tot.units += est.units
        tot.persons += est.persons
    per_type = dict(sorted(per_type.items()))
    total_persons = sum(t.persons for t in per_type.values())
    if not math.isfinite(total_persons):
        raise ConfigError(f"the buildings' persons sum to {total_persons}")
    return SocietyEstimate(
        per_type=per_type,
        total_units=sum(t.units for t in per_type.values()),
        total_persons=total_persons,
        excluded_types=tuple(sorted(excluded - per_type.keys())),
    )
