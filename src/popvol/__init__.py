"""popvol: population estimation from surface rasters and building footprints.

Pipeline: surface model -> bare-earth terrain (progressive morphological
filter) -> per-building heights (zonal percentile over the height difference)
-> floors -> dwelling units -> persons, with ground-truth validation, OSM
amenity counts around the site, and an extruded 3D block model.

Names and submodules are imported on first access (PEP 562), so
``import popvol`` loads neither numpy nor any stage.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_NAMES = {
    "dtm": ("DtmFilterParams", "progressive_morphological_filter"),
    "errors": (
        "AsciiGridError",
        "ConfigError",
        "EmptySelectionError",
        "FootprintError",
        "GeorefMismatchError",
        "InsufficientCoverageError",
        "OsmParseError",
        "PipelineError",
        "ReportMismatchError",
        "SceneError",
    ),
    "estimate": (
        "DEFAULT_BANDS",
        "BuildingEstimate",
        "EstimationConfig",
        "PersonsBand",
        "SocietyEstimate",
        "aggregate",
        "estimate_building",
        "floors_from_height",
        "persons_per_unit",
        "units_per_floor",
    ),
    "footprints": (
        "BuildingHeightRecord",
        "Footprint",
        "footprint_area",
        "nearest_rank_percentile",
        "parse_footprints",
        "rasterize_polygon",
        "zonal_height",
    ),
    "grid": ("Grid", "GridGeoref", "grid_subtract", "read_ascii_grid", "write_ascii_grid"),
    "mesh": ("Mesh", "extrude", "write_obj"),
    "osm": (
        "AmenityRecord",
        "OsmElement",
        "TagRule",
        "amenities",
        "count_within_radius",
        "filter_amenities",
        "haversine_m",
        "load_rules",
        "parse_osm",
    ),
    "synth": (
        "SyntheticScene",
        "SynthResult",
        "TerrainModel",
        "lcg_noise",
        "load_scene",
        "synthesize_dsm",
    ),
    "validate": (
        "GroundTruthRow",
        "ValidationRow",
        "diff_footnotes",
        "percent_diff",
        "person_total_footnotes",
        "read_ground_truth",
        "render_report_csv",
        "validate_report",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = frozenset(_NAMES) | {"cli"}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:  # bound as an attribute by the import itself
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
