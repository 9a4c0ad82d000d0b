"""popvol: population estimation from surface rasters and building footprints.

Pipeline: surface model -> bare-earth terrain (progressive morphological
filter) -> per-building heights (zonal percentile over the height difference)
-> floors -> dwelling units -> persons, with ground-truth validation, OSM
amenity counts around the site, and an extruded 3D block model.
"""

__version__ = "0.1.0"

from .dtm import DtmFilterParams, progressive_morphological_filter
from .errors import (
    AsciiGridError,
    ConfigError,
    EmptySelectionError,
    FootprintError,
    GeorefMismatchError,
    InsufficientCoverageError,
    OsmParseError,
    PipelineError,
    ReportMismatchError,
    SceneError,
)
from .estimate import (
    DEFAULT_BANDS,
    BuildingEstimate,
    EstimationConfig,
    PersonsBand,
    SocietyEstimate,
    aggregate,
    estimate_building,
    floors_from_height,
    persons_per_unit,
    units_per_floor,
)
from .footprints import (
    BuildingHeightRecord,
    Footprint,
    footprint_area,
    nearest_rank_percentile,
    parse_footprints,
    rasterize_polygon,
    zonal_height,
)
from .grid import (
    Grid,
    GridGeoref,
    grid_subtract,
    read_ascii_grid,
    write_ascii_grid,
)
from .mesh import Mesh, extrude, write_obj
from .osm import (
    AmenityRecord,
    OsmElement,
    TagRule,
    amenities,
    count_within_radius,
    filter_amenities,
    haversine_m,
    load_rules,
    parse_osm,
)
from .synth import (
    SyntheticScene,
    SynthResult,
    TerrainModel,
    lcg_noise,
    load_scene,
    synthesize_dsm,
)
from .validate import (
    GroundTruthRow,
    ValidationRow,
    diff_footnotes,
    percent_diff,
    person_total_footnotes,
    read_ground_truth,
    render_report_csv,
    validate_report,
)
