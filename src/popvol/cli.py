"""Command-line pipeline: dtm, estimate, validate, amenities, model3d, synth, run.

Stages exchange data through CSV and ASCII-grid files so each is independently
runnable; one function per stage serves both its subcommand and ``run``.

Every parameter comes from one JSON config: ``run`` reads all of it, and
``dtm``, ``estimate``, ``amenities`` and ``model3d`` read their own keys of
the same file through ``--config``. The other flags name files or
directories, and ``run``'s ``--out-dir`` is the only one that overrides a
config value (``out_dir``).
One function reads each group of keys for both ``run`` and the subcommand.
Unknown config keys are rejected. Per-building failures never abort a batch:
they are recorded as warnings and flagged rows, and the command still exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import functools
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, _bands
from .dtm import DtmFilterParams, progressive_morphological_filter
from .errors import ConfigError, FootprintError, PipelineError, json_document, json_number
from .estimate import (
    BuildingEstimate,
    EstimationConfig,
    PersonsBand,
    SocietyEstimate,
    aggregate,
    estimate_building,
    excluded_estimate,
)
from .footprints import (
    Footprint,
    footprints_to_geojson,
    parse_footprints,
    rasterize_footprints,
    zonal_height,
)
from .grid import Grid, grid_subtract, read_ascii_grid, write_ascii_grid
from .mesh import Mesh, extrude, write_obj
from .osm import amenities, check_center, count_within_radius, load_rules
from .osm import filter_amenities, parse_osm  # unused here; perfbench/spans.py wraps these names
from .synth import load_scene, synthesize_dsm
from .validate import (
    csv_field,
    csv_records,
    csv_text,
    diff_footnotes,
    person_total_footnotes,
    read_ground_truth,
    render_report_csv,
    validate_report,
)

HEIGHTS_HEADER = "id,type_label,height_m,footprint_area_m2,valid_cells"
ESTIMATES_HEADER = (
    "id,type_label,height_m,floors,units_per_floor,units,unit_area_m2,persons,excluded"
)

ESTIMATION_KEYS = tuple(f.name for f in fields(EstimationConfig) if f.name != "bands")
FILTER_KEYS = tuple(f.name for f in fields(DtmFilterParams))
BAND_KEYS = tuple(f.name for f in fields(PersonsBand))
# input files of `run`, resolved relative to the config file
INPUT_KEYS = ("dsm", "footprints", "ground_truth", "osm", "rules", "published_reference")
PATH_KEYS = INPUT_KEYS + ("out_dir",)
AMENITY_KEYS = ("center_lat", "center_lon", "radius_m")
# characters encoded and written at a time
_WRITE_SLICE = 1 << 20
CONFIG_KEYS = frozenset(
    PATH_KEYS + AMENITY_KEYS + ("base_elevation_m", "bands") + ESTIMATION_KEYS + FILTER_KEYS
)


def _read_text(path) -> str:
    """The UTF-8 text of an input file, whatever the locale."""
    p = Path(path)
    if not p.is_file():
        raise PipelineError(f"input file not found: {p}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise PipelineError(f"input file {p} is not UTF-8: {e.reason} at byte {e.start}") from None


def _write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 with ``\\n`` line ends, whatever the platform."""
    p = Path(path)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w", encoding="utf-8", newline="\n") as f:
            # in slices: encoding a whole grid's text at once holds a second copy
            # of it, and that copy set the peak RSS of `run` on a 1000x1000 grid
            for i in range(0, len(text), _WRITE_SLICE):
                f.write(text[i:i + _WRITE_SLICE])
    except ValueError as e:  # a NUL in the path, or a lone surrogate from a JSON "\ud800" escape
        raise PipelineError(f"cannot write {p}: {e}") from None


def _load_json_object(path, what: str) -> dict:
    doc = json_document(_read_text(path), ConfigError, f"{what} JSON in {path}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return doc


def _load_config(path) -> dict:
    """The config object, or {} without a ``path``. A key outside CONFIG_KEYS
    is a ConfigError that names the closest known key, and so is a path key
    that is not a string."""
    doc = _load_json_object(path, "config") if path else {}
    for key in doc:
        if key not in CONFIG_KEYS:
            close = difflib.get_close_matches(key, sorted(CONFIG_KEYS), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")
    for key in PATH_KEYS:
        if doc.get(key) is not None and not isinstance(doc[key], str):
            raise ConfigError(f"config key {key!r} must be a path string, got {doc[key]!r}")
    return doc


def _load_published_reference(path) -> dict:
    """Published figures to footnote: ``unit_diff_pct`` and ``persons``, each
    an object mapping labels to finite numbers."""
    doc = _load_json_object(path, "published_reference")
    for key in ("unit_diff_pct", "persons"):
        table = doc.get(key, {})
        if not isinstance(table, dict):
            raise ConfigError(f"published_reference {key!r} must be an object of label: number")
        _finite_numbers(table, list(table), f"published_reference {key}")
    return doc


def _finite_numbers(obj: dict, keys: Sequence[str], where: str) -> dict:
    """The values of ``keys`` set in ``obj``, each a finite JSON number."""
    return {
        k: json_number(obj[k], f"{where} {k!r}", ConfigError)
        for k in keys if obj.get(k) is not None
    }


def build_estimation_config(cfg: dict) -> EstimationConfig:
    kwargs = _finite_numbers(cfg, ESTIMATION_KEYS, "config key")
    bands = cfg.get("bands")
    if bands is not None:
        if not isinstance(bands, list) or not all(isinstance(b, dict) for b in bands):
            raise ConfigError("config key 'bands' must be a list of objects")
        kwargs["bands"] = tuple(_persons_band(b, i) for i, b in enumerate(bands))
    return EstimationConfig(**kwargs)


def _persons_band(band: dict, i: int) -> PersonsBand:
    values = _finite_numbers(band, BAND_KEYS, f"bands[{i}]")
    missing = [k for k in BAND_KEYS if k not in values]
    if missing:
        raise ConfigError(f"bands[{i}]: missing {', '.join(map(repr, missing))}")
    return PersonsBand(*(float(values[k]) for k in BAND_KEYS))


def build_filter_params(cfg: dict) -> DtmFilterParams:
    return DtmFilterParams(**_finite_numbers(cfg, FILTER_KEYS, "config key"))


def build_amenity_query(cfg: dict) -> Optional[tuple[float, float, float]]:
    """(center_lat, center_lon, radius_m), checked by ``check_center``, or
    None unless all three are set; each one set must be a finite number."""
    numbers = _finite_numbers(cfg, AMENITY_KEYS, "config key")
    if len(numbers) < len(AMENITY_KEYS):
        return None
    query = tuple(numbers[k] for k in AMENITY_KEYS)
    check_center(*query)
    return query


def build_base_elevation(cfg: dict) -> float:
    return _finite_numbers(cfg, ("base_elevation_m",), "config key").get("base_elevation_m", 0.0)


def _fmt_real(v: Optional[float]) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return f"{v:.3f}"


def render_heights_csv(rows) -> str:
    """rows: (Footprint, BuildingHeightRecord) pairs."""
    return csv_text(
        HEIGHTS_HEADER,
        (
            (rec.id, fp.type_label, _fmt_real(rec.height_m),
             _fmt_real(rec.footprint_area_m2), rec.valid_cells)
            for fp, rec in rows
        ),
    )


def render_estimates_csv(estimates: Sequence[BuildingEstimate]) -> str:
    return csv_text(
        ESTIMATES_HEADER,
        (
            (e.id, e.type_label, _fmt_real(e.height_m), e.floors,
             e.units_per_floor, e.units, _fmt_real(e.unit_area_m2),
             _fmt_real(e.persons), e.excluded_reason if e.excluded else "")
            for e in estimates
        ),
    )


def read_estimates_csv(text: str) -> list[BuildingEstimate]:
    rows = []
    for line, rec in csv_records(text, "estimates", ESTIMATES_HEADER, unique="id"):

        def real(column, default):
            return csv_field(rec, column, "estimates", line) if rec[column] else default

        def integer(column):
            return csv_field(rec, column, "estimates", line, int, "an integer")

        rows.append(
            BuildingEstimate(
                id=rec["id"],
                type_label=rec["type_label"],
                height_m=real("height_m", float("nan")),
                floors=integer("floors"),
                units_per_floor=integer("units_per_floor"),
                units=integer("units"),
                unit_area_m2=real("unit_area_m2", None),
                persons=real("persons", 0.0),
                excluded=bool(rec["excluded"]),
                excluded_reason=rec["excluded"],
            )
        )
    return rows


def estimate_buildings(
    dsm: Grid, dtm: Grid, footprints: Sequence[Footprint], cfg: EstimationConfig
) -> tuple[list, list[BuildingEstimate], list[str]]:
    """Shared core of the estimate stage.

    Returns (height rows, estimates, warnings); buildings that fail height
    extraction or configuration checks become excluded rows with the error
    text, and processing continues.
    """
    ndsm = grid_subtract(dsm, dtm)
    height_rows = []
    estimates: list[BuildingEstimate] = []
    warnings: list[str] = []
    for fp, cells in zip(footprints, rasterize_footprints(footprints, ndsm.georef)):
        try:
            rec = zonal_height(ndsm, fp, cfg.height_percentile, cfg.min_cells, cells=cells)
        except FootprintError as e:
            warnings.append(str(e))
            estimates.append(excluded_estimate(fp, float("nan"), f"error: {e}"))
            continue
        height_rows.append((fp, rec))
        try:
            estimates.append(estimate_building(rec, fp, cfg))
        except ConfigError as e:
            warnings.append(str(e))
            estimates.append(excluded_estimate(fp, rec.height_m, f"error: {e}"))
    return height_rows, estimates, warnings


def _ground_mask_grid(dsm: Grid, ground_mask: np.ndarray) -> Grid:
    data = np.where(ground_mask, 1.0, 0.0)
    data[~dsm.valid_mask] = np.nan
    return Grid(dsm.georef, data, dsm.nodata)


# ---------------------------------------------------------------------------
# stages: each writes its files and returns its summary.json record; a
# subcommand and `run` share one body per stage
# ---------------------------------------------------------------------------


def _record(*outputs, **counts) -> dict:
    """A stage's summary.json record: its counts and the names of the files it wrote."""
    return {"status": "ok", **counts, "outputs": [Path(p).name for p in outputs if p]}


def dtm_stage(dsm: Grid, params: DtmFilterParams, out_dtm, out_mask=None) -> tuple[Grid, dict]:
    """Filter ``dsm`` to a DTM and write it, and the ground mask if ``out_mask``
    is set. Returns the DTM and the stage record."""
    dtm, ground_mask = progressive_morphological_filter(dsm, params)
    _write_text(out_dtm, write_ascii_grid(dtm))
    if out_mask:
        _write_text(out_mask, write_ascii_grid(_ground_mask_grid(dsm, ground_mask)))
    non_ground = int((~ground_mask & dsm.valid_mask).sum())
    return dtm, _record(out_dtm, out_mask, non_ground_cells=non_ground)


def estimate_stage(
    dsm: Grid, dtm: Grid, footprints: Sequence[Footprint], cfg: EstimationConfig,
    out_heights, out_estimates,
) -> tuple[SocietyEstimate, dict[str, float], list[str], dict]:
    """Write the heights and estimates CSVs. Returns the society totals, the
    heights by id as the CSV holds them (what a standalone ``model3d`` reads),
    the per-building warnings and the stage record."""
    height_rows, estimates, warnings = estimate_buildings(dsm, dtm, footprints, cfg)
    _write_text(out_heights, render_heights_csv(height_rows))
    _write_text(out_estimates, render_estimates_csv(estimates))
    record = _record(
        out_heights, out_estimates, buildings=len(estimates), failed_buildings=len(warnings)
    )
    heights = {
        rec.id: float(text) for _, rec in height_rows if (text := _fmt_real(rec.height_m))
    }
    return aggregate(estimates), heights, warnings, record


def validate_stage(society: SocietyEstimate, gt, out) -> tuple[list, dict]:
    """Write the validation report. Returns its rows and the stage record."""
    rows = validate_report(society, gt)
    _write_text(out, render_report_csv(rows))
    return rows, _record(out, total_diff_pct=round(rows[-1].diff_pct, 2))


def model3d_stage(
    footprints: Sequence[Footprint], heights: dict[str, float], base_elevation_m: float, out
) -> tuple[Mesh, list[str], dict]:
    """Extrude every footprint that has a height and write the OBJ. Returns
    the mesh, the ids of the footprints without a height and the stage record."""
    skipped = [fp.id for fp in footprints if fp.id not in heights]
    mesh = extrude(
        [(fp, heights[fp.id]) for fp in footprints if fp.id in heights], base_elevation_m
    )
    _write_text(out, write_obj(mesh))
    return mesh, skipped, _record(out, buildings=len(mesh.groups))


def amenity_texts(osm_path, rules_path, center_lat, center_lon, radius_m) -> tuple:
    """The records and summary CSV texts of the amenities within ``radius_m``
    of the center, and the counts by category."""
    counts, matched = count_within_radius(
        amenities(_read_text(osm_path), load_rules(_read_text(rules_path))),
        center_lat, center_lon, radius_m,
    )
    records = csv_text(
        "category,element_id,name,lat,lon,distance_m",
        (
            (rec.category, rec.element_id, rec.name or "",
             f"{rec.lat:.7f}", f"{rec.lon:.7f}", f"{dist:.2f}")
            for rec, dist in sorted(matched, key=lambda t: (t[0].category, t[0].element_id))
        ),
    )
    counts = {c: counts[c] for c in sorted(counts)}
    return records, csv_text("category,count", counts.items()), counts


def amenities_stage(texts, out_records, out_summary) -> dict:
    """Write the two CSV texts of ``amenity_texts``. Returns the stage record."""
    _write_text(out_records, texts[0])
    _write_text(out_summary, texts[1])
    return _record(out_records, out_summary, counts=texts[2])


def _read_heights_by_id(text: str) -> dict[str, float]:
    return {rec["id"]: csv_field(rec, "height_m", "heights", line)
            for line, rec in csv_records(text, "heights", "id,height_m", unique="id")
            if rec["height_m"]}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_dtm(args) -> int:
    params = build_filter_params(_load_config(args.config))
    dsm = read_ascii_grid(_read_text(args.dsm))
    _, record = dtm_stage(dsm, params, args.out_dtm, args.out_mask)
    print(
        f"dtm: {dsm.georef.nrows}x{dsm.georef.ncols} cells, "
        f"{record['non_ground_cells']} non-ground"
    )
    return 0


def cmd_estimate(args) -> int:
    cfg = build_estimation_config(_load_config(args.config))
    society, _, warnings, record = estimate_stage(
        read_ascii_grid(_read_text(args.dsm)), read_ascii_grid(_read_text(args.dtm)),
        parse_footprints(_read_text(args.footprints)), cfg, args.out_heights, args.out_estimates,
    )
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(
        f"estimate: {record['buildings']} buildings, {society.total_units} units, "
        f"{society.total_persons_rounded} persons, {len(warnings)} warnings"
    )
    return 0


def cmd_validate(args) -> int:
    estimates = read_estimates_csv(_read_text(args.estimates))
    gt = read_ground_truth(_read_text(args.ground_truth))
    rows, _ = validate_stage(aggregate(estimates), gt, args.out)
    total = rows[-1]
    print(
        f"validate: estimated {total.estimated_units} vs ground "
        f"{total.ground_units} units, diff {total.diff_pct:.2f}%"
    )
    return 0


def cmd_amenities(args) -> int:
    cfg = _load_config(args.config)
    query = build_amenity_query(cfg)
    if query is None:
        missing = next(k for k in AMENITY_KEYS if cfg.get(k) is None)
        raise ConfigError(f"config is missing required key {missing!r}")
    record = amenities_stage(
        amenity_texts(args.osm, args.rules, *query), args.out_records, args.out_summary
    )
    counts = ", ".join(f"{c}={n}" for c, n in record["counts"].items())
    print(f"amenities: {counts} within {query[2]} m")
    return 0


def cmd_model3d(args) -> int:
    base_elevation_m = build_base_elevation(_load_config(args.config))
    mesh, skipped, _ = model3d_stage(
        parse_footprints(_read_text(args.footprints)),
        _read_heights_by_id(_read_text(args.heights)), base_elevation_m, args.out,
    )
    for fid in skipped:
        print(f"warning: no height for footprint {fid!r}, skipped", file=sys.stderr)
    print(
        f"model3d: {len(mesh.groups)} buildings, {len(mesh.vertices)} vertices, "
        f"{len(mesh.faces)} faces ({len(skipped)} skipped)"
    )
    return 0


def cmd_synth(args) -> int:
    scene = load_scene(_read_text(args.scene))
    result = synthesize_dsm(scene)
    _write_text(args.out_dsm, write_ascii_grid(result.dsm))
    if args.out_truth_dtm:
        _write_text(args.out_truth_dtm, write_ascii_grid(result.truth_dtm))
    if args.out_heights:
        _write_text(
            args.out_heights,
            csv_text(
                "id,type_label,height_m",
                ((fp.id, fp.type_label, _fmt_real(h)) for fp, h in scene.prisms),
            ),
        )
    if args.out_footprints:
        _write_text(args.out_footprints, footprints_to_geojson([fp for fp, _ in scene.prisms]))
    print(
        f"synth: {scene.georef.nrows}x{scene.georef.ncols} cells, "
        f"{len(scene.prisms)} prisms, seed {scene.seed}"
    )
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    for key in ("dsm", "footprints"):
        if not cfg.get(key):
            raise ConfigError(f"config is missing required key {key!r}")
    if not args.out_dir and not cfg.get("out_dir"):
        raise ConfigError("config is missing required key 'out_dir'")

    # config-relative input paths; an --out-dir flag stays cwd-relative
    base_dir = Path(args.config).parent
    def resolve(p):
        q = Path(p)
        return q if q.is_absolute() else base_dir / q
    for key in INPUT_KEYS:
        if cfg.get(key) == "":
            raise ConfigError(f"config key {key!r} is an empty path")
        if cfg.get(key) and not resolve(cfg[key]).is_file():
            raise ConfigError(f"config key {key!r}: file not found: {resolve(cfg[key])}")

    params = build_filter_params(cfg)
    est_cfg = build_estimation_config(cfg)
    query = build_amenity_query(cfg)
    base_elevation_m = build_base_elevation(cfg)
    published = {}
    if cfg.get("published_reference"):
        published = _load_published_reference(resolve(cfg["published_reference"]))

    # the amenity stage needs no other stage's output: a forked child computes it meanwhile
    amenity_job = contextlib.nullcontext()
    if query and cfg.get("osm") and cfg.get("rules"):
        amenity_job = _bands.background(functools.partial(
            amenity_texts, resolve(cfg["osm"]), resolve(cfg["rules"]), *query
        ))
    with amenity_job as amenity_result:
        dsm = read_ascii_grid(_read_text(resolve(cfg["dsm"])))

        out = Path(args.out_dir) if args.out_dir else resolve(cfg["out_dir"])
        stages: dict = {}
        summary: dict = {"stages": stages, "footnotes": []}

        dtm, stages["dtm"] = dtm_stage(dsm, params, out / "dtm.asc", out / "ground_mask.asc")

        footprints = parse_footprints(_read_text(resolve(cfg["footprints"])))
        society, heights, summary["warnings"], stages["estimate"] = estimate_stage(
            dsm, dtm, footprints, est_cfg, out / "heights.csv", out / "estimates.csv"
        )
        summary["totals"] = {
            "units": society.total_units,
            "persons": society.total_persons,
            "persons_rounded": society.total_persons_rounded,
            "by_type": {
                label: {"units": tot.units, "persons": tot.persons}
                for label, tot in society.per_type.items()
            },
        }

        if cfg.get("ground_truth"):
            gt = read_ground_truth(_read_text(resolve(cfg["ground_truth"])))
            rows, stages["validate"] = validate_stage(society, gt, out / "validation.csv")
            if published.get("unit_diff_pct"):
                summary["footnotes"].extend(diff_footnotes(rows, published["unit_diff_pct"]))
        else:
            stages["validate"] = {"status": "skipped"}
        if published.get("persons"):
            summary["footnotes"].extend(person_total_footnotes(society, published["persons"]))

        _, _, stages["model3d"] = model3d_stage(
            footprints, heights, base_elevation_m, out / "model.obj"
        )

        if amenity_result:
            stages["amenities"] = amenities_stage(
                amenity_result(), out / "amenities.csv", out / "amenities_summary.csv"
            )
        else:
            stages["amenities"] = {"status": "skipped"}

    _write_text(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"run: {society.total_units} units, {society.total_persons_rounded} persons, "
        f"{len(summary['warnings'])} warnings -> {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popvol",
        description="Population estimation from a surface-elevation raster and building footprints.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dtm", help="derive a bare-earth terrain model from a surface model")
    p.add_argument("--dsm", required=True)
    p.add_argument("--out-dtm", required=True)
    p.add_argument("--out-mask", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_dtm)

    p = sub.add_parser("estimate", help="per-building heights, units and persons")
    p.add_argument("--dsm", required=True)
    p.add_argument("--dtm", required=True)
    p.add_argument("--footprints", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out-heights", required=True)
    p.add_argument("--out-estimates", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("validate", help="compare estimated units against ground truth")
    p.add_argument("--estimates", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("amenities", help="count OSM amenities around a site")
    p.add_argument("--osm", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-records", required=True)
    p.add_argument("--out-summary", required=True)
    p.set_defaults(func=cmd_amenities)

    p = sub.add_parser("model3d", help="extrude footprints into an OBJ block model")
    p.add_argument("--footprints", required=True)
    p.add_argument("--heights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_model3d)

    p = sub.add_parser("synth", help="generate a synthetic scene with known ground truth")
    p.add_argument("--scene", required=True)
    p.add_argument("--out-dsm", required=True)
    p.add_argument("--out-truth-dtm", default=None)
    p.add_argument("--out-heights", default=None)
    p.add_argument("--out-footprints", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="full pipeline driven by a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
