"""Every input parser returns a value or raises a PipelineError, nothing else.

Each parser gets arbitrary text and mutations of its demo file: a few edits,
each replacing a number of the text, or up to eight characters at a
position, by a short string, often one that JSON, XML, CSV or grid text
reads in a special way. Bytes reach the parsers as the CLI reads them: a
file of arbitrary bytes, or of a demo file with bytes that are not UTF-8 or
that UTF-8 decodes in a special way, goes through ``_read_text`` and then
every parser.
"""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popvol import (
    PipelineError,
    load_rules,
    load_scene,
    parse_footprints,
    parse_osm,
    read_ascii_grid,
    read_ground_truth,
    synthesize_dsm,
)
from popvol.cli import _read_heights_by_id, _read_text, read_estimates_csv

DEMO = Path(__file__).resolve().parents[1] / "demo"

# a scene may ask for any grid size; the synthetic grid is allocated at that
# size, so larger mutated scenes are only loaded
_MAX_SYNTH_CELLS = 10**6


def _synth(text):
    scene = load_scene(text)
    if scene.georef.ncols * scene.georef.nrows <= _MAX_SYNTH_CELLS:
        synthesize_dsm(scene)
    return scene


PARSERS = {
    "read_ascii_grid": (read_ascii_grid, "out/dsm.asc"),
    "parse_footprints": (parse_footprints, "out/footprints.geojson"),
    "parse_osm": (parse_osm, "site.osm"),
    "load_rules": (load_rules, "rules.json"),
    "synthesize_dsm(load_scene)": (_synth, "scene.json"),
    "read_ground_truth": (read_ground_truth, "ground_truth.csv"),
    "read_estimates_csv": (read_estimates_csv, "out/estimates.csv"),
    "_read_heights_by_id": (_read_heights_by_id, "out/heights.csv"),
}

# numbers that are not finite, not whole, out of range or not numbers
_ODD_NUMBERS = st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e308", "-1e308", "1e999", "1e15", "9" * 12, "-1", "0",
    "0.5", "3.7", "true", "null", '"1"', "[1]",
])
_INSERTS = _ODD_NUMBERS | st.text(max_size=8) | st.sampled_from([
    "{}", '""', ",", ":", '"', "\n", "\r", " ", "-", "_", "nan", "inf", "\x00", "\uff10",
    "\u3000", "<", "</osm>", "&amp;", "x" * 140_000,
])
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@st.composite
def _mutations(draw, text):
    for _ in range(draw(st.integers(1, 3))):
        numbers = [m.span() for m in _NUMBER.finditer(text)]
        if numbers and draw(st.booleans()):
            # the first numbers are the header or settings of most files
            at, end = draw(st.sampled_from(numbers[:8]) | st.sampled_from(numbers))
            text = text[:at] + draw(_ODD_NUMBERS) + text[end:]
        else:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(_INSERTS) + text[at + draw(st.integers(0, 8)):]
    return text


@pytest.mark.parametrize("name", PARSERS)
def test_parser_returns_or_raises_pipeline_error(name):
    parse, demo_file = PARSERS[name]
    demo = (DEMO / demo_file).read_text(encoding="utf-8")
    parse(demo)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(text=st.text() | _mutations(demo))
    def check(text):
        try:
            parse(text)
        except PipelineError:
            pass

    check()


# bytes that are not UTF-8 (a stray continuation byte, a cut sequence, a lone
# surrogate's encoding) or that UTF-8 decodes in a special way (a BOM, NUL)
_ODD_BYTES = st.sampled_from([
    b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xed\xbf\xbf",
    b"\xef\xbb\xbf", b"\x00",
])


@st.composite
def _byte_mutations(draw):
    data = (DEMO / draw(st.sampled_from([f for _, f in PARSERS.values()]))).read_bytes()
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            data = data.replace(b"\n", draw(st.sampled_from([b"\r\n", b"\r"])))
        else:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(_ODD_BYTES) + data[at:]
    return data


def test_bytes_through_read_text_reach_every_parser_as_a_value_or_pipeline_error(tmp_path):
    path = tmp_path / "input"

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(data=st.binary() | _byte_mutations())
    def check(data):
        path.write_bytes(data)
        try:
            text = _read_text(path)
        except PipelineError:
            return
        for parse, _ in PARSERS.values():
            try:
                parse(text)
            except PipelineError:
                pass

    check()
