"""The grid reader's decimal kernel equals ``errors.decimal`` with finite
values, bit for bit, and sends only the tokens off its array path to ``float``."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popvol import _nearest
from popvol.errors import decimal

_settings = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def _midpoint(v: float, digits: int = 2000) -> str:
    """The midpoint between ``v`` and the next double up, to ``digits``
    significant digits: its exact decimal expansion by default."""
    with localcontext(prec=2000):
        exact = (Decimal(v) + Decimal(math.nextafter(v, math.inf))) / 2
    with localcontext(prec=digits):
        return str(+exact)


def _with_point(digits: int, at: int) -> str:
    text = str(digits)
    at %= len(text) + 1
    return f"{text[:at]}.{text[at:]}" if at < len(text) else text


_composed = st.builds(
    lambda sign, whole, point, frac, exp: sign + whole + point + frac + exp,
    st.sampled_from(["", "", "-", "+"]),
    st.text("0123456789", max_size=10),
    st.sampled_from(["", ".", "."]),
    st.text("0123456789", max_size=21),
    st.sampled_from(["", "", "", "e5", "E-3", "e+400", "e-330", "e-310"]),
).filter(bool)

_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e8, max_value=1e8).map(repr),
    st.floats(-1, 1).map(repr),
    st.floats(-1e4, 1e4).map(lambda v: f"{v:.3f}"),
    _composed,
    # 18 to 20 digits around 2**53 and 2**64, the point anywhere
    st.builds(_with_point, st.integers(2**53 - 10**4, 2**53 + 10**4), st.integers(0, 20)),
    st.builds(_with_point, st.integers(2**64 - 10**4, 2**64 + 10**4), st.integers(0, 20)),
    st.builds(_with_point, st.integers(10**17, 10**20), st.integers(0, 21)),
    # midpoints: of 17 digits or fewer, of any length, and 18 or 19 digits of
    # one, whose long-double quotient can round onto it
    st.integers(2**52, 2**53 - 1).map(lambda n: f"{n}.5"),
    st.integers(2**52, 2**53 - 1).map(lambda n: str(2 * n + 1)),
    st.floats(-1e300, 1e300).map(_midpoint),
    st.builds(_midpoint, st.floats(100, 1e8), st.sampled_from([18, 19])),
    st.sampled_from(["-0", "-0.0", "0", ".5", "5.", "-.5", "-", ".", "1.2.3", "--5", "1-2",
                     "nan", "inf", "1_0", "5e-324", "2.2250738585072014e-308", "00012.5000",
                     "1e-05", "+5", "1\x002", "\u0665"]),
)
_seps = st.sampled_from([" ", "\t", "\x1f", "\n", "   ", "\r\n", "\x0b\x1c"])


def _reference(text: str):
    """The grid's rule: ``decimal`` of each token, every value finite, and
    ASCII text (``str.split`` also splits at a non-ASCII space)."""
    values = [decimal(t) for t in text.split()] if text.isascii() else [None]
    if None in values or not all(map(math.isfinite, values)):
        return None
    return np.array(values, np.float64)


def _assert_same(parts, want):
    if want is None:
        assert parts is None
    else:
        got = np.concatenate([np.empty(0)] + parts)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("extended", [True, False])
@_settings
@given(
    tokens=st.lists(_tokens, max_size=30),
    seps=st.lists(_seps, min_size=1, max_size=30),
    chunk=st.sampled_from([5, 64, _nearest._CHUNK_CHARS]),
)
@example(tokens=["13436510.97481571231", "4503599627370496.5", "-9999", "68.123"], seps=[" "],
         chunk=_nearest._CHUNK_CHARS)
def test_parse_tokens_equals_float(extended, tokens, seps, chunk):
    """Separators of str.split, chunks of a few characters (cut at
    whitespace) or one, and the long-double quotients off where they are.
    The reference is ``decimal`` plus finiteness, not ``float``: the grid
    refuses "_", "nan", "inf" and overflows, and the kernel refuses them too."""
    text = seps[-1] + "".join(t + seps[i % len(seps)] for i, t in enumerate(tokens))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_nearest, "_CHUNK_CHARS", chunk)
        if not extended:
            mp.setattr(_nearest, "_extended", lambda: False)
        _assert_same(_nearest.parse_tokens(text, 0, len(text)), _reference(text))


def test_only_tokens_off_the_array_path_reach_float(monkeypatch):
    """One exponent token in a chunk of 3-decimal values goes to ``float``
    alone; the rest of its chunk stays on the array path."""
    seen = []
    floats = _nearest._floats

    def record(tokens):
        tokens = list(tokens)
        seen.extend(tokens)
        return floats(tokens)

    monkeypatch.setattr(_nearest, "_floats", record)
    tokens = [f"{v:.3f}" for v in 68 + np.random.default_rng(3).random(2000)]
    tokens[1000] = "1e-05"
    text = " ".join(tokens)
    assert len(text) < _nearest._CHUNK_CHARS
    parts = _nearest.parse_tokens(text, 0, len(text))
    assert seen == ["1e-05"]
    assert np.concatenate(parts).tolist() == [float(t) for t in tokens]
