"""The nearest float64 of decimal text, one numpy pass per chunk of tokens.

``errors.decimal`` is the definition: ``parse_tokens(text, start, stop)``
gives ``decimal(t)`` for every ``t`` in ``text[start:stop].split()``, bit for
bit, in one array per chunk, or None where it refuses one, a value is not
finite or the text is not ASCII. Most tokens take no Python object:

- The text is read in chunks of about ``_CHUNK_CHARS`` characters, each cut
  at whitespace, as uint8 arrays; one table classes each byte as whitespace,
  a digit or a mark, which is any other byte.
- A token of the form ``-?d{0,8}(.d{0,16})?`` with 1 to 19 digits is
  ``w / 10**f``, with the integer ``w`` below 10**19 and ``f`` <= 16. A count
  of the marks in each token finds these. Their digits come from
  little-endian words of 8 bytes, one ending at the point (or the token's
  end) and two ending at the token's end: the bytes before the digits are
  masked off, and each word is read as eight digits at once by fast_float's SWAR
  routine (Lemire 2021, "Number parsing at a gigabyte per second", SPE 51(8)).
- Where ``w`` <= 2**53, ``w`` and ``10**f`` are exact doubles, so their
  quotient is the correctly rounded value (Clinger 1990, PLDI).
- A larger ``w`` is divided in numpy's ``longdouble`` where that is x86
  extended precision, with a 64-bit significand. Every midpoint between
  adjacent doubles is such a number and rounding is monotonic, so a quotient
  that is no midpoint lies on the same side of each midpoint as the exact
  value, and rounding it to double gives the correctly rounded value.
- Every other token, such as an exponent form, a quotient on a midpoint, and
  every larger ``w`` where ``longdouble`` is another format go through
  ``decimal`` alone; the rest of their chunk stays on the array path.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from .errors import decimal

# About 3,500 tokens of 17 digits, or 9,000 of 3 decimals. Per 65,536 tokens
# (medians of 30 alternating calls, 2-vCPU VM), chunks of 16,384 characters
# read 17-digit tokens in 29 ms against 19 ms, numpy's cost per call being
# spread over fewer tokens, and chunks of 131,072 read 3-decimal ones in
# 11.1 ms against 9.9 ms.
_CHUNK_CHARS = 65536
# For ASCII text, exactly the characters str.split splits at.
_SPACE = re.compile(r"\s")
# Each ASCII byte's class: 0 where str.split splits, 1 for a digit, 2 for a mark.
_CLASSES = bytes(0 if chr(b).isspace() else 1 if chr(b).isdigit() else 2 for b in range(256))
# Leading spaces, so that every word ending at a token's end starts in the buffer.
_PAD = b" " * 16
# Eight digits of a word at once, after fast_float: pairs of digits become
# groups of four in 16-bit lanes, then the two groups one number.
_PAIRS = np.uint64(0x00FF00FF00FF00FF)
_BY_100 = np.uint64(1 + (100 << 16))
_QUADS = np.uint64(0x0000FFFF0000FFFF)
_BY_10000 = np.uint64(1 + (10000 << 32))


@functools.cache
def _extended() -> bool:
    """Whether numpy's ``longdouble`` is x86 extended precision, whose 64-bit
    significand holds a uint64 and rounds a quotient once. IEEE quad would
    serve too, but no such platform is tested here; double-double, whose
    quotient is not correctly rounded, would not."""
    return np.finfo(np.longdouble).nmant == 63


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """For n = 0 to 8 digits ending a little-endian word: the mask of the low
    four bits of its last n bytes, which hold the digits' values; 10**f for
    f = 0 to 16 as uint64, then as float64 and longdouble, followed by their
    negatives. Built on first use, so importing costs nothing."""
    low = np.array([0x0F0F0F0F0F0F0F0F >> 8 * (8 - n) << 8 * (8 - n) for n in range(9)], np.uint64)
    pow10 = np.array([10**f for f in range(17)], np.uint64)
    signed = np.concatenate([pow10, -pow10.astype(np.float64)])
    tables = low, pow10, signed.astype(np.float64), signed.astype(np.longdouble)
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def space_after(text: str, pos: int) -> int:
    """The index of the first whitespace character of ``text`` from ``pos``
    on, or ``len(text)``."""
    found = _SPACE.search(text, pos)
    return found.start() if found else len(text)


def parse_tokens(text: str, start: int, stop: int) -> list[np.ndarray] | None:
    """``decimal`` of every token of ``text[start:stop]``, as float64 arrays of
    one chunk each, or None if it refuses one, one is not finite or ``text`` is
    not ASCII. ``stop`` is ``len(text)`` or the index of a whitespace character."""
    if not text.isascii():
        return None
    parts = []
    while start < stop:
        end = min(space_after(text, min(start + _CHUNK_CHARS, stop)), stop)
        part = _parse_chunk(text[start:end])
        if part is None:
            return None
        parts.append(part)
        start = end
    return parts


def _floats(tokens) -> np.ndarray | None:
    """``decimal`` of each token, or None if it refuses one or one is not finite."""
    values = np.fromiter(map(decimal, tokens), np.float64)  # a refusal, None, reads as NaN
    return values if np.isfinite(values).all() else None


def _digits(words: np.ndarray, end: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ``count`` (0 to 8) digits before each ``end``, as integers. The
    first digit is the lowest byte of its word."""
    v = words[end - 8] & _tables()[0][count]
    v = v * 10 + (v >> 8)  # byte 2k: digits 2k and 2k + 1
    v = ((v & _PAIRS) * _BY_100) >> 16  # 16-bit lane 2k: digits 4k to 4k + 3
    return ((v & _QUADS) * _BY_10000) >> 32


def _parse_chunk(chunk: str) -> np.ndarray | None:
    """``decimal`` of every token of the ASCII ``chunk``, or None if it
    refuses one or one is not finite."""
    data = _PAD + chunk.encode()
    buf = np.frombuffer(data, np.uint8)
    classes = np.frombuffer(data.translate(_CLASSES), np.uint8)
    # words[i] is the little-endian word of bytes i to i + 7
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
    in_token = np.empty(len(buf) + 1, bool)
    in_token[-1] = False
    np.not_equal(classes, 0, out=in_token[:-1])
    edges = np.flatnonzero(in_token[:-1] != in_token[1:]) + 1
    starts, ends = edges[0::2], edges[1::2]

    # A token is on the array path when its only marks are a leading "-" and
    # one ".", with at most 8 digits before the point, 16 after it and 1 to 19
    # in all; any other mark makes its count too large.
    neg = buf[starts] == ord("-")
    marks = np.flatnonzero(classes == 2)
    owner = np.searchsorted(ends, marks)
    point = ends.copy()
    dot = buf[marks] == ord(".")
    point[owner[dot]] = marks[dot]
    whole = point - starts - neg
    after = ends - point - 1  # -1 without a point
    frac = np.maximum(after, 0)
    fast = np.bincount(owner, minlength=len(ends)) == neg + (after >= 0).astype(int)
    fast &= (whole <= 8) & (after <= 16) & (whole + frac >= 1) & (whole + frac <= 19)
    # every token's counts index the tables, whatever its path
    np.minimum(whole, 8, out=whole)
    np.minimum(frac, 16, out=frac)

    w = _digits(words, ends, np.minimum(frac, 8))
    if frac.max(initial=0) > 8:
        w += _digits(words, ends - 8, np.maximum(frac - 8, 0)) * 10**8
    pow10, pow10_f, pow10_ld = _tables()[1:]
    w += _digits(words, point, whole) * pow10[frac]
    signed = frac + 17 * neg
    x = w.astype(np.float64) / pow10_f[signed]

    big = np.flatnonzero(fast & (w > 2**53))
    if big.size and _extended():
        q = w[big].astype(np.longdouble) / pow10_ld[signed[big]]
        x[big] = d = q.astype(np.float64)
        off = np.abs(q - d)
        half = np.abs(np.spacing(d)) / 2  # below a power of two the spacing halves
        fast[big[(off == half) | (off == half / 2)]] = False
    elif big.size:
        fast[big] = False

    slow = np.flatnonzero(~fast)
    if slow.size:
        first, last = (starts[slow] - len(_PAD)).tolist(), (ends[slow] - len(_PAD)).tolist()
        values = _floats(chunk[i:j] for i, j in zip(first, last))
        if values is None:
            return None
        x[slow] = values
    return x
