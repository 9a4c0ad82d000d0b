"""Shortest round-trip decimal text of float64 arrays, one numpy pass per chunk.

``format_value(v)`` is the definition: an integral value below 1e15 in
magnitude prints as an integer, any other as ``repr``, the shortest decimal
that reads back as ``v`` (the nearest one when several are that short).
``format_cells`` gives the same text for every cell of a 2-D array without a
Python object per cell:

- Integral cells below 1e15 print their integer value; ``-0.0`` prints ``0``.
- Non-integral cells from 1e-4 to 2**53 in magnitude, where ``repr`` uses
  positional form, take their digits from Ryu (Adams 2018, PLDI, "Ryu: fast
  float-to-string conversion"), vectorized over 64-bit integer arrays.
- NaN cells print ``nan_text``. Only the cells whose ``repr`` uses exponent
  form (non-integral below 1e-4, integral from 1e15 on) and infinities go
  through ``format_value``, one at a time.

Each token is laid out right-aligned in one row of a uint8 matrix, followed
by its separator column (" ", or "\\n" at a row's end): its digits are
written two columns at a time from a 100-entry table, and one boolean mask
then packs the tokens, in order, into the chunk's text.
"""

from __future__ import annotations

import functools

import numpy as np

# format_value prints integral values below this magnitude as integers.
_INT_LIMIT = 1e15
# repr prints non-integral values below this magnitude in exponent form.
_EXP_LIMIT = 1e-4
_LOW32 = np.uint64(0xFFFFFFFF)
_MANTISSA = np.uint64((1 << 52) - 1)
_HIDDEN_BIT = np.uint64(1 << 52)


def format_value(v: float) -> str:
    """Shortest decimal text that parses back to exactly ``v``.

    Integral values are printed without a decimal point ("5", not "5.0").
    """
    f = float(v)
    if f == int(f) and abs(f) < _INT_LIMIT:
        return str(int(f))
    return repr(f)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """5**i for the i that Ryu needs here, 10**k, and the ASCII digit pairs
    "00" to "99" as uint16; built on first use, so importing costs nothing."""
    pow5 = np.array([5**i for i in range(23)], np.int64)
    pow10 = np.array([10**k for k in range(20)], np.uint64)
    pow5.flags.writeable = pow10.flags.writeable = False  # shared by every call
    pairs = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint16)
    return pow5, pow10, pairs


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's shortest digits of positive, non-integral float64 ``x`` from
    1e-4 to 2**53: the integers ``d`` and ``k`` such that ``d * 10**-k`` is
    the shortest decimal that reads back as ``x``, the nearest if several are.

    Such an ``x`` has a binary exponent below -2, so only Ryu's e2 < 0 branch
    is taken, and the power 5**i it multiplies by stays below 2**52: its
    product with the 55-bit ``mv`` is exact in 32-bit limbs, and ``vp`` and
    ``vm`` follow from the product's remainder. Ryu's cases that move an
    interval end, the narrower lower half below a power of two (mmShift) and
    the exact ends for q <= 1, cannot change a digit here: the only powers of
    two in range, 2**-1 to 2**-13, print exactly, and for q <= 1 (``x`` from
    2**50 on) both ends have more decimals than ``x``. So they are left out,
    and only the exactness of ``vr`` is tracked, to round a tie to even.
    """
    pow5 = _tables()[0]
    bits = x.view(np.uint64)
    e2 = (bits >> 52).astype(np.int64) - 1077  # the exponent of mv
    mv = ((bits & _MANTISSA) | _HIDDEN_BIT) << 2
    q = ((-e2 * 732923) >> 20) - 1  # Ryu's log10Pow5(-e2) - 1
    b = pow5[-e2 - q]
    ub = b.view(np.uint64)
    # mv * b = high * 2**64 + low, from 32-bit limbs
    m0, m1 = mv & _LOW32, mv >> 32
    b0, b1 = ub & _LOW32, ub >> 32
    low = m0 * b0
    mid = m0 * b1 + m1 * b0
    carry = (low >> 32) + (mid & _LOW32)
    high = m1 * b1 + (mid >> 32) + (carry >> 32)
    low = (carry << 32) | (low & _LOW32)
    shift = q.astype(np.uint64)
    vr = ((high << (64 - shift)) | (low >> shift)).view(np.int64)
    rest = (low & ((np.uint64(1) << shift) - 1)).view(np.int64)
    # the interval ends mv +- 2, times b over 2**q, rounded down
    vp = vr + ((rest + 2 * b) >> q)
    vm = vr + ((rest - 2 * b) >> q)
    exact = rest == 0  # while the digits removed from vr are all zeros

    # Drop digits while the interval still holds a shorter decimal: from every
    # cell at once while each of them can lose one, then from those that can.
    last = np.zeros_like(vr)
    dropped = 0
    while vr.size and (vp // 10 > vm // 10).all():
        r = vr // 10
        exact &= last == 0
        last = vr - r * 10
        vr, vp, vm = r, vp // 10, vm // 10
        dropped += 1
    exponent = q + e2 + dropped  # of the last digit kept
    live = np.flatnonzero(vp // 10 > vm // 10)
    while live.size:
        r = vr[live]
        exact[live] &= last[live] == 0
        last[live] = r % 10
        vr[live], vp[live], vm[live] = r // 10, vp[live] // 10, vm[live] // 10
        exponent[live] += 1
        live = live[vp[live] // 10 > vm[live] // 10]
    # an exact tie rounds to even
    last[exact & (last == 5) & (vr % 2 == 0)] = 4
    return (vr + ((vr == vm) | (last >= 5))).view(np.uint64), -exponent


def _digit_count(n: np.ndarray, pow10: np.ndarray) -> np.ndarray:
    """Decimal digits of each uint64 below 10**19 (1 for 0)."""
    count = np.log10(n.astype(np.float64) + 0.5).astype(np.int64) + 1
    count += n >= pow10[count]
    count -= n < pow10[count - 1]
    return count


def format_cells(values: np.ndarray, nan_text: str) -> str:
    """Text of the 2-D float64 ``values``: a line per row, ending in "\\n",
    of its cells separated by one space, each ``format_value(v)``, or
    ``nan_text`` for NaN."""
    pow10, pairs = _tables()[1:]
    ncols = values.shape[1]
    v = values.ravel()
    mag = np.abs(v)
    nan = np.isnan(v)
    integral = np.trunc(v) == v
    whole = integral & (mag < _INT_LIMIT)
    fraction = ~(integral | nan) & (mag >= _EXP_LIMIT)
    slow = np.flatnonzero(~(whole | fraction | nan))
    slow_tokens = [token.encode() for token in map(format_value, v[slow].tolist())]

    # Each token's digits as one integer, with a 0 where the point goes: the
    # integer part moves one digit up. It is the value's trunc, because a
    # non-integral value's shortest decimal cannot reach the next integer,
    # and it is 0 wherever k is too large for pow10.
    digits = np.where(whole, mag, 0).astype(np.uint64)
    after_point = np.zeros(v.size, np.int64)
    if fraction.any():
        x = mag[fraction]
        d, k = _shortest_digits(x)
        digits[fraction] = d + 9 * np.trunc(x).astype(np.uint64) * pow10.take(k, mode="clip")
        after_point[fraction] = k
    neg = (v < 0) & (whole | fraction)
    # "0.000ddd" has more columns than digits: the zeros come from padding
    length = np.maximum(_digit_count(digits, pow10), after_point + 1 + (after_point > 0)) + neg
    length[nan] = len(nan_text)
    length[slow] = [len(token) for token in slow_tokens]
    end = int(length.max()) + 1  # the separator's column; column 0 is spare
    start = end - length

    text = np.empty((v.size, end + 1), np.uint8)
    npairs = (int((length - neg)[whole | fraction].max(initial=0)) + 1) // 2
    columns = text[:, end - 2 * npairs:end].view(np.uint16)
    for col in range(npairs - 1, -1, -1):
        rest = digits // 100
        columns[:, col] = pairs.take((digits - rest * 100).astype(np.intp))
        digits = rest
    flat = text.reshape(-1)
    cells = np.flatnonzero(after_point)
    flat[cells * (end + 1) + end - 1 - after_point[cells]] = ord(".")
    cells = np.flatnonzero(neg)
    flat[cells * (end + 1) + start[cells]] = ord("-")
    if nan.any():
        text[nan, end - len(nan_text):end] = np.frombuffer(nan_text.encode(), np.uint8)
    for i, token in zip(slow.tolist(), slow_tokens):
        text[i, end - len(token):end] = np.frombuffer(token, np.uint8)
    text[:, end] = ord(" ")
    text[ncols - 1::ncols, end] = ord("\n")

    # row s of keep marks columns s onward; one gather gives each cell its row
    keep = np.arange(end + 1) >= np.arange(end + 1)[:, None]
    keep = keep.view(np.dtype((np.void, end + 1))).ravel().take(start)
    return str(memoryview(text[keep.view(bool).reshape(text.shape)]), "ascii")
