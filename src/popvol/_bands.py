"""Row bands of a raster job, run on every usable CPU.

``run_bands(band, bounds, take)`` calls ``take`` on every part that
``band(start, stop)`` yields for each ``(start, stop)`` in ``bounds``, in
order, so the caller sees exactly what one serial pass over the bands would
give. A part holds about ``PART_CELLS`` cells (``part_rows``). The calling
process computes the first band itself. Every other band runs in a forked
child, which pickles its parts one by one to an unlinked temporary file and
leaves through ``os._exit``. After its own band, the parent reaps each child
and unpickles the file part by part in its main thread.
A band whose child could not be forked, exited non-zero or left a short file
is computed by the parent instead, so a failing band raises its error there.

There is no pool, thread or pipe: a child holds nothing the parent must
drain, and its parts are read back one at a time, so no band-sized object is
ever built in the parent. Only files this process created and its own
children wrote are unpickled.
"""

from __future__ import annotations

import os

# A fork, temp-file and reap round trip costs about 3 ms (2-vCPU VM, 100 MB
# resident). Grids below this many cells stay one band, where the saving
# would shrink toward that cost and the host's noise; at 100,000 cells two
# bands already write a 1000-column grid in 83 ms against 130 ms. The demo's
# 27,000 cells never fork.
MIN_SPLIT_CELLS = 100_000
# cells per part a band yields: 16 rows of a 1000-column grid, so reading a
# band back holds little at a time, yet many rows of a narrow grid, so
# numpy's fixed per-call cost is spread over them.
PART_CELLS = 16384
_TRAILER_BYTES = 8


def band_count(cells: int) -> int:
    """Bands for a grid of ``cells`` cells: one per usable CPU, or one below
    ``MIN_SPLIT_CELLS`` or where fork and CPU affinity are unavailable."""
    if cells < MIN_SPLIT_CELLS or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def part_rows(ncols: int) -> int:
    """Rows of an ``ncols``-wide grid in one part (at least one)."""
    return max(1, PART_CELLS // ncols)


def row_bands(nrows: int, nbands: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of ``nbands`` contiguous bands over ``nrows`` rows,
    sizes differing by at most one; never more bands than rows, at least one."""
    nbands = max(1, min(nbands, nrows))
    return [(nrows * i // nbands, nrows * (i + 1) // nbands) for i in range(nbands)]


def run_bands(band, bounds, take) -> None:
    """Feed ``take`` the parts of ``band(start, stop)`` over ``bounds`` in order.

    ``band`` returns an iterable of picklable parts. It must depend only on
    its arguments and on state that exists before the call, because all but
    the first band run in forked children.
    """
    workers = [_fork(band, start, stop) for start, stop in bounds[1:]]
    try:
        for part in band(*bounds[0]):
            take(part)
        for (start, stop), worker in zip(bounds[1:], workers):
            end = _reap(worker)
            for part in band(start, stop) if end is None else _load(worker[1], end):
                take(part)
    finally:
        for worker in workers:
            _discard(worker)


def _fork(band, start: int, stop: int) -> list:
    """Start a child that pickles ``band(start, stop)`` to a temporary file.
    Returns ``[pid, file]``, or ``[None, None]`` if no file or child could be
    had; the parent then computes the band itself."""
    import pickle
    import tempfile

    f = None
    try:
        f = tempfile.TemporaryFile()
        pid = os.fork()
    except OSError:
        if f is not None:
            f.close()
        return [None, None]
    if pid == 0:
        code = 1
        try:
            for part in band(start, stop):
                pickle.dump(part, f, pickle.HIGHEST_PROTOCOL)
            f.write(f.tell().to_bytes(_TRAILER_BYTES, "little"))
            f.flush()
            code = 0
        finally:
            os._exit(code)
    return [pid, f]


def _reap(worker: list):
    """Wait for the child; the length of its parts in the file, or None when
    the band must be computed again: no child, a non-zero exit or a short file."""
    pid, f = worker
    if pid is None:
        return None
    _, status = os.waitpid(pid, 0)
    worker[0] = None
    size = f.seek(0, os.SEEK_END)
    if status != 0 or size < _TRAILER_BYTES:
        return None
    f.seek(size - _TRAILER_BYTES)
    end = int.from_bytes(f.read(_TRAILER_BYTES), "little")
    if end != size - _TRAILER_BYTES:
        return None
    f.seek(0)
    return end


def _load(f, end: int):
    import pickle

    while f.tell() < end:
        yield pickle.load(f)


def _discard(worker: list) -> None:
    """Stop and reap the child if it is still unreaped, and drop its file."""
    import signal

    pid, f = worker
    if pid is not None:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)
        worker[0] = None
    if f is not None:
        f.close()
