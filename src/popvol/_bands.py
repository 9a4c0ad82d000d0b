"""Row bands of a raster job, run on every usable CPU.

``row_bands(nrows, cells, halo)`` is the whole split rule. ``run_bands(band,
bounds, take)`` calls ``take`` once on ``band(start, stop)`` for each
``(start, stop)`` in ``bounds``, in order, so the caller sees exactly what one
serial pass over the bands would give. The calling process computes the first
band itself. Every other band runs in a forked child, which pickles its one
result to an unlinked temporary file and leaves through ``os._exit``. After
its own band, the parent reaps each child and unpickles its result. A band
whose child could not be forked, exited non-zero or left a short file is
computed by the parent instead, so a failing band raises its error there.

There is no pool, thread or pipe: a child holds nothing the parent must
drain. Only files this process created and its own children wrote are
unpickled.
"""

from __future__ import annotations

import os
import pickle
import tempfile

# A fork, temp-file and reap round trip costs about 3 ms (2-vCPU VM, 100 MB
# resident). Grids below this many cells stay one band, where the saving
# would shrink toward that cost and the host's noise; at 100,000 cells two
# bands already write a 1000-column grid in 83 ms against 130 ms. The demo's
# 27,000 cells never fork.
MIN_SPLIT_CELLS = 100_000
_TRAILER_BYTES = 8


def row_bands(nrows: int, cells: int, halo: int = 0) -> list[tuple[int, int]]:
    """``(start, stop)`` of contiguous bands over ``nrows`` rows, sizes
    differing by at most one: one band per usable CPU for a grid of ``cells``
    cells, or one below ``MIN_SPLIT_CELLS`` or where fork and CPU affinity are
    unavailable. Never more bands than rows, and no more than keep every band
    with ``halo`` extra rows on each side smaller than the grid."""
    nbands = 1
    if cells >= MIN_SPLIT_CELLS and hasattr(os, "sched_getaffinity"):
        nbands = max(1, min(len(os.sched_getaffinity(0)), nrows))
    while True:
        bounds = [(nrows * i // nbands, nrows * (i + 1) // nbands) for i in range(nbands)]
        if nbands == 1 or all(
            min(nrows, stop + halo) - max(0, start - halo) < nrows for start, stop in bounds
        ):
            return bounds
        nbands -= 1


def run_bands(band, bounds, take) -> None:
    """Call ``take(band(start, stop))`` for each of ``bounds``, in order.

    ``band`` returns one picklable result. It must depend only on its
    arguments and on state that exists before the call, because all but the
    first band run in forked children.
    """
    workers = [_fork(band, start, stop) for start, stop in bounds[1:]]
    try:
        take(band(*bounds[0]))
        for (start, stop), worker in zip(bounds[1:], workers):
            take(pickle.load(worker[1]) if _reap(worker) else band(start, stop))
    finally:
        for worker in workers:
            _discard(worker)


def _fork(band, start: int, stop: int) -> list:
    """Start a child that pickles ``band(start, stop)`` to a temporary file,
    followed by the pickle's length. Returns ``[pid, file]``, with pid None
    if no file or child could be had; the parent then computes the band
    itself, and ``_discard`` closes the file."""
    f = None
    try:
        f = tempfile.TemporaryFile()
        pid = os.fork()
    except OSError:
        return [None, f]
    if pid == 0:
        code = 1
        try:
            pickle.dump(band(start, stop), f, pickle.HIGHEST_PROTOCOL)
            f.write(f.tell().to_bytes(_TRAILER_BYTES, "little"))
            f.flush()
            code = 0
        finally:
            os._exit(code)
    return [pid, f]


def _reap(worker: list) -> bool:
    """Wait for the child; True, with the file at its start, if the child
    exited 0 and wrote its whole result; False when the band must be computed
    again: no child, a non-zero exit or a short file."""
    pid, f = worker
    if pid is None:
        return False
    _, status = os.waitpid(pid, 0)
    worker[0] = None
    end = f.seek(0, os.SEEK_END) - _TRAILER_BYTES
    if status != 0 or end < 0:
        return False
    f.seek(end)
    whole = int.from_bytes(f.read(_TRAILER_BYTES), "little") == end
    f.seek(0)
    return whole


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
