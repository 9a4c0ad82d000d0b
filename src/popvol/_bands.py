"""Work run in forked children: row bands of a raster job, and background jobs.

``background(job)`` runs ``job()`` in a forked child while its ``with`` block
runs. The child pickles the result, with the log records the job emitted, to
an unlinked temporary file and leaves through ``os._exit``. When the block
asks for the result, the parent reaps the child, logs those records and
unpickles it. A job whose child could not be forked, exited non-zero or left
a short file runs in the parent at that point instead, so a failing job
raises and logs there, as in a serial run. Leaving the block stops and reaps
a child whose result was not taken. ``popvol run``'s amenity stage is one.

``row_bands(nrows, cells, halo)`` is the whole split rule. ``run_bands(band,
bounds, take)`` calls ``take`` once on ``band(start, stop)`` for each
``(start, stop)`` in ``bounds``, in order, so the caller sees exactly what one
serial pass over the bands would give. With two bands or more, every band is
a background job and the calling process only takes the results; one band
runs in the caller, with no fork.

There is no pool, thread or pipe: a child holds nothing the parent must
drain. Only files this process created and its own children wrote are
unpickled.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
import pickle
import tempfile

# A fork, temp-file and reap round trip costs about 3 ms (2-vCPU VM, 100 MB
# resident). Grids below this many cells stay one band, where the saving
# would shrink toward that cost and the host's noise. At 100,000 cells, on a
# 100x1000 grid of random 3-decimal values, two bands write in 27-32 ms
# against 32-35 ms, but read in 18.4-18.9 ms against 12.6-16.3 ms (medians
# of 30 alternating calls, three repeats): the array decimal reader makes
# the split a loss there. At 250,000 cells (250x1000), the fewest in any
# benchmark grid, two bands read in 32.0-34.6 ms against 38.5-40.3 ms, so
# one threshold still serves both. The demo's 27,000 cells never fork.
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
    arguments and on state that exists before the call, because each of two
    or more bands runs in a forked child.
    """
    jobs = [functools.partial(band, start, stop) for start, stop in bounds]
    with contextlib.ExitStack() as stack:
        results = [stack.enter_context(background(job)) for job in jobs] if len(jobs) > 1 else jobs
        for result in results:
            take(result())


@contextlib.contextmanager
def background(job):
    """Run ``job()`` in a forked child; the block gets a callable that
    returns the result, the child's or, if it failed, ``job()``'s."""
    worker = _fork(job)
    try:
        yield functools.partial(_result, worker, job)
    finally:
        _discard(worker)


def _fork(job) -> list:
    """Start a child that pickles ``job()`` and the log records it emitted to
    a temporary file, followed by the pickle's length. Returns ``[pid,
    file]``, with pid None if no file or child could be had; the job then runs
    in this process, and ``_discard`` closes the file."""
    f = None
    try:
        f = tempfile.TemporaryFile()
        pid = os.fork()
    except (OSError, AttributeError):  # AttributeError: no os.fork here
        return [None, f]
    if pid == 0:
        code = 1
        try:
            records = []
            # hold the job's log records for the parent; the patch dies with this child
            logging.Logger.callHandlers = lambda logger, record: records.append(record)
            pickle.dump((job(), records), f, pickle.HIGHEST_PROTOCOL)
            f.write(f.tell().to_bytes(_TRAILER_BYTES, "little"))
            f.flush()
            code = 0
        finally:
            os._exit(code)
    return [pid, f]


def _result(worker: list, job):
    """The child's result, logging what the child logged; ``job()`` if it failed."""
    if not _reap(worker):
        return job()
    result, records = pickle.load(worker[1])
    for record in records:
        logging.getLogger(record.name).callHandlers(record)
    return result


def _reap(worker: list) -> bool:
    """Wait for the child; True, with the file at its start, if the child
    exited 0 and wrote its whole result; False when the job must run again:
    no child, a non-zero exit or a short file."""
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
