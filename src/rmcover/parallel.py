"""Process-pool helpers for the embarrassingly parallel inner loops.

Tasks are small picklable payloads: chunks of cover keys, or index ranges of
a probe scan.  The function applied to them carries the shared read-only
state (the lower window's walks and the cover's V/T walks;
the scan's lifts and probe parameters) and reaches each worker once,
through the pool initializer.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

_WORKER_STATE: dict = {}


def _init(fn):
    _WORKER_STATE["fn"] = fn


def _work(task):
    return _WORKER_STATE["fn"](task)


def _pool_map(fn, tasks, jobs):
    """fn over the tasks across a pool of jobs workers, results in task order."""
    with ProcessPoolExecutor(max_workers=jobs, initializer=_init, initargs=(fn,)) as pool:
        return list(pool.map(_work, tasks))


def resolve_buckets_parallel(label, chunks, jobs):
    """Label chunks of cover keys across a pool, in order.

    ``label`` maps an array of cover keys to their rows of P-orbit labels
    and of lower classes, with the longest walks back.
    It carries the lower window's walks and the cover's V/T walks, built
    by the parent, so the workers never rebuild them.
    """
    return _pool_map(label, chunks, jobs)


def probe_batch_parallel(walk, chunks, jobs):
    """Probe the chunks of a scan's walk across a pool, in order.

    A chunk is a range of indices into the walk's function list; workers
    build its truth tables themselves, so only the lifts are pickled.
    """
    return _pool_map(walk.probe, chunks, jobs)
