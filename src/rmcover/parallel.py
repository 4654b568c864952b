"""Process-pool helpers for the embarrassingly parallel inner loops.

Tasks are small picklable payloads: bucket keys, or index ranges of a probe
scan.  The function applied to them carries the shared read-only state (the
lower-window classification with its lookup; the scan's lifts and probe
parameters) and reaches each worker once, through the pool initializer.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial

_WORKER_STATE: dict = {}


def _init(fn):
    _WORKER_STATE["fn"] = fn


def _work(task):
    return _WORKER_STATE["fn"](task)


def _pool_map(fn, tasks, jobs):
    """fn over the tasks across a pool of jobs workers, results in task order."""
    with ProcessPoolExecutor(max_workers=jobs, initializer=_init, initargs=(fn,)) as pool:
        return list(pool.map(_work, tasks))


def resolve_buckets_parallel(space_params, sub, tasks, budget_iter, seed, jobs, retries):
    """Merge invariant buckets across a pool; sub must already be classifiable."""
    from .classify import _resolve_bucket
    from .quotient import quotient_space

    fn = partial(
        _resolve_bucket, quotient_space(*space_params), sub,
        budget_iter=budget_iter, seed=seed, retries=retries,
    )
    return _pool_map(fn, tasks, jobs)


def probe_batch_parallel(walk, chunks, jobs):
    """Probe the chunks of a scan's walk across a pool, in order.

    A chunk is a range of indices into the walk's function list; workers
    build its truth tables themselves, so only the lifts are pickled.
    """
    return _pool_map(walk.probe, chunks, jobs)
