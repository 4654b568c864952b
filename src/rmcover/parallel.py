"""Process-pool helpers for the embarrassingly parallel inner loops.

Tasks are small picklable payloads: bucket keys, or index ranges of a probe
scan.  Shared read-only state (the lower-window classification with its
lookup; the scan's lifts and probe parameters) reaches each worker once,
through the pool initializer.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

_BUCKET_STATE: dict = {}
_PROBE_STATE: dict = {}


def _bucket_init(space_params, sub, budget_iter, seed, retries):
    from .quotient import quotient_space

    _BUCKET_STATE["space"] = quotient_space(*space_params)
    _BUCKET_STATE["sub"] = sub
    _BUCKET_STATE["budget"] = budget_iter
    _BUCKET_STATE["seed"] = seed
    _BUCKET_STATE["retries"] = retries


def _bucket_worker(keys):
    from .classify import _resolve_bucket

    return _resolve_bucket(
        _BUCKET_STATE["space"],
        _BUCKET_STATE["sub"],
        keys,
        _BUCKET_STATE["budget"],
        _BUCKET_STATE["seed"],
        _BUCKET_STATE["retries"],
    )


def resolve_buckets_parallel(space_params, sub, tasks, budget_iter, seed, jobs, retries):
    """Merge invariant buckets across a pool; sub must already be classifiable."""
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_bucket_init,
        initargs=(tuple(space_params), sub, budget_iter, seed, retries),
    ) as pool:
        return list(pool.map(_bucket_worker, tasks))


def _probe_init(walk):
    _PROBE_STATE["walk"] = walk


def _probe_worker(chunk):
    return _PROBE_STATE["walk"].probe(chunk)


def probe_batch_parallel(walk, chunks, jobs):
    """Probe the chunks of a scan's walk across a pool, in order.

    A chunk is a range of indices into the walk's function list; workers
    build its truth tables themselves, so only the lifts are pickled.
    """
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_probe_init, initargs=(walk,)
    ) as pool:
        return list(pool.map(_probe_worker, chunks))
