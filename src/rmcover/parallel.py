"""Process-pool helpers for the embarrassingly parallel inner loops.

Tasks are small picklable payloads.  Shared read-only state (the lower-window
classification with its lookup, the probe parameters) reaches each worker
once, through the pool initializer.
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


def _probe_init(k, m, iter_budget, limit, seed):
    _PROBE_STATE.update(k=k, m=m, iter_budget=iter_budget, limit=limit, seed=seed)


def _probe_worker(item):
    from .nonlinearity import _probe_item

    return _probe_item(item=item, **_PROBE_STATE)


def probe_batch_parallel(k, m, items, iter_budget, limit, seed, jobs):
    """Probe scan items, one batch per representative, across a pool."""
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_probe_init,
        initargs=(k, m, iter_budget, limit, seed),
    ) as pool:
        return list(pool.map(_probe_worker, items, chunksize=max(1, len(items) // (4 * jobs))))
