"""Process-pool helpers for the embarrassingly parallel inner loops.

Workers receive small picklable payloads; shared read-only state (a
classification, a generator matrix) is rebuilt once per worker through the
pool initializer.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

_BUCKET_STATE: dict = {}
_PROBE_STATE: dict = {}


def _classification_payload(sub):
    chain = None
    if sub.fallback_sub is not None:
        chain = _classification_payload(sub.fallback_sub)
    return (tuple(sub.space.params), tuple(sub.reps), sub.provenance, sub.digest, chain)


def _classification_from_payload(payload):
    from .classify import Classification
    from .quotient import quotient_space

    params, reps, provenance, digest, chain = payload
    return Classification(
        space=quotient_space(*params),
        reps=list(reps),
        provenance=provenance,
        digest=digest,
        fallback_sub=_classification_from_payload(chain) if chain else None,
    )


def _bucket_init(space_params, sub_payload, budget_iter, seed, retries):
    from .quotient import quotient_space

    sub = _classification_from_payload(sub_payload)
    sub.ensure_classifiable()
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
    payload = _classification_payload(sub)
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_bucket_init,
        initargs=(tuple(space_params), payload, budget_iter, seed, retries),
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
