"""REPRO016 fixtures in the sharded-snapshot dispatch idiom.

Models the coordinator side of a per-shard snapshot fanned out onto a
process pool: the per-shard callable crosses a process boundary and
must therefore be a module-level function, never a closure over the
coordinator's locals.
"""


def snapshot_shard(encoded, width):
    return {"entries": len(encoded), "width": width}


def dispatch_closure(pool, shards, width):
    # The bug the rule exists for: the per-shard callable closes over
    # ``width`` and cannot cross the pickling boundary.
    def run_one(encoded):
        return {"entries": len(encoded), "width": width}

    futures = []
    for encoded in shards:
        futures.append(pool.submit(run_one, encoded))
    return futures


def dispatch_module_worker(pool, shards, width):
    futures = []
    for encoded in shards:
        futures.append(pool.submit(snapshot_shard, encoded, width))
    return futures
