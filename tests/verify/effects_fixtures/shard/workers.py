"""REPRO015 fixtures in the pool-worker idiom of a sharded snapshot.

Models the failure mode a per-shard snapshot worker must avoid: a
worker that stashes results in module state *appears* to work
single-process (a one-worker pool runs workers inline) and silently
loses data the moment the pool forks — each process mutates its own copy
of the module global.
"""


def shard_entry(func):
    return func


RESULT_CACHE: dict = {}
LAST_ERROR: list = []


@shard_entry
def snapshot_shard(encoded, width):
    table = {"width": width, "entries": len(encoded)}
    RESULT_CACHE[width] = table  # leaks across the shard partition
    return table


@shard_entry
def reset_worker():
    RESULT_CACHE.clear()  # second writer: the escape is now observable


@shard_entry
def failing_worker(encoded):
    if not encoded:
        LAST_ERROR.append("empty shard")  # one writer only: not an escape
    return {}


@shard_entry
def pure_worker(encoded, width):
    # The correct shape: everything flows through arguments and the
    # return value, nothing through the module.
    return {"entries": len(encoded), "width": width}
