"""Per-layer counts are registry deltas, and every per-layer metric is
reported on every workload."""

from perfbench.ledger import PER_LAYER, count_metrics, per_layer_metrics


def test_counts_are_deltas_per_update():
    installs = 'kernel_fib_ops_total{op="install"}'
    before = {"smalta_reclaim_calls_total": 10.0, installs: 5.0}
    after = {"smalta_reclaim_calls_total": 30.0, installs: 15.0}
    counts = count_metrics(before, after, updates=20)
    assert counts["smalta.reclaims_per_update"] == 1.0
    assert counts["kernel.ops_per_update"] == 0.5
    assert counts["snapshot.burst_ops"] == 0.0


def test_every_per_layer_metric_is_reported():
    metrics = per_layer_metrics({"trace.coverage": 0.97})
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert metrics["trace.coverage"] == (0.97, "ratio")
    assert metrics["pipeline.self_us"] == (0.0, "us")
