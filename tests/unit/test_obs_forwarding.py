"""The one metrics path: a component registry forwards its mutations to
the process-global registry, and only while that registry is enabled.

Every test uses standard families (``repro.obs.instruments``) so the
global registry is never left holding a family the export schema does
not know.
"""

import sys
import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import instruments
from repro.obs.metrics import MetricsRegistry, global_registry


@pytest.fixture()
def enabled_global():
    """Enable the process-global registry for one test, then restore
    its disabled, empty default state."""
    registry = global_registry()
    registry.enable()
    try:
        yield registry
    finally:
        registry.disable()
        registry.clear()


class TestForwarding:
    def test_every_kind_is_forwarded_while_enabled(self, enabled_global):
        local = MetricsRegistry()
        instruments.serving_requests(local).labels(tenant="a").inc(3)
        instruments.serving_queue_depth(local).labels().set(7)
        instruments.serving_latency(local).labels().observe(5_000)
        assert instruments.serving_requests(enabled_global).labels(
            tenant="a"
        ).value == 3
        assert instruments.serving_queue_depth(
            enabled_global
        ).labels().value == 7
        latency = instruments.serving_latency(enabled_global).labels()
        assert (latency.count, latency.sum) == (1, 5_000)
        # The component's own values are recorded once, not twice.
        assert instruments.serving_requests(local).labels(
            tenant="a"
        ).value == 3

    def test_components_sum_into_one_exported_family(self, enabled_global):
        first, second = MetricsRegistry(), MetricsRegistry()
        instruments.catalog_reads(first).labels().inc(2)
        instruments.catalog_reads(second).labels().inc(5)
        assert instruments.catalog_reads(
            enabled_global
        ).labels().value == 7

    def test_nothing_forwarded_while_disabled(self):
        shared = global_registry()
        assert not shared.enabled
        local = MetricsRegistry()
        instruments.serving_batches(local).labels().inc()
        assert instruments.serving_batches(local).labels().value == 1
        family = shared.get(instruments.SERVING_BATCHES_TOTAL)
        assert family is None or all(
            child.value == 0 for child in family.children().values()
        )

    def test_global_family_does_not_forward_to_itself(
        self, enabled_global
    ):
        instruments.serving_batches(enabled_global).labels().inc()
        assert instruments.serving_batches(
            enabled_global
        ).labels().value == 1

    def test_child_is_looked_up_after_clear(self, enabled_global):
        # One held child handle keeps feeding the export after the
        # global registry dropped every child (what a session's exit
        # does), because the forwarded-to child is never cached.
        counter = instruments.serving_batches(MetricsRegistry()).labels()
        counter.inc(4)
        enabled_global.clear()
        counter.inc(2)
        assert instruments.serving_batches(
            enabled_global
        ).labels().value == 2
        assert counter.value == 6

    def test_signature_clash_raises(self, enabled_global):
        instruments.catalog_reads(enabled_global)
        clashing = MetricsRegistry().gauge(
            instruments.CATALOG_READS_TOTAL
        ).labels()
        with pytest.raises(ObservabilityError):
            clashing.set(1)

    def test_forwarded_family_keeps_its_signature(self, enabled_global):
        instruments.serving_batch_size(MetricsRegistry()).labels().observe(
            3
        )
        exported = enabled_global.get(instruments.SERVING_BATCH_SIZE)
        assert exported.kind == "histogram"
        assert exported.buckets == instruments.BATCH_SIZE_BUCKETS
        assert exported.scale == 1.0
        assert exported.labels().bucket_counts()[2] == 1  # le=4


class TestConcurrentForwarding:
    def test_no_forwarded_increment_is_lost(self, enabled_global):
        # More threads than cores, a tiny switch interval, two shared
        # component registries and first-use races on every global
        # child: the exported sums must still match exactly.
        threads, per_thread = 8, 2_000
        registries = [MetricsRegistry(), MetricsRegistry()]

        def work(k):
            family = instruments.serving_requests(registries[k % 2])
            child = family.labels(tenant=f"t{k % 3}")
            for _ in range(per_thread):
                child.inc()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=work, args=(k,))
                for k in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)

        def total(registry):
            return sum(
                child.value
                for child in instruments.serving_requests(
                    registry
                ).children().values()
            )

        assert total(enabled_global) == threads * per_thread
        assert [total(r) for r in registries] == [
            threads // 2 * per_thread
        ] * 2
