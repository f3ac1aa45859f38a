"""Unit tests for the serving tier: protocol, admission, tenants, server.

Everything here is deterministic — no sleeps-as-synchronisation, no
timing asserts.  Concurrency-under-churn lives in
``tests/integration/test_serving_stress.py``; the byte-identity
property lives in ``tests/property/test_serving_properties.py``.
"""

from __future__ import annotations

import math
import sys
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout

import pytest

from repro.engine import EstimationEngine
from repro.errors import ReproError, ServingError
from repro.serving import (
    AdmissionController,
    EstimateRequest,
    EstimateResponse,
    EstimationServer,
    STATE_ACCEPTING,
    STATE_CLOSED,
    STATE_SHEDDING,
    ServingConfig,
    TenantCatalogs,
    decode_request,
    decode_response,
    encode,
    validate_tenant_name,
)
from repro.serving.admission import (
    REJECT_CLOSED,
    REJECT_INVALID,
    REJECT_QUEUE_FULL,
)
from repro.serving.tenants import CATALOG_FILE
from repro.types import ScanSelectivity

from tests.helpers import provision_tenants

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def tenant_root(tmp_path_factory):
    """Two provisioned tenant namespaces with small fitted catalogs."""
    root = tmp_path_factory.mktemp("serving-tenants")
    provision_tenants(root, tenant_count=2, records=1_000, seed=7)
    return root


def _request(tenant="tenant-0", index=None, sigma=0.1, buffers=32,
             estimator="epfis", request_id=0):
    if index is None:
        # provision_tenants names every tenant's index after the
        # synthetic dataset; discover it rather than hard-coding.
        index = "__discover__"
    return EstimateRequest(
        tenant=tenant, index=index, estimator=estimator, sigma=sigma,
        buffer_pages=buffers, request_id=request_id,
    )


@pytest.fixture(scope="module")
def indexes(tenant_root):
    """tenant name -> its (seed-stamped, hence unique) index name."""
    tenants = TenantCatalogs(tenant_root)
    return {
        name: tenants.engine(name).index_names()[0]
        for name in tenants.tenant_names()
    }


@pytest.fixture(scope="module")
def hot_index(indexes):
    return indexes["tenant-0"]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_request_round_trip(self):
        request = EstimateRequest(
            tenant="t0", index="idx", estimator="EPFIS", sigma=0.125,
            buffer_pages=33, sargable=0.5, request_id=9,
            options=(("segments", 4),),
        )
        line = encode(request)
        assert line.endswith("\n")
        assert decode_request(line) == request

    def test_floats_survive_the_wire_exactly(self):
        # 0.1 has no exact double; the shortest repr must round-trip.
        request = EstimateRequest(
            tenant="t0", index="i", estimator="epfis",
            sigma=0.1 + 1e-17, buffer_pages=1, sargable=2 / 3,
        )
        decoded = decode_request(encode(request))
        assert decoded.sigma == request.sigma
        assert decoded.sargable == request.sargable

    def test_unknown_keys_rejected(self):
        with pytest.raises(ServingError, match="unknown keys"):
            decode_request(
                '{"tenant":"t","index":"i","estimator":"e",'
                '"sigma":0.1,"buffers":4,"surprise":1}'
            )

    def test_missing_key_and_bad_json_rejected(self):
        with pytest.raises(ServingError, match="missing required key"):
            decode_request('{"tenant":"t"}')
        with pytest.raises(ServingError, match="not valid JSON"):
            decode_request("{nope")
        with pytest.raises(ServingError, match="JSON object"):
            decode_request("[1,2]")

    def test_response_round_trip_both_outcomes(self):
        ok = EstimateResponse(request_id=3, ok=True, estimate=41.5)
        assert decode_response(encode(ok)) == ok
        bad = EstimateResponse(
            request_id=4, ok=False, error="boom", code="rejected"
        )
        assert decode_response(encode(bad)) == bad

    def test_batch_key_is_case_insensitive_on_estimator(self):
        a = _request(index="i", estimator="EPFIS")
        b = _request(index="i", estimator="epfis")
        assert a.batch_key() == b.batch_key()
        assert a.batch_key() != _request(
            index="i", tenant="tenant-1"
        ).batch_key()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_admits_below_bound_sheds_at_bound(self):
        controller = AdmissionController(max_queue=2)
        controller.admit(0)
        controller.admit(1)
        with pytest.raises(ServingError, match="shedding"):
            controller.admit(2)
        assert controller.rejected()[REJECT_QUEUE_FULL] == 1

    def test_closed_rejections_counted_separately(self):
        controller = AdmissionController(max_queue=4)
        controller.close()
        with pytest.raises(ServingError, match="closed"):
            controller.admit(0)
        counts = controller.rejected()
        assert counts[REJECT_CLOSED] == 1
        assert counts[REJECT_QUEUE_FULL] == 0

    def test_invalid_requests_counted_and_error_returned(self):
        controller = AdmissionController()
        error = controller.reject_invalid("bad tenant")
        assert isinstance(error, ServingError)
        assert controller.rejected()[REJECT_INVALID] == 1
        assert controller.total_rejected() == 1

    def test_states(self):
        controller = AdmissionController(max_queue=2)
        assert controller.state(0) == STATE_ACCEPTING
        assert controller.state(2) == STATE_SHEDDING
        controller.close()
        assert controller.state(0) == STATE_CLOSED

    def test_rejected_is_zero_filled(self):
        counts = AdmissionController().rejected()
        assert counts == {
            REJECT_QUEUE_FULL: 0, REJECT_CLOSED: 0, REJECT_INVALID: 0,
        }

    def test_bad_bound_rejected(self):
        with pytest.raises(ServingError, match="max_queue"):
            AdmissionController(max_queue=0)


# ----------------------------------------------------------------------
# Tenant namespaces
# ----------------------------------------------------------------------
class TestTenantNames:
    @pytest.mark.parametrize("name", [
        "t", "tenant-0", "a_b-c9", "x" * 64, "0numeric",
    ])
    def test_legal_names(self, name):
        assert validate_tenant_name(name) == name

    @pytest.mark.parametrize("name", [
        "", "..", "../evil", "a/b", "a\\b", "UPPER", "-leading",
        "_leading", "x" * 65, "spa ce", "dotted.name", 7, None,
    ])
    def test_illegal_names(self, name):
        with pytest.raises(ServingError, match="invalid tenant name"):
            validate_tenant_name(name)

    def test_catalog_path_stays_under_root(self, tmp_path):
        tenants = TenantCatalogs(tmp_path)
        path = tenants.catalog_path("tenant-0")
        assert path == tmp_path / "tenant-0" / CATALOG_FILE
        with pytest.raises(ServingError):
            tenants.catalog_path("../../etc")


class TestTenantCatalogs:
    def test_engine_is_cached_and_lru_evicted(self, tmp_path):
        tenants = TenantCatalogs(tmp_path, cache_size=2)
        first = tenants.engine("t0")
        assert tenants.engine("t0") is first
        tenants.engine("t1")
        # Touch t0 so t1 is the LRU victim when t2 arrives.
        tenants.engine("t0")
        tenants.engine("t2")
        assert tenants.resident_tenants() == ["t0", "t2"]
        metrics = tenants.metrics()
        assert metrics == {
            "resident": 2, "cache_size": 2, "evictions": 1,
        }
        # A rebuilt engine is a new object over the same durable file.
        assert tenants.engine("t1") is not first

    def test_tenant_names_lists_only_provisioned_dirs(self, tenant_root):
        tenants = TenantCatalogs(tenant_root)
        assert tenants.tenant_names() == ["tenant-0", "tenant-1"]

    def test_empty_root_has_no_tenants(self, tmp_path):
        assert TenantCatalogs(tmp_path / "nowhere").tenant_names() == []

    def test_bad_cache_size_rejected(self, tmp_path):
        with pytest.raises(ServingError, match="cache_size"):
            TenantCatalogs(tmp_path, cache_size=0)


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class TestServerLifecycle:
    def test_submit_before_start_raises(self, tenant_root, hot_index):
        server = EstimationServer(tenant_root)
        with pytest.raises(ServingError, match="not started"):
            server.submit(_request(index=hot_index))

    def test_estimate_matches_engine_exactly(self, tenant_root, indexes):
        tenants = TenantCatalogs(tenant_root)
        index = indexes["tenant-1"]
        expected = tenants.engine("tenant-1").estimate(
            index, "epfis", ScanSelectivity(0.2), 48
        )
        with EstimationServer(tenant_root) as server:
            got = server.estimate(
                _request(tenant="tenant-1", index=index, sigma=0.2,
                         buffers=48)
            )
        assert got == expected

    def test_close_drains_every_admitted_future(self, tenant_root,
                                                hot_index):
        server = EstimationServer(tenant_root).start()
        futures = [
            server.submit(_request(index=hot_index, sigma=0.1,
                                   buffers=8 + i, request_id=i))
            for i in range(16)
        ]
        server.close(timeout=30.0)
        assert all(f.done() for f in futures)
        values = [f.result(timeout=0) for f in futures]
        assert all(math.isfinite(v) and v > 0 for v in values)
        # After the drain the server truthfully refuses new work.
        with pytest.raises(ServingError, match="closed"):
            server.submit(_request(index=hot_index))
        assert server.metrics()["rejected"][REJECT_CLOSED] == 1
        assert server.state() == STATE_CLOSED

    def test_context_manager_closes(self, tenant_root, hot_index):
        with EstimationServer(tenant_root) as server:
            server.estimate(_request(index=hot_index))
        with pytest.raises(ServingError):
            server.submit(_request(index=hot_index))


class TestServerValidation:
    @pytest.fixture(scope="class")
    def server(self, tenant_root):
        with EstimationServer(tenant_root) as server:
            yield server

    def test_invalid_tenant_counted_not_enqueued(self, server, hot_index):
        before = server.metrics()["rejected"][REJECT_INVALID]
        with pytest.raises(ServingError, match="invalid tenant name"):
            server.submit(_request(tenant="../evil", index=hot_index))
        assert server.metrics()["rejected"][REJECT_INVALID] == before + 1

    def test_bad_buffers_and_sigma_rejected(self, server, hot_index):
        with pytest.raises(ServingError, match="buffer_pages"):
            server.submit(_request(index=hot_index, buffers=0))
        with pytest.raises(ServingError):
            server.submit(_request(index=hot_index, sigma=-0.5))

    def test_unknown_estimator_fails_the_future_not_admission(
        self, server, hot_index
    ):
        before = server.admission.total_rejected()
        future = server.submit(
            _request(index=hot_index, estimator="nope")
        )
        with pytest.raises(ReproError):
            future.result(timeout=30.0)
        # Estimator failures are execution errors, not rejections.
        assert server.admission.total_rejected() == before

    def test_bad_config_rejected(self):
        with pytest.raises(ServingError, match="batch_window_ms"):
            ServingConfig(batch_window_ms=-1.0)
        with pytest.raises(ServingError, match="max_batch"):
            ServingConfig(max_batch=0)


class TestServerAdmission:
    def test_queue_full_sheds_truthfully(self, tenant_root, hot_index):
        server = EstimationServer(
            tenant_root, ServingConfig(max_queue=2)
        )
        # Flip the started flag without spawning the dispatcher:
        # admitted requests stay queued, so the depth the controller
        # sees is deterministic (no race against a live drain).
        server._started = True
        server.submit(_request(index=hot_index, request_id=0))
        server.submit(_request(index=hot_index, request_id=1))
        with pytest.raises(ServingError, match="shedding"):
            server.submit(_request(index=hot_index, request_id=2))
        metrics = server.metrics()
        assert metrics["rejected"][REJECT_QUEUE_FULL] == 1
        assert metrics["requests"] == 2
        assert server.state() == STATE_SHEDDING


class TestServerBatching:
    def test_burst_coalesces_and_metrics_account(self, tenant_root,
                                                 indexes):
        with EstimationServer(tenant_root) as server:
            futures = [
                server.submit(
                    _request(
                        tenant=f"tenant-{i % 2}",
                        index=indexes[f"tenant-{i % 2}"],
                        sigma=0.05 * (1 + i % 3), buffers=16 + i,
                        request_id=i,
                    )
                )
                for i in range(24)
            ]
            values = [f.result(timeout=30.0) for f in futures]
            metrics = server.metrics()
        assert all(math.isfinite(v) and v > 0 for v in values)
        assert metrics["requests"] == 24
        assert metrics["completed"] == 24
        assert 1 <= metrics["batches"] <= 24
        histogram = metrics["batch_size_histogram"]
        assert sum(histogram.values()) == metrics["batches"]
        assert metrics["mean_batch_size"] >= 1.0


class _EngineCalls:
    """Wraps ``EstimationEngine.estimate_many`` at class level.

    Records, in order, each call's entry and exit with the running
    thread's name, and the most calls ever running at once.  ``hook``,
    when set, runs inside the call before the engine does.
    """

    def __init__(self, monkeypatch) -> None:
        self.events = []
        self.running = 0
        self.max_running = 0
        self.hook = None
        lock = threading.Lock()
        raw = EstimationEngine.estimate_many

        def estimate_many(engine, *args, **kwargs):
            name = threading.current_thread().name
            with lock:
                self.events.append(("enter", name))
                self.running += 1
                self.max_running = max(self.max_running, self.running)
            try:
                if self.hook is not None:
                    self.hook()
                return raw(engine, *args, **kwargs)
            finally:
                with lock:
                    self.running -= 1
                    self.events.append(("exit", name))

        monkeypatch.setattr(
            EstimationEngine, "estimate_many", estimate_many
        )

    def threads(self):
        return [name for kind, name in self.events if kind == "enter"]


class TestInlineWhenIdle:
    """A lone synchronous caller runs its own request; others batch."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return _EngineCalls(monkeypatch)

    def test_idle_caller_runs_on_its_own_thread(self, tenant_root,
                                                hot_index, calls):
        with EstimationServer(tenant_root) as server:
            value = server.estimate(_request(index=hot_index))
            metrics = server.metrics()
        assert calls.threads() == [threading.current_thread().name]
        assert math.isfinite(value) and value > 0
        # An inline run is one batch of size 1, counted like any other.
        assert metrics["requests"] == metrics["completed"] == 1
        assert metrics["batches"] == 1
        assert metrics["batch_size_histogram"] == {"<=1": 1}

    def test_every_exit_path_uncounts_the_caller(self, tenant_root,
                                                 hot_index, calls):
        # A caller count leaked by a rejection, an estimator error or a
        # timed-out wait would send every later lone request through
        # the dispatcher hand-off.
        me = threading.current_thread().name
        entered, release = threading.Event(), threading.Event()
        with EstimationServer(tenant_root) as server:
            with pytest.raises(ServingError, match="invalid tenant"):
                server.estimate(_request(tenant="../evil",
                                         index=hot_index))
            with pytest.raises(ReproError):
                server.estimate(_request(index=hot_index,
                                         estimator="nope"))
            server.estimate(_request(index=hot_index))
            assert calls.threads() == [me, me]

            def block_next_call():
                if not entered.is_set():
                    entered.set()
                    assert release.wait(timeout=30.0)

            calls.hook = block_next_call
            blocked = threading.Thread(
                target=server.estimate, args=(_request(index=hot_index),)
            )
            blocked.start()
            assert entered.wait(timeout=30.0)
            with pytest.raises(FutureTimeout):
                server.estimate(_request(index=hot_index), timeout=0.01)
            release.set()
            blocked.join(timeout=30.0)
            assert not blocked.is_alive()
        # close() drained the timed-out request; nobody is left inside.
        assert server._callers == server._inflight == 0
        assert server.metrics()["completed"] == 4

    def test_request_arriving_mid_run_waits_for_the_dispatcher(
        self, tenant_root, hot_index, calls, monkeypatch
    ):
        entered, release, contended = (
            threading.Event() for _ in "abc"
        )

        def block_first_call():
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=30.0)

        calls.hook = block_first_call
        results = {}

        def call(name, sigma):
            results[name] = server.estimate(
                _request(index=hot_index, sigma=sigma)
            )

        class ExecutorLock:
            """The server's executor lock, flagging a blocked acquire."""

            def __init__(self, lock):
                self._lock = lock

            def acquire(self, blocking=True):
                if self._lock.acquire(blocking=False):
                    return True
                if blocking:
                    contended.set()
                    return self._lock.acquire()
                return False

            def release(self):
                self._lock.release()

            def __enter__(self):
                return self.acquire()

            def __exit__(self, *exc_info):
                self.release()

        with EstimationServer(tenant_root) as server:
            monkeypatch.setattr(
                server, "_executor", ExecutorLock(server._executor)
            )
            first = threading.Thread(target=call, args=("a", 0.1),
                                     name="caller-a")
            second = threading.Thread(target=call, args=("b", 0.2),
                                      name="caller-b")
            first.start()
            assert entered.wait(timeout=30.0)
            second.start()
            # B found A's request in flight and queued; the dispatcher
            # took it and now waits for A's run to finish.
            assert contended.wait(timeout=30.0)
            release.set()
            first.join(timeout=30.0)
            second.join(timeout=30.0)
            assert not first.is_alive() and not second.is_alive()
        assert calls.events == [
            ("enter", "caller-a"),
            ("exit", "caller-a"),
            ("enter", "repro-serving-dispatcher"),
            ("exit", "repro-serving-dispatcher"),
        ]
        assert calls.max_running == 1
        assert set(results) == {"a", "b"}

    def test_caller_still_inside_estimate_keeps_the_next_off_inline(
        self, tenant_root, hot_index, calls, monkeypatch
    ):
        # A's request is answered and nothing is in flight, but A has
        # not returned from estimate() yet: B must queue, not run
        # inline while A still waits to be scheduled.
        answered, release = threading.Event(), threading.Event()
        raw_result = Future.result

        def result(future, timeout=None):
            value = raw_result(future, timeout)
            if threading.current_thread().name == "caller-a":
                answered.set()
                assert release.wait(timeout=30.0)
            return value

        monkeypatch.setattr(Future, "result", result)
        with EstimationServer(tenant_root) as server:
            first = threading.Thread(
                target=server.estimate,
                args=(_request(index=hot_index),),
                name="caller-a",
            )
            first.start()
            assert answered.wait(timeout=30.0)
            server.estimate(_request(index=hot_index, sigma=0.2))
            release.set()
            first.join(timeout=30.0)
            assert not first.is_alive()
        assert calls.threads() == ["caller-a", "repro-serving-dispatcher"]

    def test_mixed_callers_never_overlap_and_equal_serial(
        self, tenant_root, indexes, monkeypatch
    ):
        tenants = TenantCatalogs(tenant_root)
        threads, per_thread = 8, 24
        plans = [
            [
                _request(
                    tenant=f"tenant-{(t + i) % 2}",
                    index=indexes[f"tenant-{(t + i) % 2}"],
                    sigma=0.05 * (1 + (t * per_thread + i) % 7),
                    buffers=4 + (t * 5 + i * 3) % 60,
                    request_id=t * per_thread + i,
                )
                for i in range(per_thread)
            ]
            for t in range(threads)
        ]
        expected = {
            r.request_id: tenants.engine(r.tenant).estimate(
                r.index, r.estimator, ScanSelectivity(r.sigma),
                r.buffer_pages,
            )
            for plan in plans for r in plan
        }
        calls = _EngineCalls(monkeypatch)
        got = {}
        errors = []
        barrier = threading.Barrier(threads)

        def submitter(plan):
            # Bursts of three futures, so the dispatcher sees real
            # batches while the estimate() callers come and go.
            barrier.wait()
            for start in range(0, len(plan), 3):
                burst = plan[start:start + 3]
                futures = [server.submit(r) for r in burst]
                for r, future in zip(burst, futures):
                    got[r.request_id] = future.result(timeout=30.0)

        def caller(plan):
            barrier.wait()
            for r in plan:
                got[r.request_id] = server.estimate(r, timeout=30.0)

        def run(target, plan):
            try:
                target(plan)
            except BaseException as exc:  # noqa: BLE001 — re-raised
                errors.append(exc)

        # Switch threads every 10 us so short races actually interleave.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with EstimationServer(tenant_root) as server:
                workers = [
                    threading.Thread(
                        target=run,
                        args=(submitter if t % 2 else caller, plan),
                    )
                    for t, plan in enumerate(plans)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60.0)
                assert not any(w.is_alive() for w in workers)
                metrics = server.metrics()
        finally:
            sys.setswitchinterval(previous)
        assert not errors
        # A lost update to either count would leave it non-zero.
        assert server._callers == server._inflight == 0
        assert calls.max_running == 1
        assert got == expected
        total = threads * per_thread
        assert metrics["requests"] == metrics["completed"] == total
        assert server.admission.total_rejected() == 0
        histogram = metrics["batch_size_histogram"]
        assert sum(histogram.values()) == metrics["batches"]


class TestTenantIsolation:
    def test_corruption_is_quarantined_inside_its_own_namespace(
        self, tmp_path
    ):
        provision_tenants(tmp_path, tenant_count=2, records=1_000,
                          seed=3)
        tenants = TenantCatalogs(tmp_path)
        with EstimationServer(tenants) as server:
            request_a = _request(
                tenant="tenant-0",
                index=tenants.engine("tenant-0").index_names()[0],
            )
            request_b = _request(
                tenant="tenant-1",
                index=tenants.engine("tenant-1").index_names()[0],
            )
            value_a = server.estimate(request_a)
            value_b = server.estimate(request_b)

            # Corrupt tenant-0's statistics file in place.
            tenants.catalog_path("tenant-0").write_text("{torn json")

            # tenant-0 limps along on its last-known-good snapshot and
            # quarantines the damage inside its own directory ...
            assert server.estimate(request_a) == value_a
            store_a = tenants.engine("tenant-0").source
            assert store_a.metrics()["quarantines"] == 1
            assert store_a.quarantine_path.exists()

            # ... while tenant-1 never sees any of it.
            assert server.estimate(request_b) == value_b
            store_b = tenants.engine("tenant-1").source
            assert store_b.metrics()["quarantines"] == 0
            assert not store_b.quarantine_path.exists()
