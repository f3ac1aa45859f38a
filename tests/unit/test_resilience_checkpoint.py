"""Unit tests for checkpointed, resumable LRU-Fit passes."""

import base64
import hashlib
import json
import pickle

import pytest

from repro.buffer.kernels import HAVE_NUMPY, resolve_kernel
from repro.errors import CheckpointError, EstimationError
from repro.estimators.epfis import LRUFit, LRUFitConfig
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointPolicy,
    Checkpointer,
    hash_pages,
    resolve_checkpointer,
)


def _trace(refs=400, pages=23, seed=3):
    import random

    rng = random.Random(seed)
    return [rng.randrange(pages) for _ in range(refs)]


def _chunks(trace, size):
    return [trace[i:i + size] for i in range(0, len(trace), size)]


def _run(trace, **kwargs):
    return LRUFit().run_streaming(
        _chunks(trace, 50),
        table_pages=len(set(trace)),
        distinct_keys=len(set(trace)),
        index_name="t.ckpt",
        **kwargs,
    )


class TestCheckpointPolicy:
    def test_defaults_valid(self):
        policy = CheckpointPolicy()
        assert policy.every_refs is not None

    def test_needs_at_least_one_trigger(self):
        with pytest.raises(CheckpointError):
            CheckpointPolicy(every_refs=None, every_seconds=None)

    def test_bad_every_refs(self):
        with pytest.raises(CheckpointError):
            CheckpointPolicy(every_refs=0)

    def test_bad_every_seconds(self):
        with pytest.raises(CheckpointError):
            CheckpointPolicy(every_refs=None, every_seconds=0.0)


class TestDue:
    def test_refs_trigger(self, tmp_path):
        ckpt = Checkpointer(
            tmp_path, CheckpointPolicy(every_refs=100)
        )
        assert not ckpt.due(99)
        assert ckpt.due(100)
        assert ckpt.due(250)

    def test_seconds_trigger_uses_injected_clock(self, tmp_path):
        now = [0.0]
        ckpt = Checkpointer(
            tmp_path,
            CheckpointPolicy(every_refs=None, every_seconds=5.0),
            clock=lambda: now[0],
        )
        assert not ckpt.due(10_000)  # refs alone never fire
        now[0] = 4.9
        assert not ckpt.due(1)
        now[0] = 5.0
        assert ckpt.due(1)


class TestSaveLoad:
    def _stream_at(self, trace, position):
        stream = resolve_kernel("baseline").stream()
        stream.feed(trace[:position])
        return stream

    def test_round_trip(self, tmp_path):
        trace = _trace()
        stream = self._stream_at(trace, 100)
        hasher = hashlib.sha256()
        hash_pages(hasher, trace[:100])
        ckpt = Checkpointer(tmp_path)
        ckpt.save(stream, 100, hasher.hexdigest(), "baseline")
        assert ckpt.exists()
        assert ckpt.saves == 1

        state = Checkpointer(tmp_path).load()
        assert state.kernel == "baseline"
        assert state.position == 100
        assert state.trace_digest == hasher.hexdigest()
        # The restored stream continues exactly where the original would.
        state.stream.feed(trace[100:])
        stream.feed(trace[100:])
        assert state.stream.finish().accesses == stream.finish().accesses

    def test_clear_is_idempotent(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        ckpt.clear()  # nothing there yet
        stream = self._stream_at(_trace(), 50)
        ckpt.save(stream, 50, "d" * 64, "baseline")
        ckpt.clear()
        assert not ckpt.exists()
        ckpt.clear()

    def test_load_missing_fails_closed(self, tmp_path):
        with pytest.raises(CheckpointError) as exc_info:
            Checkpointer(tmp_path).load()
        assert "no checkpoint" in str(exc_info.value)

    def test_load_invalid_json_fails_closed(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        tmp_path.mkdir(exist_ok=True)
        ckpt.path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            ckpt.load()

    def test_load_wrong_schema_version(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        stream = self._stream_at(_trace(), 50)
        ckpt.save(stream, 50, "d" * 64, "baseline")
        payload = json.loads(ckpt.path.read_text(encoding="utf-8"))
        payload["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        ckpt.path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError) as exc_info:
            ckpt.load()
        assert "schema_version" in str(exc_info.value)

    def test_load_missing_field(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        stream = self._stream_at(_trace(), 50)
        ckpt.save(stream, 50, "d" * 64, "baseline")
        payload = json.loads(ckpt.path.read_text(encoding="utf-8"))
        del payload["stream_b64"]
        ckpt.path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError):
            ckpt.load()

    def test_load_tampered_stream_fails_sha_check(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        stream = self._stream_at(_trace(), 50)
        ckpt.save(stream, 50, "d" * 64, "baseline")
        payload = json.loads(ckpt.path.read_text(encoding="utf-8"))
        blob = bytearray(base64.b64decode(payload["stream_b64"]))
        blob[len(blob) // 2] ^= 0xFF
        payload["stream_b64"] = base64.b64encode(bytes(blob)).decode()
        ckpt.path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError) as exc_info:
            ckpt.load()
        assert "SHA-256" in str(exc_info.value)

    def test_load_bad_position(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        stream = self._stream_at(_trace(), 50)
        ckpt.save(stream, 50, "d" * 64, "baseline")
        payload = json.loads(ckpt.path.read_text(encoding="utf-8"))
        payload["position"] = -3
        ckpt.path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError):
            ckpt.load()

    def test_load_unknown_kernel_names_it(self, tmp_path):
        # A snapshot of a kernel this build lacks (the removed compact
        # kernel, whose module is gone) fails closed with the kernel's
        # name, before unpickling could fail on the missing module.
        blob = pickle.dumps(self._stream_at(_trace(), 50), protocol=2)
        old = b"repro.buffer.kernels.compact\n_CompactStream\n"
        blob = blob.replace(
            b"repro.buffer.kernels.baseline\n_BaselineStream\n", old
        )
        assert old in blob

        class _Snapshot:
            def snapshot_state(self):
                return blob

        ckpt = Checkpointer(tmp_path)
        ckpt.save(_Snapshot(), 50, "d" * 64, "compact")
        with pytest.raises(CheckpointError) as exc_info:
            ckpt.load()
        assert "'compact'" in str(exc_info.value)
        assert "does not provide" in str(exc_info.value)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_load_buffered_numpy_snapshot_fails_closed(self, tmp_path):
        # Older builds' numpy stream buffered every fed chunk in one
        # _chunks list; such a snapshot would unpickle into today's
        # class and then fail on its first feed.
        import numpy

        stream = resolve_kernel("numpy").stream()
        stream.__dict__.clear()
        stream.__dict__.update(
            _chunks=[numpy.arange(50, dtype=numpy.int64)],
            kernel_name="numpy",
        )
        ckpt = Checkpointer(tmp_path)
        ckpt.save(stream, 50, "d" * 64, "numpy")
        with pytest.raises(CheckpointError) as exc_info:
            ckpt.load()
        assert "older build" in str(exc_info.value)


class TestHashPages:
    def test_chunk_boundary_independent(self):
        pages = list(range(100))
        one = hashlib.sha256()
        hash_pages(one, pages)
        two = hashlib.sha256()
        hash_pages(two, pages[:7])
        hash_pages(two, pages[7:63])
        hash_pages(two, pages[63:])
        assert one.hexdigest() == two.hexdigest()

    def test_rejects_unhashable_pages(self):
        with pytest.raises(CheckpointError):
            hash_pages(hashlib.sha256(), [-1])
        with pytest.raises(CheckpointError):
            hash_pages(hashlib.sha256(), ["page"])


class TestResolveCheckpointer:
    def test_none_passes_through(self):
        assert resolve_checkpointer(None) is None

    def test_instance_passes_through(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        assert resolve_checkpointer(ckpt) is ckpt

    def test_path_coerced(self, tmp_path):
        ckpt = resolve_checkpointer(tmp_path / "ck")
        assert isinstance(ckpt, Checkpointer)
        assert ckpt.directory == tmp_path / "ck"


class TestStreamingResume:
    def test_resume_without_checkpoint_dir_raises(self):
        with pytest.raises(EstimationError):
            _run(_trace(), resume=True)

    def test_resume_with_empty_directory_starts_fresh(self, tmp_path):
        trace = _trace()
        plain = _run(trace)
        resumed = _run(trace, checkpoint=tmp_path, resume=True)
        assert resumed == plain

    def test_checkpointing_does_not_change_results(self, tmp_path):
        trace = _trace()
        plain = _run(trace)
        ckpt = Checkpointer(tmp_path, CheckpointPolicy(every_refs=120))
        checked = _run(trace, checkpoint=ckpt)
        assert checked == plain
        assert ckpt.saves >= 1
        assert not ckpt.exists()  # cleared after a completed pass

    def _interrupted_checkpoint(self, tmp_path, trace, kernel=None):
        """Run until the first post-checkpoint chunk, then die."""
        ckpt = Checkpointer(tmp_path, CheckpointPolicy(every_refs=120))

        def dying_chunks():
            for chunk in _chunks(trace, 50):
                if ckpt.saves >= 2:
                    raise KeyboardInterrupt("simulated kill")
                yield chunk

        config = LRUFitConfig() if kernel is None else LRUFitConfig(
            kernel=kernel
        )
        with pytest.raises(KeyboardInterrupt):
            LRUFit(config).run_streaming(
                dying_chunks(),
                table_pages=len(set(trace)),
                distinct_keys=len(set(trace)),
                checkpoint=ckpt,
            )
        assert ckpt.exists()
        return ckpt

    def test_kill_and_resume_is_byte_identical(self, tmp_path):
        trace = _trace()
        plain = _run(trace)
        self._interrupted_checkpoint(tmp_path, trace)
        resumed = _run(trace, checkpoint=tmp_path, resume=True)
        assert resumed == plain

    def test_resume_rechunked_trace_still_matches(self, tmp_path):
        trace = _trace()
        plain = _run(trace)
        self._interrupted_checkpoint(tmp_path, trace)
        # The resumed run may deliver the trace in different chunk sizes.
        resumed = LRUFit().run_streaming(
            _chunks(trace, 17),
            table_pages=len(set(trace)),
            distinct_keys=len(set(trace)),
            index_name="t.ckpt",
            checkpoint=tmp_path,
            resume=True,
        )
        assert resumed == plain

    def test_resume_with_wrong_kernel_raises(self, tmp_path):
        trace = _trace()
        self._interrupted_checkpoint(tmp_path, trace, kernel="baseline")
        fit = LRUFit(LRUFitConfig(kernel="sampled"))
        with pytest.raises(CheckpointError) as exc_info:
            fit.run_streaming(
                _chunks(trace, 50),
                table_pages=len(set(trace)),
                distinct_keys=len(set(trace)),
                checkpoint=tmp_path,
                resume=True,
            )
        assert "kernel" in str(exc_info.value)

    def test_resume_with_diverged_trace_raises(self, tmp_path):
        trace = _trace()
        self._interrupted_checkpoint(tmp_path, trace)
        diverged = list(trace)
        diverged[10] = (diverged[10] + 1) % len(set(trace))
        with pytest.raises(CheckpointError) as exc_info:
            _run(diverged, checkpoint=tmp_path, resume=True)
        assert "diverged" in str(exc_info.value)

    def test_resume_with_short_trace_raises(self, tmp_path):
        trace = _trace()
        self._interrupted_checkpoint(tmp_path, trace)
        with pytest.raises(CheckpointError) as exc_info:
            _run(trace[:100], checkpoint=tmp_path, resume=True)
        assert "ended" in str(exc_info.value)


class TestPolicyKernelResume:
    """Checkpoint/resume for the simulated-policy (non-mergeable)
    kernels: their streams carry real eviction state (CLOCK hands, 2Q
    queues, LeCaR weights), so a resume that silently reset any of it
    would produce a subtly different curve rather than an error."""

    def _run_policy(self, policy, trace, **kwargs):
        return LRUFit(LRUFitConfig(policy=policy)).run_streaming(
            _chunks(trace, 50),
            table_pages=len(set(trace)),
            distinct_keys=len(set(trace)),
            index_name="t.policy-ckpt",
            **kwargs,
        )

    def _die_mid_chunk(self, policy, trace, tmp_path):
        """Feed whole chunks until a snapshot lands, then die *inside*
        the next chunk — the fault point a checkpoint can never sit on."""
        ckpt = Checkpointer(tmp_path, CheckpointPolicy(every_refs=120))

        def faulty_chunks():
            for chunk in _chunks(trace, 50):
                if ckpt.saves >= 2:
                    half = chunk[: len(chunk) // 2]
                    yield half  # the kernel consumes a partial chunk...
                    raise OSError("simulated mid-chunk I/O fault")
                yield chunk

        with pytest.raises(OSError):
            LRUFit(LRUFitConfig(policy=policy)).run_streaming(
                faulty_chunks(),
                table_pages=len(set(trace)),
                distinct_keys=len(set(trace)),
                index_name="t.policy-ckpt",
                checkpoint=ckpt,
            )
        assert ckpt.exists()
        return ckpt

    @pytest.mark.parametrize("policy", ["clock", "2q", "lecar-tinylfu"])
    def test_mid_chunk_fault_resume_is_byte_identical(
        self, policy, tmp_path
    ):
        trace = _trace(refs=600, pages=23, seed=11)
        plain = self._run_policy(policy, trace)
        self._die_mid_chunk(policy, trace, tmp_path)
        resumed = self._run_policy(
            policy, trace, checkpoint=tmp_path, resume=True
        )
        assert resumed.to_dict() == plain.to_dict()

    @pytest.mark.parametrize("policy", ["clock", "2q"])
    def test_policy_checkpoint_is_not_lru_compatible(
        self, policy, tmp_path
    ):
        """A policy-kernel checkpoint names its provider: resuming the
        pass under plain LRU must fail loudly, not blend state."""
        trace = _trace(refs=600, pages=23, seed=11)
        self._die_mid_chunk(policy, trace, tmp_path)
        with pytest.raises(CheckpointError) as exc_info:
            _run(trace, checkpoint=tmp_path, resume=True)
        assert "kernel" in str(exc_info.value)

    @pytest.mark.parametrize("policy", ["lecar-tinylfu"])
    def test_resume_with_diverged_trace_still_fails(
        self, policy, tmp_path
    ):
        trace = _trace(refs=600, pages=23, seed=11)
        self._die_mid_chunk(policy, trace, tmp_path)
        diverged = list(trace)
        diverged[3] = (diverged[3] + 1) % len(set(trace))
        with pytest.raises(CheckpointError):
            self._run_policy(
                policy, diverged, checkpoint=tmp_path, resume=True
            )
