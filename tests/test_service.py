"""Unit tests for the service layer: contracts, store, queue, limiter.

The HTTP surface is covered end-to-end in ``test_service_http.py``;
here every component is exercised in-process where failures localise:
contract validation and content keying, artifact-store semantics
(cold/warm hits, LRU eviction, locked atomic writes, torn entries),
queue coalescing with a gated executor, and token-bucket refill against
a fake clock.
"""

import hashlib
import json
import os
import threading

import pytest

from repro.kernels import KERNELS_BY_NAME
from repro.service import ContractError, JobRequest
from repro.service.contracts import JOB_KINDS, OPTION_SCHEMAS
from repro.service.queue import JobQueue
from repro.service.ratelimit import RateLimiter
from repro.service.store import ArtifactStore


# --------------------------------------------------------------------------
# Contracts
# --------------------------------------------------------------------------


class TestContracts:
    @pytest.mark.parametrize("kind", JOB_KINDS)
    def test_round_trip_every_kind(self, kind):
        request = JobRequest.make(kind, "ks")
        wire = request.to_dict()
        rebuilt = JobRequest.from_dict(json.loads(json.dumps(wire)))
        assert rebuilt == request
        assert rebuilt.key == request.key

    @pytest.mark.parametrize("kind", JOB_KINDS)
    def test_defaults_are_complete(self, kind):
        request = JobRequest.make(kind, "ks")
        assert set(request.options) == set(OPTION_SCHEMAS[kind])

    def test_spelled_out_default_keys_like_omitted(self):
        bare = JobRequest.make("compile", "ks")
        spelled = JobRequest.make("compile", "ks", {"policy": "p1"})
        assert bare.key == spelled.key

    def test_key_covers_kind_kernel_options_and_source(self):
        base = JobRequest.make("compile", "ks").key
        assert JobRequest.make("simulate", "ks").key != base
        assert JobRequest.make("compile", "em3d").key != base
        assert JobRequest.make("compile", "ks", {"n_workers": 2}).key != base
        source = KERNELS_BY_NAME["ks"].source + "\n"
        assert JobRequest.make("compile", "ks", source=source).key != base

    def test_source_override_resolves_into_spec(self):
        source = KERNELS_BY_NAME["ks"].source + "\n// tweaked\n"
        request = JobRequest.make("simulate", "ks", source=source)
        assert request.spec().source == source
        assert request.spec().name == "ks"

    def test_unknown_kind_kernel_option_field_rejected(self):
        with pytest.raises(ContractError, match="unknown job kind"):
            JobRequest.make("transmogrify", "ks")
        with pytest.raises(ContractError, match="unknown kernel"):
            JobRequest.make("compile", "quicksort")
        with pytest.raises(ContractError, match="unknown option"):
            JobRequest.make("compile", "ks", {"warp_factor": 9})
        with pytest.raises(ContractError, match="unknown request field"):
            JobRequest.from_dict({"kind": "compile", "kernel": "ks",
                                  "priority": "high"})

    def test_bad_option_values_rejected(self):
        with pytest.raises(ContractError, match="policy"):
            JobRequest.make("compile", "ks", {"policy": "p7"})
        with pytest.raises(ContractError, match="n_workers"):
            JobRequest.make("compile", "ks", {"n_workers": 0})
        with pytest.raises(ContractError, match="n_workers"):
            JobRequest.make("compile", "ks", {"n_workers": True})
        with pytest.raises(ContractError, match="cache_lines"):
            JobRequest.make("simulate", "ks", {"cache_lines": 513})
        with pytest.raises(ContractError, match="policies"):
            JobRequest.make("dse", "ks", {"policies": []})

    def test_non_object_bodies_rejected(self):
        with pytest.raises(ContractError, match="JSON object"):
            JobRequest.from_dict([1, 2, 3])
        with pytest.raises(ContractError, match="must be a string"):
            JobRequest.from_dict({"kind": "compile", "kernel": 7})
        with pytest.raises(ContractError, match="options"):
            JobRequest.from_dict(
                {"kind": "compile", "kernel": "ks", "options": [1]}
            )


# --------------------------------------------------------------------------
# Artifact store
# --------------------------------------------------------------------------


class TestArtifactStore:
    def test_round_trip_and_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ab" + "0" * 62
        store.put(key, {"x": 1})
        assert store.get(key) == {"x": 1}
        assert store.path(key) == tmp_path / "ab" / f"{key}.json"
        assert store.path(key).is_file()
        assert len(store) == 1 and store.keys() == [key]
        assert key in store

    def test_cold_then_warm_hits(self, tmp_path):
        writer = ArtifactStore(tmp_path)
        key = "cd" + "0" * 62
        writer.put(key, {"x": 1})
        reader = ArtifactStore(tmp_path)  # fresh process-equivalent
        assert reader.get(key) == {"x": 1}
        assert reader.stats.cold_hits == 1 and reader.stats.warm_hits == 0
        assert reader.get(key) == {"x": 1}
        assert reader.stats.cold_hits == 1 and reader.stats.warm_hits == 1
        reader.drop_memory()
        assert reader.get(key) == {"x": 1}
        assert reader.stats.cold_hits == 2

    def test_miss_and_torn_entry(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ef" + "0" * 62
        assert store.get(key) is None
        assert store.stats.misses == 1
        store.path(key).parent.mkdir(parents=True)
        store.path(key).write_text("{torn")
        assert store.get(key) is None
        assert store.stats.misses == 2

    def test_lru_eviction_order(self, tmp_path):
        store = ArtifactStore(tmp_path, lru_entries=2)
        keys = [f"{i:02d}" + "0" * 62 for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        assert store.lru_keys() == [keys[1], keys[2]]  # keys[0] evicted
        # The evicted artifact is still on disk: a cold hit, not a miss.
        assert store.get(keys[0]) == {"i": 0}
        assert store.stats.cold_hits == 1
        assert store.lru_keys() == [keys[2], keys[0]]
        # Touching an entry protects it from the next eviction.
        store.get(keys[2])
        store.put("ff" + "0" * 62, {"i": 9})
        assert keys[2] in store.lru_keys()

    def test_lru_disabled(self, tmp_path):
        store = ArtifactStore(tmp_path, lru_entries=0)
        key = "aa" + "0" * 62
        store.put(key, {"x": 1})
        assert store.lru_keys() == []
        assert store.get(key) == {"x": 1}
        assert store.stats.cold_hits == 1

    def test_stale_lock_does_not_block_writes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "bb" + "0" * 62
        path = store.path(key)
        path.parent.mkdir(parents=True)
        # A writer died mid-stage: its O_EXCL temp survives.
        path.with_name(f".{path.name}.tmp").write_text("{half")
        store.put(key, {"x": 2})
        assert store.get(key) == {"x": 2}
        assert store.stats.write_conflicts == 1

    def test_concurrent_writers_never_tear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "cc" + "0" * 62
        artifact = {"payload": list(range(500))}
        errors = []

        def hammer():
            try:
                for _ in range(20):
                    store.put(key, artifact)
                    got = ArtifactStore(tmp_path).get(key)
                    assert got == artifact
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.get(key) == artifact
        # No temp litter: every stage was renamed or cleaned up.
        assert not list(store.path(key).parent.glob(".*tmp"))

    def test_third_writer_in_one_process_does_not_collide(self, tmp_path):
        # The race behind the threaded test's rare failure, without
        # threads: one writer holds the O_EXCL lock file, a second has
        # staged under the fallback name, and a third thread of the same
        # process arrives.  A fallback name unique per process only made
        # the third raise FileExistsError.
        store = ArtifactStore(tmp_path)
        key = "cd" + "0" * 62
        path = store.path(key)
        path.parent.mkdir(parents=True)
        first = path.with_name(f".{path.name}.tmp")
        second = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        first.write_text("{half")
        second.write_text("{half")
        store.put(key, {"x": 3})
        assert ArtifactStore(tmp_path).get(key) == {"x": 3}
        assert store.stats.write_conflicts == 1
        # The other writers' stages are theirs to publish or clean up.
        assert sorted(path.parent.glob(".*tmp")) == sorted([first, second])


class TestStoreIntegrity:
    def test_put_writes_a_matching_integrity_sidecar(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ab" + "0" * 62
        store.put(key, {"x": 1})
        sidecar = store.integrity_path(key)
        assert sidecar.is_file()
        digest = hashlib.sha256(
            store.path(key).read_bytes()
        ).hexdigest()
        assert sidecar.read_text().strip() == digest

    def test_corruption_is_quarantined_and_reads_as_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ab" + "0" * 62
        store.put(key, {"x": 1})
        # Flip the payload under the sidecar's nose.
        store.path(key).write_text('{"x": 2}')
        reader = ArtifactStore(tmp_path)
        assert reader.get(key) is None
        assert reader.stats.corrupt == 1
        assert reader.stats.misses == 1
        assert not store.path(key).exists()
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert any(p.name == f"{key}.json.corrupt" for p in quarantined)
        # The quarantined file never re-enters the addressable tree.
        assert reader.get(key) is None
        assert key not in ArtifactStore(tmp_path).keys()
        # A re-executed job can re-publish under the same key.
        store.put(key, {"x": 1})
        assert ArtifactStore(tmp_path).get(key) == {"x": 1}

    def test_strict_get_raises_typed_artifact_corrupt(self, tmp_path):
        from repro.service import ArtifactCorrupt

        store = ArtifactStore(tmp_path)
        key = "cd" + "0" * 62
        store.put(key, {"x": 1})
        store.path(key).write_text("{garbage")
        reader = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactCorrupt) as info:
            reader.get(key, strict=True)
        assert info.value.key == key
        assert info.value.quarantined is not None

    def test_legacy_artifact_without_sidecar_is_accepted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ef" + "0" * 62
        store.path(key).parent.mkdir(parents=True)
        store.path(key).write_text(
            json.dumps({"x": 3}, sort_keys=True)
        )
        assert store.get(key) == {"x": 3}
        assert store.stats.corrupt == 0


# --------------------------------------------------------------------------
# Job queue
# --------------------------------------------------------------------------


def _drive(coro):
    """Run an async test body on a fresh loop (no pytest-asyncio dep)."""
    import asyncio

    return asyncio.run(coro)


class TestJobQueue:
    def test_identical_inflight_keys_coalesce_to_one_execution(self, tmp_path):
        async def body():
            store = ArtifactStore(tmp_path)
            gate = threading.Event()
            calls = []

            def run(request):
                calls.append(request.key)
                assert gate.wait(10)
                return {"kind": request.kind, "ran": True}

            queue = JobQueue(store, workers=2, run=run)
            await queue.start()
            try:
                request = JobRequest.make("compile", "ks")
                first = queue.submit(request)
                second = queue.submit(JobRequest.make("compile", "ks"))
                assert second is first  # same record, one job id
                assert first.submissions == 2
                assert queue.stats.coalesced == 1
                gate.set()
                assert await queue.wait(first, timeout=10)
                assert first.status == "done"
                assert len(calls) == 1  # the work ran exactly once
                assert queue.result(first) == {"kind": "compile", "ran": True}
                # A third submission after completion is a store hit.
                third = queue.submit(JobRequest.make("compile", "ks"))
                assert third is not first
                assert third.status == "done" and third.cached
                assert queue.stats.cached == 1
            finally:
                await queue.close()

        _drive(body())

    def test_distinct_keys_do_not_coalesce(self, tmp_path):
        async def body():
            store = ArtifactStore(tmp_path)
            queue = JobQueue(store, workers=2, run=lambda r: {"k": r.kind})
            await queue.start()
            try:
                a = queue.submit(JobRequest.make("compile", "ks"))
                b = queue.submit(
                    JobRequest.make("compile", "ks", {"n_workers": 2})
                )
                assert a is not b
                await queue.wait(a, 10)
                await queue.wait(b, 10)
                assert queue.stats.executed == 2
            finally:
                await queue.close()

        _drive(body())

    def test_failures_are_recorded_not_raised(self, tmp_path):
        async def body():
            from repro.errors import CgpaError

            store = ArtifactStore(tmp_path)

            def run(request):
                if request.options["n_workers"] == 1:
                    raise CgpaError("deadlock: nobody can make progress")
                raise ValueError("executor bug")

            queue = JobQueue(store, workers=1, run=run)
            await queue.start()
            try:
                model = queue.submit(
                    JobRequest.make("compile", "ks", {"n_workers": 1})
                )
                bug = queue.submit(
                    JobRequest.make("compile", "ks", {"n_workers": 2})
                )
                await queue.wait(model, 10)
                await queue.wait(bug, 10)
                assert model.status == "failed"
                assert "deadlock" in model.error
                assert bug.status == "failed"
                assert bug.error.startswith("internal: ValueError")
                assert queue.stats.failed == 2
                assert queue.result(model) is None
                # Failures are not cached: the next submission retries.
                retry = queue.submit(
                    JobRequest.make("compile", "ks", {"n_workers": 1})
                )
                assert retry is not model and not retry.cached
                await queue.wait(retry, 10)
            finally:
                await queue.close()

        _drive(body())


# --------------------------------------------------------------------------
# Rate limiting
# --------------------------------------------------------------------------


class TestRateLimiter:
    def test_burst_then_deny_then_refill(self):
        clock = [0.0]
        limiter = RateLimiter(
            capacity=2, refill_per_s=1.0, clock=lambda: clock[0]
        )
        assert limiter.check("alice").allowed
        assert limiter.check("alice").allowed
        denied = limiter.check("alice")
        assert not denied.allowed
        assert denied.retry_after == pytest.approx(1.0)
        assert limiter.rejected == 1
        clock[0] = 1.0  # one token refilled
        assert limiter.check("alice").allowed
        assert not limiter.check("alice").allowed

    def test_clients_are_isolated(self):
        clock = [0.0]
        limiter = RateLimiter(
            capacity=1, refill_per_s=0.0, clock=lambda: clock[0]
        )
        assert limiter.check("alice").allowed
        assert not limiter.check("alice").allowed
        assert limiter.check("bob").allowed  # bob has his own bucket

    def test_zero_refill_reports_finite_retry(self):
        limiter = RateLimiter(capacity=1, refill_per_s=0.0, clock=lambda: 0.0)
        limiter.check("c")
        decision = limiter.check("c")
        assert not decision.allowed and decision.retry_after > 0

    def test_client_table_is_bounded(self):
        limiter = RateLimiter(
            capacity=1, refill_per_s=1.0, max_clients=4, clock=lambda: 0.0
        )
        for i in range(20):
            limiter.check(f"client-{i}")
        assert len(limiter) <= 4


class TestServeCli:
    """``serve`` declares nothing of its own: every flag is a
    ``ServiceConfig`` field and defaults to the field's default."""

    @pytest.fixture
    def served(self, monkeypatch):
        from repro.harness.cli import serve

        configs = []
        monkeypatch.setattr(serve, "run_server", configs.append)

        def config_of(argv):
            assert serve.serve_main(argv) == 0
            (config,) = configs
            return config

        return config_of

    def test_no_flags_is_the_default_config(self, served):
        from repro.service.app import ServiceConfig

        assert served([]) == ServiceConfig()

    def test_every_flag_sets_its_field(self, served, tmp_path):
        from repro.service.app import ServiceConfig

        assert served([
            "--host", "0.0.0.0", "--port", "0", "--workers", "3",
            "--processes", "2", "--store", str(tmp_path),
            "--lru-entries", "0", "--rate", "2.5", "--burst", "7",
            "--job-deadline", "1.5", "--job-retries", "0",
            "--drain-timeout", "0.25",
        ]) == ServiceConfig(
            host="0.0.0.0", port=0, workers=3, processes=2,
            store_root=str(tmp_path), lru_entries=0, rate_refill_per_s=2.5,
            rate_capacity=7.0, job_deadline_s=1.5, job_retries=0,
            drain_timeout=0.25,
        )
