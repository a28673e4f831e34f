"""Tests for the run-record spine: envelopes, emitters, query, dashboard.

Covers the serialisation contract (bit-exact round-trip, unknown-key
tolerance, future-schema refusal), the writer (one append-only journal
line per envelope, nothing in the store), the one job builder, ingestion
and query combinators, regression diffs, byte-identical regeneration of
the per-subsystem text reports from envelopes alone, the HTML dashboard,
and the ``python -m repro.harness obs`` CLI.
"""

import json

import pytest

from repro.errors import CgpaError
from repro.harness.__main__ import main
from repro.harness.report import format_pareto, format_stall_breakdown
from repro.harness.runner import run_backend
from repro.hw import DEFAULT_ENGINE
from repro.kernels import KERNELS_BY_NAME
from repro.obs import (
    ENVELOPE_KINDS,
    SCHEMA_VERSION,
    EnvelopeError,
    EnvelopeWriter,
    RunEnvelope,
    diff_envelope_sets,
    load_envelopes,
    render_dashboard,
)
from repro.obs.emit import (
    bench_envelope,
    eval_envelope,
    job_envelope,
    sim_envelope,
)
from repro.obs.query import EnvelopeSet, render_legacy_report
from repro.service.contracts import JobRequest
from repro.service.jobs import artifact_of
from repro.service.store import ArtifactStore, content_key


def make_env(kind="sim", n=0, **overrides):
    """A synthetic envelope with a deterministic timestamp/run id."""
    fields = dict(
        kind=kind,
        run_id=f"{kind}-{n:012d}",
        timestamp=f"2026-08-07T00:00:{n:02d}.000000Z",
        kernel="ks",
        engine="event",
        config_hash=f"cfg{n:04d}" + "0" * 57,
        status="ok",
        cycles=1000 + n,
    )
    fields.update(overrides)
    return RunEnvelope(**fields)


# --------------------------------------------------------------------------
# Schema contract
# --------------------------------------------------------------------------


class TestEnvelopeSchema:
    def test_round_trip_bit_exact(self):
        env = make_env(
            stall_cycles={"mem_stall": 7, "active": 3},
            total_aluts=5114,
            energy_uj=8.5,
            power_mw=21.5,
            cost_model_version=2,
            verdicts={"outcomes": {"b": 2, "a": 1}},
            payload={"cycles": 1000},
            extra={"backend": "cgpa-p1"},
        )
        wire = env.to_dict()
        # Through JSON and back: equal object, bit-exact dict.
        rebuilt = RunEnvelope.from_dict(json.loads(json.dumps(wire)))
        assert rebuilt == env
        assert rebuilt.to_dict() == wire
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
            wire, sort_keys=True
        )

    def test_nested_mappings_are_key_sorted(self):
        env = make_env(verdicts={"z": 1, "a": {"y": 2, "b": 3}})
        wire = env.to_dict()
        assert list(wire["verdicts"]) == ["a", "z"]
        assert list(wire["verdicts"]["a"]) == ["b", "y"]

    def test_unknown_keys_are_dropped(self):
        wire = make_env().to_dict()
        wire["a_future_field"] = {"anything": True}
        rebuilt = RunEnvelope.from_dict(wire)
        assert rebuilt == make_env()
        assert "a_future_field" not in rebuilt.to_dict()

    def test_missing_schema_version_is_typed_error(self):
        wire = make_env().to_dict()
        del wire["schema_version"]
        with pytest.raises(EnvelopeError, match="schema_version"):
            RunEnvelope.from_dict(wire)

    def test_newer_schema_version_refused_with_actionable_message(self):
        wire = make_env().to_dict()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(EnvelopeError) as excinfo:
            RunEnvelope.from_dict(wire)
        message = str(excinfo.value)
        assert f"v{SCHEMA_VERSION + 1}" in message
        assert f"supports up to v{SCHEMA_VERSION}" in message
        assert "upgrade" in message

    def test_envelope_error_hits_the_cli_error_boundary(self):
        assert issubclass(EnvelopeError, CgpaError)

    @pytest.mark.parametrize("mutation, needle", [
        ({"kind": "nonsense"}, "unknown kind"),
        ({"cycles": "fast"}, "cycles"),
        ({"kernel": 7}, "kernel"),
        ({"stall_cycles": [1, 2]}, "stall_cycles"),
        ({"run_id": 7}, "run_id"),
        ({"schema_version": True}, "schema_version"),
    ])
    def test_invalid_fields_raise(self, mutation, needle):
        wire = make_env().to_dict()
        wire.update(mutation)
        with pytest.raises(EnvelopeError, match=needle):
            RunEnvelope.from_dict(wire)

    def test_non_object_records_raise(self):
        with pytest.raises(EnvelopeError, match="JSON object"):
            RunEnvelope.from_dict(["not", "a", "record"])
        with pytest.raises(EnvelopeError, match="kind"):
            RunEnvelope.from_dict({"schema_version": 1})

    def test_autofilled_identity(self):
        env = RunEnvelope(kind="bench")
        assert env.run_id.startswith("bench-")
        assert env.timestamp.endswith("Z")
        env.validate()

    def test_kind_catalogue_is_stable(self):
        assert ENVELOPE_KINDS == (
            "sim", "dse-eval", "dse-sweep", "faults", "cosim", "compile",
            "service-job", "bench", "fleet",
        )

    def test_ok_and_identity(self):
        assert make_env(status="ok").ok
        assert make_env(status=None).ok
        assert not make_env(status="deadlock").ok
        env = make_env()
        assert env.identity() == (
            env.kind, env.kernel, env.engine, env.config_hash
        )


# --------------------------------------------------------------------------
# Writer: the journal, and only the journal
# --------------------------------------------------------------------------


class TestEnvelopeWriter:
    def test_write_journals_one_line_and_leaves_the_store_alone(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("ab" * 32, {"kind": "dse", "results": []})
        before = (len(store), store.lru_keys(), store.stats.writes)
        writer = EnvelopeWriter(store)
        envelopes = [make_env(n=n) for n in range(5)]
        for env in envelopes:
            writer.write(env)
        assert (len(store), store.lru_keys(), store.stats.writes) == before
        assert sorted(p.name for p in store.root.iterdir()) == [
            "ab", "envelopes.jsonl",
        ]
        lines = writer.journal_path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            env.to_dict() for env in envelopes
        ]

    def test_journal_is_append_only(self, tmp_path):
        writer = EnvelopeWriter(tmp_path)
        for n in range(3):
            writer.write(make_env(n=n))
        lines = writer.journal_path.read_text().splitlines()
        assert len(lines) == 3
        assert [json.loads(l)["run_id"] for l in lines] == [
            "sim-000000000000", "sim-000000000001", "sim-000000000002",
        ]

    def test_rerun_of_identical_config_keeps_both_records(self, tmp_path):
        writer = EnvelopeWriter(tmp_path)
        writer.write(make_env(n=1, config_hash="same"))
        writer.write(make_env(n=2, config_hash="same"))
        assert len(load_envelopes(tmp_path)) == 2

    def test_invalid_envelope_never_reaches_disk(self, tmp_path):
        writer = EnvelopeWriter(tmp_path)
        with pytest.raises(EnvelopeError):
            writer.write(make_env(cycles="fast"))
        assert not writer.journal_path.exists()

    def test_publish_run_writes_artifact_and_envelope(self, tmp_path):
        writer = EnvelopeWriter(tmp_path / "store")
        artifact = {"kind": "dse", "results": []}
        key = content_key(artifact)
        path = writer.publish_run(key, artifact, make_env(kind="dse-sweep"))
        assert path == writer.store.path(key)
        assert json.loads(path.read_text()) == artifact
        assert load_envelopes(tmp_path / "store").kinds() == ["dse-sweep"]


# --------------------------------------------------------------------------
# Ingestion
# --------------------------------------------------------------------------


class TestLoadEnvelopes:
    def test_loads_store_root_journal_and_bare_file(self, tmp_path):
        writer = EnvelopeWriter(tmp_path)
        writer.write(make_env(n=2))
        writer.write(make_env(n=1))
        from_root = load_envelopes(tmp_path)
        from_file = load_envelopes(writer.journal_path)
        assert len(from_root) == len(from_file) == 2
        # Chronologically sorted regardless of journal order.
        assert [e.run_id for e in from_root] == [
            "sim-000000000001", "sim-000000000002",
        ]

    def test_directory_of_json_files_skips_legacy_artifacts(self, tmp_path):
        (tmp_path / "env.json").write_text(json.dumps(make_env().to_dict()))
        (tmp_path / "legacy.json").write_text(json.dumps({"kind": "dse"}))
        (tmp_path / "junk.json").write_text("{nope")
        loaded = load_envelopes(tmp_path)
        assert len(loaded) == 1
        assert not loaded.errors

    def test_corrupt_journal_line_collected_or_raised(self, tmp_path):
        writer = EnvelopeWriter(tmp_path)
        writer.write(make_env())
        with open(writer.journal_path, "a") as fh:
            fh.write("{torn line\n")
        relaxed = load_envelopes(tmp_path)
        assert len(relaxed) == 1
        assert len(relaxed.errors) == 1
        assert "envelopes.jsonl:2" in relaxed.errors[0]
        with pytest.raises(EnvelopeError, match="envelopes.jsonl:2"):
            load_envelopes(tmp_path, strict=True)

    def test_future_schema_record_fails_strict_load(self, tmp_path):
        writer = EnvelopeWriter(tmp_path)
        writer.write(make_env())
        wire = make_env(n=1).to_dict()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with open(writer.journal_path, "a") as fh:
            fh.write(json.dumps(wire) + "\n")
        with pytest.raises(EnvelopeError, match="upgrade"):
            load_envelopes(tmp_path, strict=True)

    def test_missing_source_raises(self, tmp_path):
        with pytest.raises(EnvelopeError, match="no journal"):
            load_envelopes(tmp_path / "nowhere")


# --------------------------------------------------------------------------
# Query combinators
# --------------------------------------------------------------------------


@pytest.fixture()
def mixed_set():
    return EnvelopeSet([
        make_env(n=0, kind="sim", engine="event", cycles=100),
        make_env(n=1, kind="sim", engine="lockstep", cycles=100),
        make_env(n=2, kind="sim", kernel="em3d", engine="event", cycles=900),
        make_env(n=3, kind="dse-sweep", cycles=500),
        make_env(n=4, kind="faults", status="ok", cycles=None),
        make_env(n=5, kind="bench", kernel=None, engine=None, cycles=None),
    ], source="test")


class TestEnvelopeSet:
    def test_filter_by_typed_fields(self, mixed_set):
        assert len(mixed_set.filter(kind="sim")) == 3
        assert len(mixed_set.filter(kind="sim", kernel="ks")) == 2
        assert len(mixed_set.filter(engine="lockstep")) == 1
        assert len(mixed_set.filter(status="ok")) == 6
        assert len(mixed_set.filter(config_hash="cfg0002")) == 1

    def test_filter_by_time_range(self, mixed_set):
        since = mixed_set.filter(since="2026-08-07T00:00:04")
        assert [e.run_id for e in since] == [
            "faults-000000000004", "bench-000000000005",
        ]
        until = mixed_set.filter(until="2026-08-07T00:00:01.000000Z")
        assert len(until) == 2
        # A date prefix covers the whole day it abbreviates.
        assert len(mixed_set.filter(until="2026-08-07")) == 6
        assert len(mixed_set.filter(until="2026-08-06")) == 0

    def test_group_by_and_aggregate(self, mixed_set):
        groups = mixed_set.group_by("kind", "engine")
        assert ("sim", "event") in groups
        assert len(groups[("sim", "event")]) == 2
        stats = mixed_set.filter(kind="sim").aggregate("cycles")
        assert stats["runs"] == 3 and stats["measured"] == 3
        assert stats["min"] == 100 and stats["max"] == 900
        assert stats["latest"] == 900

    def test_aggregate_counts_unmeasured_runs(self, mixed_set):
        stats = mixed_set.aggregate("cycles")
        assert stats["runs"] == 6 and stats["measured"] == 4

    def test_unknown_keys_are_typed_errors(self, mixed_set):
        with pytest.raises(EnvelopeError, match="group-by"):
            mixed_set.group_by("hostname")
        with pytest.raises(EnvelopeError, match="metric"):
            mixed_set.aggregate("vibes")

    def test_latest_by_identity(self):
        first = make_env(n=1, cycles=10, config_hash="same")
        rerun = make_env(n=2, cycles=20, config_hash="same")
        latest = EnvelopeSet([first, rerun]).latest_by_identity()
        assert latest[first.identity()] is rerun

    def test_introspection(self, mixed_set):
        assert mixed_set.kinds() == ["bench", "dse-sweep", "faults", "sim"]
        assert mixed_set.kernels() == ["em3d", "ks"]
        assert mixed_set.engines() == ["event", "lockstep"]


# --------------------------------------------------------------------------
# Regression diffs
# --------------------------------------------------------------------------


class TestDiff:
    def test_flags_injected_regression(self):
        base = EnvelopeSet([make_env(n=1, cycles=1000, config_hash="c1")])
        new = EnvelopeSet([make_env(n=2, cycles=1250, config_hash="c1")])
        (diff,) = diff_envelope_sets(base, new)
        assert diff.regressed
        assert diff.delta == 250
        assert diff.ratio == pytest.approx(0.25)
        assert "REGRESSED" in diff.format()

    def test_threshold_tolerates_slack(self):
        base = EnvelopeSet([make_env(n=1, cycles=1000, config_hash="c1")])
        new = EnvelopeSet([make_env(n=2, cycles=1010, config_hash="c1")])
        (diff,) = diff_envelope_sets(base, new, threshold=0.02)
        assert not diff.regressed and "unchanged" in diff.format()

    def test_improvements_and_sort_order(self):
        base = EnvelopeSet([
            make_env(n=1, cycles=1000, config_hash="c1"),
            make_env(n=2, kernel="em3d", cycles=1000, config_hash="c2"),
        ])
        new = EnvelopeSet([
            make_env(n=3, cycles=900, config_hash="c1"),
            make_env(n=4, kernel="em3d", cycles=2000, config_hash="c2"),
        ])
        diffs = diff_envelope_sets(base, new)
        assert [d.regressed for d in diffs] == [True, False]
        assert "improved" in diffs[1].format()

    def test_unmatched_identities_are_skipped(self):
        base = EnvelopeSet([make_env(n=1)])
        new = EnvelopeSet([make_env(n=2, kernel="em3d")])
        assert diff_envelope_sets(base, new) == []

    def test_unknown_metric_raises(self):
        with pytest.raises(EnvelopeError, match="metric"):
            diff_envelope_sets(EnvelopeSet([]), EnvelopeSet([]), metric="x")


# --------------------------------------------------------------------------
# Real emitters: SimReport round-trip and byte-identical legacy reports
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ks_run():
    return run_backend(KERNELS_BY_NAME["ks"], "cgpa-p1")


class TestSimReportRoundTrip:
    def test_to_dict_round_trips_bit_exactly(self, ks_run):
        sim = ks_run.sim
        wire = sim.to_dict()
        rebuilt = type(sim).from_dict(json.loads(json.dumps(wire)))
        assert rebuilt.to_dict() == wire
        assert rebuilt.cycles == sim.cycles
        assert rebuilt.worker_stats == sim.worker_stats
        assert rebuilt.stall_breakdown == sim.stall_breakdown
        assert rebuilt.liveouts == sim.liveouts

    def test_public_dict_is_complete(self, ks_run):
        wire = ks_run.sim.to_dict()
        for field in ("cycles", "return_value", "invocations",
                      "worker_stats", "cache_stats", "fifo_stats",
                      "liveouts", "liveouts_checksum"):
            assert field in wire, field
        assert wire["liveouts_checksum"] == ks_run.sim.liveouts_checksum()

    def test_checksum_is_an_equivalence_probe(self, ks_run):
        rebuilt = type(ks_run.sim).from_dict(ks_run.sim.to_dict())
        assert rebuilt.liveouts_checksum() == ks_run.sim.liveouts_checksum()
        mutated = type(ks_run.sim).from_dict(ks_run.sim.to_dict())
        mutated.return_value = (ks_run.sim.return_value or 0) + 1
        assert mutated.liveouts_checksum() != ks_run.sim.liveouts_checksum()

    def test_sim_envelope_regenerates_stall_report(self, ks_run):
        env = sim_envelope(
            ks_run.sim, kernel="ks", engine="event",
            area=ks_run.area, power=ks_run.power, backend="cgpa-p1",
        )
        env.validate()
        assert env.cycles == ks_run.sim.cycles
        assert env.total_aluts == ks_run.area.total_aluts
        assert sum(env.stall_cycles.values()) == sum(
            sum(c.values()) for c in ks_run.sim.stall_breakdown.values()
        )
        assert render_legacy_report(env) == format_stall_breakdown(
            ks_run.sim, kernel="ks"
        )


@pytest.fixture(scope="module")
def ks_sweep(tmp_path_factory):
    from repro.dse import ConfigSpace, Explorer, GridStrategy

    store = tmp_path_factory.mktemp("obs-sweep-store")
    writer = EnvelopeWriter(store)
    with Explorer(
        KERNELS_BY_NAME["ks"],
        ConfigSpace(policies=["p1"], n_workers=[1], fifo_depths=[4, 16]),
        envelopes=writer,
    ) as explorer:
        sweep = explorer.run(GridStrategy())
    return sweep, writer


#: The ``dse`` request whose space :func:`ks_sweep` explores.
KS_SWEEP_REQUEST = JobRequest.make("dse", "ks", {
    "policies": ["p1"], "n_workers": [1], "fifo_depths": [4, 16],
})


class TestDseEmission:
    def test_explorer_journals_each_fresh_eval(self, ks_sweep):
        sweep, writer = ks_sweep
        loaded = load_envelopes(writer.store.root)
        evals = loaded.filter(kind="dse-eval")
        assert len(evals) == len(sweep.results) == 2
        assert [e.cycles for e in evals] == [r.cycles for r in sweep.results]
        assert all(e.config_hash for e in evals)

    def test_pareto_report_regenerates_byte_identically(self, ks_sweep):
        sweep, writer = ks_sweep
        env = job_envelope(KS_SWEEP_REQUEST, artifact_of("dse", sweep))
        writer.write(env)
        assert env.kind == "dse-sweep"
        assert env.config_hash == KS_SWEEP_REQUEST.key
        assert env.engine == DEFAULT_ENGINE
        # The deterministic sweep artifact is the envelope payload...
        assert env.payload == {"kind": "dse", **sweep.to_json_dict()}
        # ...and the Pareto table rendered from the reloaded envelope is
        # byte-identical to rendering that artifact.
        reloaded = load_envelopes(writer.store.root).filter(kind="dse-sweep")
        from repro.dse.explore import SweepResult

        legacy = format_pareto(SweepResult.from_json_dict(
            json.loads(json.dumps(sweep.to_json_dict()))
        ))
        assert render_legacy_report(reloaded[0]) == legacy
        assert "Pareto frontier" in legacy

    def test_sweep_envelope_verdicts(self, ks_sweep):
        sweep, _ = ks_sweep
        env = job_envelope(KS_SWEEP_REQUEST, artifact_of("dse", sweep))
        assert env.verdicts["n_points"] == 2
        assert env.verdicts["status_counts"] == sweep.status_counts()
        assert env.verdicts["frontier_size"] == len(sweep.frontier())
        assert env.cycles == min(r.cycles for r in sweep.results if r.ok)
        best = min((r for r in sweep.results if r.ok), key=lambda r: r.cycles)
        assert env.stall_cycles == best.stall_cycles
        assert (env.total_aluts, env.energy_uj, env.power_mw) == (
            best.total_aluts, best.energy_uj, best.power_mw)
        assert env.status == "ok" and env.extra == {"strategy": "grid"}

    def test_eval_envelope_carries_cost_model_outputs(self, ks_sweep):
        sweep, _ = ks_sweep
        result = sweep.results[0]
        env = eval_envelope(result, kernel="ks", engine="event")
        assert env.total_aluts == result.total_aluts
        assert env.payload == result.to_dict()
        assert env.status == result.status


@pytest.fixture(scope="module")
def ks_faults():
    from repro.faults.sweep import resilience_sweep

    return resilience_sweep(KERNELS_BY_NAME["ks"], n_plans=2, seed=0)


class TestFaultsEmission:
    def test_report_round_trips_and_formats_byte_identically(self, ks_faults):
        report = ks_faults
        rebuilt = type(report).from_dict(json.loads(json.dumps(report.to_dict())))
        assert rebuilt.format() == report.format()
        assert rebuilt.to_dict() == report.to_dict()

    def test_faults_envelope_verdicts_match_report(self, ks_faults):
        request = JobRequest.make("faults", "ks", {"plans": 2, "seed": 0})
        env = job_envelope(request, artifact_of("faults", ks_faults))
        env.validate()
        assert env.kind == "faults" and env.status == "ok"
        assert env.engine == DEFAULT_ENGINE
        assert env.cycles == ks_faults.baseline_cycles
        assert env.extra == {"seed": 0, "n_plans": 2}
        assert (env.verdicts["corruptions_triggered"],
                env.verdicts["corruptions_detected"]) == (
            ks_faults.corruptions_triggered, ks_faults.corruptions_detected)
        assert env.verdicts["timing_correct"] == ks_faults.timing_correct
        assert env.verdicts["hangs_diagnosed"] == ks_faults.hangs_diagnosed
        assert sum(env.verdicts["outcomes"].values()) == len(ks_faults.records)
        assert render_legacy_report(env) == ks_faults.format()


class TestOtherBuilders:
    def test_cosim_envelope(self):
        from repro.vsim.cosim import CosimReport

        report = CosimReport(
            kernel="ks", policy="p1", n_workers=2, fifo_depth=16,
            setup_args=[], oracle_result=7,
        )
        request = JobRequest.make("rtl", "ks", {"n_workers": 2})
        env = job_envelope(request, artifact_of("rtl", report))
        env.validate()
        assert env.kind == "cosim" and env.engine == "vsim"
        assert env.config_hash == request.key
        assert env.status == "ok"
        assert env.payload["kind"] == "rtl"
        assert env.verdicts == {
            "ok": True, "rounds": 0, "instances": 0, "rounds_ok": 0,
        }
        assert env.extra == {"policy": "p1"}
        failing = {**env.payload, "ok": False}
        assert job_envelope(request, failing).status == "mismatch"

    def test_job_envelope_carries_the_artifact_and_the_callers_extra(self):
        request = JobRequest.make("simulate", "ks")
        artifact = {"kind": "simulate", "status": "ok", "cycles": 123,
                    "total_aluts": 9, "stall_cycles": {"active": 5}}
        env = job_envelope(request, artifact, {"job_id": "job-1"})
        env.validate()
        assert env.kind == "dse-eval" and env.kernel == "ks"
        assert env.engine == DEFAULT_ENGINE
        assert env.config_hash == request.key
        assert (env.status, env.cycles, env.total_aluts) == ("ok", 123, 9)
        assert env.stall_cycles == {"active": 5}
        assert env.payload == artifact  # inline, not by reference
        assert env.extra == {"job_id": "job-1"}

    def test_compile_job_envelope(self):
        request = JobRequest.make("compile", "ks")
        env = job_envelope(request, {"kind": "compile", "total_aluts": 77})
        env.validate()
        assert (env.kind, env.status, env.engine) == ("compile", "ok", None)
        assert env.total_aluts == 77 and env.cycles is None

    @pytest.mark.parametrize("kind, envelope_kind", [
        ("compile", "compile"), ("simulate", "dse-eval"), ("dse", "dse-sweep"),
        ("faults", "faults"), ("rtl", "cosim"),
    ])
    @pytest.mark.parametrize("artifact", [
        {}, {"n": 1},
        # Every typed source present, every one ill-typed.
        {"status": 7, "cycles": "fast", "stall_cycles": [1], "total_aluts": 1.5,
         "energy_uj": "x", "status_counts": [], "results": [7, {"status": "ok"}],
         "frontier": 3, "n_points": True, "strategy": 4, "records": [None, {}],
         "baseline_cycles": 2.5, "seed": "s", "ok": "yes", "rounds": [1, {}],
         "total_cycles": None, "policy": []},
    ])
    def test_job_envelope_tolerates_any_artifact(
        self, kind, envelope_kind, artifact, tmp_path
    ):
        """It runs on the service's event loop, over whatever a custom
        executor returned: a hole in the artifact is a hole in the record."""
        env = job_envelope(JobRequest.make(kind, "ks"), artifact)
        assert env.kind == envelope_kind
        assert env.cycles is None and env.stall_cycles == {}
        assert env.total_aluts is None and env.energy_uj is None
        assert env.payload == artifact
        EnvelopeWriter(tmp_path).write(env)  # schema-valid, serialisable
        (loaded,) = load_envelopes(tmp_path, strict=True)
        assert loaded == env

    def test_bench_envelope_identity_is_the_figure(self):
        a = bench_envelope("sim_speed", {"best": 3.5})
        b = bench_envelope("sim_speed", {"best": 3.7})
        c = bench_envelope("dse_speed", {"warm": 9.0})
        assert a.config_hash == b.config_hash != c.config_hash
        assert a.extra["figure"] == "sim_speed"
        a.validate()


# --------------------------------------------------------------------------
# Dashboard
# --------------------------------------------------------------------------


class TestDashboard:
    def test_renders_every_section_self_contained(self):
        envelopes = EnvelopeSet([
            make_env(n=0, kind="sim", engine="event",
                     stall_cycles={"active": 70, "mem_stall": 30}),
            make_env(n=1, kind="sim", engine="lockstep", cycles=1000),
            make_env(n=2, kind="dse-sweep",
                     verdicts={"status_counts": {"ok": 4}, "n_points": 4,
                               "frontier_size": 2},
                     extra={"strategy": "grid"}),
            make_env(n=3, kind="faults",
                     verdicts={"timing_correct": 2, "hangs_diagnosed": 1,
                               "corruptions_triggered": 1,
                               "corruptions_detected": 1, "outcomes": {}},
                     extra={"seed": 0, "n_plans": 2}),
            make_env(n=4, kind="cosim", engine="vsim",
                     verdicts={"ok": True, "rounds": 3, "rounds_ok": 3,
                               "instances": 5},
                     extra={"policy": "p1"}),
            make_env(n=5, kind="service-job",
                     verdicts={"job_kind": "simulate", "cached": False}),
            make_env(n=6, kind="bench", kernel=None, engine=None,
                     cycles=None, payload={"speedup": 3.1},
                     extra={"figure": "sim_speed"}),
            make_env(n=7, kind="bench", kernel=None, engine=None,
                     cycles=None, payload={"speedup": 3.4},
                     extra={"figure": "sim_speed"}),
        ], errors=["journal:9: torn record"], source="synthetic")
        page = render_dashboard(envelopes, title="obs <test>")
        for heading in ("Overview", "Simulations", "Engine equivalence",
                        "Design-space sweeps", "Fault sweeps",
                        "RTL co-simulation", "Service jobs", "Benchmarks"):
            assert f"<h2>{heading}</h2>" in page
        # Self-contained: no external fetches of any kind.
        assert "http://" not in page and "https://" not in page
        assert "src=" not in page
        # Escaping, errors box, sparkline, stall bar all present.
        assert "obs &lt;test&gt;" in page
        assert "torn record" in page
        assert "<svg" in page and "polyline" in page
        assert 'class="bar"' in page
        # Engines agree on ks -> equivalence verdict is green.
        assert "agree" in page and "DIVERGE" not in page

    def test_service_jobs_table_counts_old_and_new_records(self, tmp_path):
        """A journal begun by a service that wrote by-reference
        ``service-job`` lines and continued by one that writes the job's
        own record: both load strictly, both are tallied."""
        key = "ab" * 32
        old_line = {
            "schema_version": 1, "run_id": "service-job-0123456789ab",
            "timestamp": "2026-08-07T00:00:00.000000Z", "kind": "service-job",
            "kernel": "ks", "engine": "event", "config_hash": key,
            "status": "done", "cycles": 123, "stall_cycles": {},
            "total_aluts": None, "energy_uj": None, "power_mw": None,
            "cost_model_version": None,
            "verdicts": {"cached": False, "job_kind": "simulate"},
            "payload": {"artifact_key": key, "job": {"job_id": "job-1"}},
            "extra": {},
        }
        writer = EnvelopeWriter(tmp_path)
        writer.journal_path.write_text(json.dumps(old_line) + "\n")
        service = {"job_id": "job-00000001", "attempts": 1, "submissions": 1}
        request = JobRequest.make("simulate", "ks")
        writer.write(job_envelope(
            request, {"status": "ok", "cycles": 123}, service))
        failed = job_envelope(request, {}, {**service, "error": "deadlock"})
        failed.status = "failed"
        writer.write(failed)
        # The same job run by the CLI is no service job.
        writer.write(job_envelope(request, {"status": "ok", "cycles": 123}))

        loaded = load_envelopes(tmp_path, strict=True)
        assert len(loaded) == 4 and not loaded.errors
        assert loaded[0].to_dict() == old_line
        page = render_dashboard(loaded)
        table = page.split("<h2>Service jobs</h2>")[1].split("</table>")[0]
        assert table.count("<tr>") == 4  # header + done/ok/failed rows
        for status in ("done", "ok", "failed"):
            assert (f'<td>simulate</td><td>{status}</td>'
                    f'<td class="num">1</td>') in table

    def test_divergence_is_flagged(self):
        envelopes = EnvelopeSet([
            make_env(n=0, engine="event", cycles=100),
            make_env(n=1, engine="lockstep", cycles=999),
        ])
        assert "DIVERGE" in render_dashboard(envelopes)

    def test_empty_journal_renders(self):
        page = render_dashboard(EnvelopeSet([], source="empty"))
        assert "journal is empty" in page


# --------------------------------------------------------------------------
# CLI: python -m repro.harness obs query | diff | report
# --------------------------------------------------------------------------


@pytest.fixture()
def journal(tmp_path):
    writer = EnvelopeWriter(tmp_path / "store")
    for n in range(3):
        writer.write(make_env(n=n, cycles=1000 + n))
    writer.write(make_env(n=3, kind="dse-sweep", cycles=400))
    return tmp_path / "store"


class TestObsCli:
    def test_query_lists_and_filters(self, journal, capsys):
        assert main(["obs", "query", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "4/4 envelopes" in out
        assert main(["obs", "query", str(journal), "--kind", "sim"]) == 0
        assert "3/4 envelopes" in capsys.readouterr().out

    def test_query_json_round_trips(self, journal, capsys):
        assert main(["obs", "query", str(journal), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [RunEnvelope.from_dict(r).kind for r in records] == [
            "sim", "sim", "sim", "dse-sweep",
        ]

    def test_query_group_by_aggregates(self, journal, capsys):
        assert main([
            "obs", "query", str(journal), "--group-by", "kind",
            "--metric", "cycles",
        ]) == 0
        out = capsys.readouterr().out
        assert "sim: 3 run(s)" in out and "min=1000" in out

    def test_strict_query_fails_on_torn_record(self, journal, capsys):
        with open(journal / "envelopes.jsonl", "a") as fh:
            fh.write("{torn\n")
        assert main(["obs", "query", str(journal), "--strict"]) == 1
        assert "error:" in capsys.readouterr().err
        # Relaxed mode warns but succeeds.
        assert main(["obs", "query", str(journal)]) == 0
        assert "skipped invalid record" in capsys.readouterr().err

    def test_diff_flags_injected_regression(self, journal, tmp_path, capsys):
        lines = (journal / "envelopes.jsonl").read_text().splitlines()
        regressed = []
        for line in lines:
            record = json.loads(line)
            if record["kind"] == "dse-sweep":
                record["cycles"] = int(record["cycles"] * 1.5)
            regressed.append(json.dumps(record, sort_keys=True))
        candidate = tmp_path / "new.jsonl"
        candidate.write_text("\n".join(regressed) + "\n")

        assert main(["obs", "diff", str(journal), str(candidate)]) == 0
        out = capsys.readouterr().out
        assert "1 regressed" in out and "REGRESSED" in out
        assert main([
            "obs", "diff", str(journal), str(candidate),
            "--fail-on-regression",
        ]) == 1
        # Identical journals: all identities unchanged.
        assert main([
            "obs", "diff", str(journal), str(journal),
            "--fail-on-regression",
        ]) == 0

    def test_report_renders_dashboard(self, journal, tmp_path, capsys):
        out_path = tmp_path / "dash" / "index.html"
        assert main([
            "obs", "report", str(journal), "--out", str(out_path),
            "--title", "spine",
        ]) == 0
        page = out_path.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "<title>spine</title>" in page
        assert "dash" in capsys.readouterr().out

    def test_query_report_requires_reportable_kind(self, tmp_path, capsys):
        writer = EnvelopeWriter(tmp_path)
        writer.write(make_env(kind="bench", kernel=None, engine=None,
                              cycles=None, extra={"figure": "x"}))
        assert main(["obs", "query", str(tmp_path), "--report"]) == 1
        assert "no matching envelope" in capsys.readouterr().err
