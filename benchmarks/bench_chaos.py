"""Chaos recovery: what crashes cost and what checkpoints save.

Two measurements against the fault-tolerance layer:

* **crash recovery** — the same fault-resilience sweep twice on a
  2-process fleet: clean, then with a ``kill-worker`` chaos plan that
  SIGKILLs a pool worker mid-task.  The supervised retry + pool respawn
  must recover to a byte-identical report; the tracked number is the
  recovery overhead (chaos wall / clean wall).
* **resume replay** — the same sweep twice against one checkpoint
  store: cold (every plan computed), then again with a fresh store
  handle (every plan replayed from its checkpoint).  The tracked
  number is the replay speedup (cold wall / resumed wall), with the
  resumed report byte-identical to the cold one.

Both chaos events and checkpoints are deterministic, so the recovery
and replay paths are as reproducible as the clean path.  Pass ``--json
<path>`` for BENCH_chaos.json tracking.
"""

import json
import time

import pytest

from conftest import emit, emit_json

from repro.fleet import chaos
from repro.faults.sweep import resilience_sweep
from repro.kernels import KERNELS_BY_NAME
from repro.service.store import ArtifactStore

KERNEL = "ks"
N_PLANS = 6
SEED = 20140601  # DAC'14


def _sweep(**kwargs) -> tuple[float, str]:
    """One resilience sweep; returns (wall_s, canonical report JSON)."""
    spec = KERNELS_BY_NAME[KERNEL]
    start = time.perf_counter()
    report = resilience_sweep(
        spec, n_plans=N_PLANS, seed=SEED, processes=2, **kwargs
    )
    wall_s = time.perf_counter() - start
    return wall_s, json.dumps(report.to_dict(), sort_keys=True)


def test_chaos_recovery_and_resume(results_dir, json_path, tmp_path,
                                   monkeypatch):
    clean_wall, clean_json = _sweep()

    # -- crash recovery: SIGKILL one pool worker mid-sweep ----------------
    plan_path = tmp_path / "plan.json"
    chaos.write_plan(
        str(plan_path), [{"kind": "kill-worker", "task_index": 0}]
    )
    monkeypatch.setattr(chaos, "_PLAN_CACHE", None)
    monkeypatch.setenv(chaos.ENV_VAR, str(plan_path))
    chaos_wall, chaos_json = _sweep()
    monkeypatch.delenv(chaos.ENV_VAR)
    monkeypatch.setattr(chaos, "_PLAN_CACHE", None)
    assert (plan_path.parent / "plan.json.markers" / "ev0").exists(), (
        "chaos kill-worker event never fired"
    )
    assert chaos_json == clean_json, (
        "report diverged after worker crash + supervised retry"
    )

    # -- resume replay: checkpointed sweep, then a cold-reader resume -----
    ckpt_root = tmp_path / "ckpt"
    cold_wall, cold_json = _sweep(store=ArtifactStore(ckpt_root))
    resumed_wall, resumed_json = _sweep(store=ArtifactStore(ckpt_root))
    assert resumed_json == cold_json, "resumed report diverged"
    assert cold_json == clean_json, "checkpointing perturbed the report"

    recovery_overhead = chaos_wall / clean_wall
    replay_speedup = cold_wall / resumed_wall
    lines = [
        f"chaos recovery + resume replay ({KERNEL}, {N_PLANS} plans, "
        f"2 processes)",
        "",
        f"{'run':<22s} {'wall':>8s}",
        f"{'clean':<22s} {clean_wall:>7.2f}s",
        f"{'kill-worker chaos':<22s} {chaos_wall:>7.2f}s "
        f"({recovery_overhead:.2f}x clean; byte-identical)",
        f"{'cold + checkpoints':<22s} {cold_wall:>7.2f}s",
        f"{'resumed':<22s} {resumed_wall:>7.2f}s "
        f"({replay_speedup:.1f}x faster; byte-identical)",
    ]
    emit(results_dir, "chaos_recovery", "\n".join(lines))

    emit_json(results_dir, json_path, "chaos_recovery", {
        "kernel": KERNEL,
        "plans": N_PLANS,
        "processes": 2,
        "clean_wall_s": clean_wall,
        "chaos_wall_s": chaos_wall,
        "recovery_overhead": recovery_overhead,
        "cold_wall_s": cold_wall,
        "resumed_wall_s": resumed_wall,
        "replay_speedup": replay_speedup,
        "byte_identical": True,
    }, kernel=KERNEL)

    # Replaying checkpoints must actually be cheaper than recomputing.
    if resumed_wall >= cold_wall:
        pytest.fail(
            f"resume replay ({resumed_wall:.2f}s) not faster than the "
            f"cold sweep ({cold_wall:.2f}s)"
        )
