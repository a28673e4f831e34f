"""``python -m repro.harness trace`` — one traced simulation on disk."""

from __future__ import annotations

import argparse
import pathlib
import shutil

from ...hw import DEFAULT_ENGINE
from ...kernels import KERNELS_BY_NAME
from ...obs.emit import EnvelopeWriter, run_key, sim_envelope
from ...telemetry import MemoryTraceSink, analyze, dump_vcd, to_chrome_trace
from ..report import format_bottlenecks, format_stall_breakdown
from ..runner import run_backend
from .options import (
    _add_max_cycles,
    _add_store_argument,
    _add_workers,
    _positive_int,
)


def trace_main(argv: list[str]) -> int:
    """``python -m repro.harness trace <kernel>`` — traced simulation."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness trace",
        description="Run one kernel with cycle tracing enabled and write "
        "a chrome://tracing JSON, a VCD waveform, and a stall/bottleneck "
        "analysis.",
    )
    parser.add_argument(
        "kernel", choices=sorted(KERNELS_BY_NAME),
        help="kernel to trace",
    )
    parser.add_argument(
        "--backend", default="cgpa-p1",
        choices=["legup", "cgpa-p1", "cgpa-p2", "cgpa-none"],
        help="hardware backend to trace (default: cgpa-p1)",
    )
    _add_workers(parser, 4, "parallel-stage worker count (paper default: 4)")
    parser.add_argument(
        "--fifo-depth", type=_positive_int, default=16,
        help="FIFO entries per channel (paper default: 16)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("traces"),
        help="output directory (default: ./traces); the chrome trace "
        "JSON there is a copy of the --store artifact",
    )
    _add_store_argument(parser)
    _add_max_cycles(
        parser,
        help="simulated-cycle budget; a run exceeding it fails with a "
        "one-line CycleBudgetExceeded diagnosis (default: 500M)",
    )
    args = parser.parse_args(argv)

    spec = KERNELS_BY_NAME[args.kernel]
    sink = MemoryTraceSink()
    result = run_backend(
        spec, args.backend, n_workers=args.workers,
        fifo_depth=args.fifo_depth, sink=sink, max_cycles=args.max_cycles,
    )
    sim = result.sim
    assert sim is not None  # hardware backends always carry a SimReport

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{spec.name}_{args.backend}"
    trace_path = args.out / f"{stem}.trace.json"
    vcd_path = args.out / f"{stem}.vcd"
    analysis_path = args.out / f"{stem}.bottleneck.txt"

    # Traces have no JobRequest kind (they are a CLI-only artifact), but
    # they are content-addressed with the same discipline: everything
    # that determines the trace participates in the key.
    trace_key = run_key(
        "trace", spec, backend=args.backend, n_workers=args.workers,
        fifo_depth=args.fifo_depth, engine=DEFAULT_ENGINE,
        max_cycles=args.max_cycles,
    )
    stored = EnvelopeWriter(args.store).publish_run(
        trace_key, to_chrome_trace(sink),
        sim_envelope(
            sim, kernel=spec.name, engine=DEFAULT_ENGINE,
            config_hash=trace_key, backend=args.backend,
            area=result.area, power=result.power,
        ),
    )
    # Older runs left a symlink into the store here; never write through it.
    trace_path.unlink(missing_ok=True)
    shutil.copyfile(stored, trace_path)
    dump_vcd(sink, str(vcd_path))
    analysis = analyze(sim)
    analysis_text = (
        format_stall_breakdown(sim, kernel=spec.name)
        + "\n\n"
        + format_bottlenecks(analysis)
    )
    analysis_path.write_text(analysis_text + "\n")

    print(f"{spec.name} on {args.backend}: {sim.cycles} cycles "
          f"({sim.invocations} invocations)")
    print(f"  chrome trace : {trace_path}  (open in chrome://tracing)")
    print(f"  vcd waveform : {vcd_path}")
    print(f"  analysis     : {analysis_path}")
    print(f"  artifact     : {trace_key[:12]}… in {args.store}")
    print()
    print(analysis_text)
    return 0
