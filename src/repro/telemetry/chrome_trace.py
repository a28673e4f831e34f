"""chrome://tracing (Trace Event Format) exporter.

Converts a recorded :class:`~repro.telemetry.events.MemoryTraceSink` into
the JSON object format understood by ``chrome://tracing`` and Perfetto:
one thread track per worker (complete "X" events, one per category span),
one counter track per FIFO queue (occupancy over time), and a memory
track with one event per cache miss.  Cycle numbers map directly to
microsecond timestamps so one trace-viewer tick is one simulated cycle.
"""

from __future__ import annotations

from .events import CycleCategory, MemoryTraceSink

#: Process ids for the three track groups.
PID_WORKERS = 1
PID_FIFOS = 2
PID_CACHE = 3

#: Stable viewer colours per category (Trace Event ``cname`` values).
_CNAME: dict[CycleCategory, str] = {
    CycleCategory.COMPUTE: "thread_state_running",
    CycleCategory.CACHE: "thread_state_iowait",
    CycleCategory.FIFO_FULL: "terrible",
    CycleCategory.FIFO_EMPTY: "bad",
    CycleCategory.JOIN: "thread_state_sleeping",
    CycleCategory.IDLE: "grey",
}


def _metadata(pid: int, name: str) -> dict:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def _thread_name(pid: int, tid: int, name: str) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def to_chrome_trace(trace: MemoryTraceSink) -> dict:
    """Build the Trace Event Format object for a recorded run."""
    trace.flush()
    events: list[dict] = [
        _metadata(PID_WORKERS, "workers"),
        _metadata(PID_FIFOS, "fifo buffers"),
        _metadata(PID_CACHE, "cache"),
        _thread_name(PID_CACHE, 0, "shared D-cache"),
    ]

    worker_tids = {name: i for i, name in enumerate(trace.worker_names)}
    for name, tid in worker_tids.items():
        events.append(_thread_name(PID_WORKERS, tid, name))

    for span in trace.spans:
        events.append({
            "name": span.category.value,
            "cat": "worker",
            "ph": "X",
            "ts": span.start,
            "dur": span.duration,
            "pid": PID_WORKERS,
            "tid": worker_tids.setdefault(span.worker, len(worker_tids)),
            "cname": _CNAME[span.category],
        })

    for change in trace.state_changes:
        events.append({
            "name": "fsm",
            "cat": "fsm",
            "ph": "i",
            "s": "t",
            "ts": change.cycle,
            "pid": PID_WORKERS,
            "tid": worker_tids.setdefault(change.worker, len(worker_tids)),
            "args": {"block": change.block, "state": change.state},
        })

    for sample in trace.occupancy:
        events.append({
            "name": f"{sample.fifo}[q{sample.queue}]",
            "cat": "fifo",
            "ph": "C",
            "ts": sample.cycle,
            "pid": PID_FIFOS,
            "tid": 0,
            "args": {"occupancy": sample.occupancy},
        })

    for access in trace.cache_accesses:
        if access.hit:
            continue  # hits are too dense to draw; the breakdown has them
        events.append({
            "name": "store miss" if access.is_write else "load miss",
            "cat": "cache",
            "ph": "X",
            "ts": access.cycle,
            "dur": max(access.latency, 1),
            "pid": PID_CACHE,
            "tid": 0,
            "args": {"addr": access.addr},
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro.telemetry",
            "time_unit": "1 ts = 1 cycle",
            "total_cycles": trace.total_cycles,
        },
    }
