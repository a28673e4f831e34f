"""Tests for the telemetry subsystem: tracing, exporters, analysis.

The load-bearing property is *cycle conservation*: for every worker, the
per-category stall counts must sum exactly to the run's total cycles —
both in the simulator's own counters (always on) and in a recorded trace
(spans cover every cycle exactly once).
"""

import io
import json

import pytest

from repro.errors import SimulationError
from repro.hw import AcceleratorSystem, FifoBuffer
from repro.interp import Memory
from repro.ir import (
    Consume,
    F64,
    FunctionType,
    I32,
    IRBuilder,
    Module,
    ParallelFork,
    ParallelJoin,
    Produce,
    VOID,
)
from repro.ir.instructions import BinaryOp
from repro.ir.primitives import ChannelPlan
from repro.ir.values import Constant
from repro.pipeline.spec import StageKind
from repro.pipeline.transform import TaskInfo
from repro.telemetry import (
    ALL_CATEGORIES,
    CycleCategory,
    MemoryTraceSink,
    NULL_SINK,
    analyze,
    to_chrome_trace,
    write_vcd,
)


def build_two_stage(n_values: int = 12, slow_consumer=False,
                    slow_producer=False):
    """Hand-built 2-stage pipeline: producer pushes N ints, consumer pops.

    With ``slow_consumer`` the consumer burns a dependent op chain between
    pops, so a shallow FIFO backs up and the producer blocks on full;
    ``slow_producer`` is the mirror image (the consumer starves on empty).
    """
    module = Module("pipe")
    plan = ChannelPlan()
    chan = plan.new_channel("vals", I32, 0, 1)

    producer = module.new_function("producer", FunctionType(VOID, []), [])
    pb = IRBuilder(producer.new_block("entry"))
    sel = Constant(I32, 0)
    for i in range(n_values):
        pb.block.append(Produce(chan, sel, Constant(I32, i)))
        if slow_producer:
            for _ in range(3):  # dependent chain delaying the next push
                mul = BinaryOp("mul", sel, Constant(I32, 1))
                pb.block.append(mul)
                sel = mul
    pb.ret()
    producer.task_info = TaskInfo(0, 0, StageKind.SEQUENTIAL, 1)

    consumer = module.new_function("consumer", FunctionType(VOID, []), [])
    cb = IRBuilder(consumer.new_block("entry"))
    # A dependent op chain feeding the next consume's worker_select (any
    # int selects queue 0 of a 1-queue buffer) serialises the pops so the
    # consumer genuinely lags the producer when slow_consumer is set.
    acc = Constant(I32, 1)
    for _ in range(n_values):
        pop = Consume(chan, I32, worker_select=acc if slow_consumer else None)
        cb.block.append(pop)
        if slow_consumer:
            for _ in range(3):
                mul = BinaryOp("mul", acc, pop)
                cb.block.append(mul)
                acc = mul
    cb.ret()
    consumer.task_info = TaskInfo(0, 1, StageKind.SEQUENTIAL, 1)

    parent = module.new_function("parent", FunctionType(VOID, []), [])
    xb = IRBuilder(parent.new_block("entry"))
    xb.block.append(ParallelFork(0, producer, [], None))
    xb.block.append(ParallelFork(0, consumer, [], None))
    xb.block.append(ParallelJoin(0))
    xb.ret()
    return module, plan


def run_two_stage(depth: int = 4, n_values: int = 12, sink=None,
                  slow_consumer=False, slow_producer=False):
    module, plan = build_two_stage(n_values, slow_consumer, slow_producer)
    system = AcceleratorSystem(module, Memory(), channels=plan, sink=sink,
                               fifo_depth=depth)
    return system.run("parent", [])


class TestCycleConservation:
    def test_counters_partition_total_cycles(self):
        report = run_two_stage()
        assert len(report.worker_stats) == 3  # parent + producer + consumer
        for name, counts in report.stall_breakdown.items():
            assert sum(counts.values()) == report.cycles, name
            assert set(counts) == {c.value for c in ALL_CATEGORIES}

    def test_trace_spans_cover_every_cycle(self):
        sink = MemoryTraceSink()
        report = run_two_stage(sink=sink)
        assert sink.total_cycles == report.cycles
        for name, counts in sink.breakdown().items():
            assert sum(counts.values()) == report.cycles, name
        # Trace-side and counter-side attributions must agree exactly.
        assert sink.breakdown() == report.stall_breakdown

    def test_spans_are_disjoint_and_ordered(self):
        sink = MemoryTraceSink()
        run_two_stage(sink=sink)
        for name in sink.worker_names:
            spans = sorted(sink.spans_for(name), key=lambda s: s.start)
            assert spans[0].start == 0
            for before, after in zip(spans, spans[1:]):
                assert before.end == after.start  # no gap, no overlap

    def test_stalls_show_up_under_pressure(self):
        # Depth-1 FIFO behind a slow consumer: the producer must block on
        # a full queue.  Mirror setup: a slow producer starves the consumer.
        backed_up = run_two_stage(depth=1, n_values=16, slow_consumer=True)
        producer = backed_up.worker_stats["producer#w0"]
        assert producer.fifo_full_stall_cycles > 0
        starved = run_two_stage(depth=1, n_values=16, slow_producer=True)
        consumer = starved.worker_stats["consumer#w0"]
        assert consumer.fifo_empty_stall_cycles > 0

    def test_null_sink_is_default_and_disabled(self):
        module, plan = build_two_stage()
        system = AcceleratorSystem(module, Memory(), channels=plan)
        assert system.sink is NULL_SINK
        assert not system.sink.enabled
        report = system.run("parent", [])
        for counts in report.stall_breakdown.values():
            assert sum(counts.values()) == report.cycles


class TestChromeTrace:
    def test_schema(self):
        sink = MemoryTraceSink()
        report = run_two_stage(depth=1, n_values=16, sink=sink)
        doc = to_chrome_trace(sink)
        # Round-trips through JSON (chrome://tracing input format).
        doc = json.loads(json.dumps(doc))
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        phases = set()
        for event in doc["traceEvents"]:
            assert isinstance(event["name"], str)
            assert event["ph"] in ("M", "X", "C", "i")
            assert isinstance(event["pid"], int)
            phases.add(event["ph"])
            if event["ph"] != "M":
                assert isinstance(event["ts"], int) and event["ts"] >= 0
            if event["ph"] == "X":
                assert isinstance(event["dur"], int) and event["dur"] > 0
            if event["ph"] == "C":
                assert all(
                    isinstance(v, int) for v in event["args"].values()
                )
        assert {"M", "X", "C"} <= phases
        assert doc["otherData"]["total_cycles"] == report.cycles

    def test_worker_tracks_cover_run(self):
        sink = MemoryTraceSink()
        report = run_two_stage(sink=sink)
        doc = to_chrome_trace(sink)
        worker_pid = 1
        names = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["pid"] == worker_pid
        }
        assert set(names) == set(report.worker_stats)
        for name, tid in names.items():
            covered = sum(
                e["dur"] for e in doc["traceEvents"]
                if e["ph"] == "X" and e["pid"] == worker_pid
                and e["tid"] == tid
            )
            assert covered == report.cycles, name


class TestVcd:
    def test_well_formed(self):
        sink = MemoryTraceSink()
        report = run_two_stage(depth=1, n_values=16, sink=sink)
        buf = io.StringIO()
        write_vcd(sink, buf)
        text = buf.getvalue()
        assert "$timescale" in text and "$enddefinitions $end" in text

        header, _, body = text.partition("$enddefinitions $end")
        widths: dict[str, int] = {}
        for line in header.splitlines():
            if line.startswith("$var"):
                _, _, width, ident, _name, _end = line.split()
                widths[ident] = int(width)
        assert widths  # at least the category signals exist

        last_time = -1
        for line in body.splitlines():
            line = line.strip()
            if not line or line in ("$dumpvars", "$end"):
                continue
            if line.startswith("#"):
                time = int(line[1:])
                assert time > last_time  # strictly increasing timestamps
                last_time = time
                assert time <= report.cycles
                continue
            assert line.startswith("b"), line
            bits, ident = line[1:].split()
            assert ident in widths, line
            assert bits == "x" or set(bits) <= {"0", "1"}, line
            if bits != "x":
                assert len(bits) == widths[ident]

    def test_category_and_occupancy_signals_present(self):
        sink = MemoryTraceSink()
        run_two_stage(depth=1, n_values=16, sink=sink)
        buf = io.StringIO()
        write_vcd(sink, buf)
        text = buf.getvalue()
        assert "producer_w0_cat" in text
        assert "buf0:vals" in text.replace("buf0_vals", "buf0:vals")
        assert "_occ" in text
        assert "category encoding" in text


class TestBottleneckAnalysis:
    def test_critical_stage_and_recommendations(self):
        report = run_two_stage(depth=1, n_values=64, slow_consumer=True)
        analysis = analyze(report)
        assert analysis.total_cycles == report.cycles
        assert analysis.critical_worker in report.worker_stats
        # The depth-1 FIFO saturates; the analyzer must say so.
        assert any("deepen" in r or "replicate" in r
                   for r in analysis.recommendations)
        saturated = [f for f in analysis.fifos if f.saturated]
        assert saturated and saturated[0].depth == 1
        text = analysis.format()
        assert analysis.critical_worker in text
        assert "Recommendations" in text

    def test_balanced_pipeline_reports_balance(self):
        from repro.telemetry.bottleneck import BottleneckReport, WorkerBreakdown
        breakdown = WorkerBreakdown(
            "w", {c.value: 0 for c in ALL_CATEGORIES} | {"compute": 100}
        )
        report = BottleneckReport(total_cycles=100, workers=[breakdown])
        from repro.telemetry.bottleneck import _recommend
        recs = _recommend(report)
        assert any("balanced" in r for r in recs)


class TestFifoProtocolGuards:
    def test_push_to_full_raises(self):
        plan = ChannelPlan()
        chan = plan.new_channel("c", I32, 0, 1)
        fifo = FifoBuffer(chan, depth=2)
        fifo.push(0, 1)
        fifo.push(0, 2)
        with pytest.raises(SimulationError, match="full"):
            fifo.push(0, 3)

    def test_pop_from_empty_raises(self):
        plan = ChannelPlan()
        chan = plan.new_channel("c", I32, 0, 1)
        fifo = FifoBuffer(chan)
        with pytest.raises(SimulationError, match="empty"):
            fifo.pop(0)

    def test_broadcast_to_full_raises(self):
        plan = ChannelPlan()
        chan = plan.new_channel("c", I32, 0, 1, n_channels=2)
        fifo = FifoBuffer(chan, depth=1)
        fifo.push_broadcast(7)
        with pytest.raises(SimulationError, match="full"):
            fifo.push_broadcast(8)


class TestHarnessIntegration:
    def test_trace_cli_writes_artifacts(self, tmp_path, capsys):
        from repro.harness.__main__ import main
        rc = main(["trace", "ks", "--out", str(tmp_path),
                   "--store", str(tmp_path / "store")])
        assert rc == 0
        trace_path = tmp_path / "ks_cgpa-p1.trace.json"
        vcd_path = tmp_path / "ks_cgpa-p1.vcd"
        analysis_path = tmp_path / "ks_cgpa-p1.bottleneck.txt"
        assert trace_path.exists() and vcd_path.exists()
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        # A plain file: a copy of the one stored artifact, not a link to it.
        assert not trace_path.is_symlink()
        (stored,) = [
            path for path in (tmp_path / "store").glob("*/*.json")
            if path.read_bytes() == trace_path.read_bytes()
        ]
        assert "Critical stage" in analysis_path.read_text()
        out = capsys.readouterr().out
        assert "Per-worker stall breakdown" in out

    def test_run_backend_accepts_sink(self):
        from repro.harness import run_backend
        from repro.kernels import KS
        sink = MemoryTraceSink()
        result = run_backend(KS, "cgpa-p1", sink=sink)
        assert result.sim is not None
        assert sink.total_cycles == result.sim.cycles
        for name, counts in result.sim.stall_breakdown.items():
            assert sum(counts.values()) == result.sim.cycles, name

    def test_format_stall_breakdown(self):
        from repro.harness import format_stall_breakdown
        report = run_two_stage()
        text = format_stall_breakdown(report, kernel="pipe")
        assert "producer#w0" in text and "consumer#w0" in text
        for category in ALL_CATEGORIES:
            assert category.value in text
