"""The blocking-op protocol keeps the fault-injection contract.

``HwWorker._push``/``_pop``/``_join`` are the one definition of a FIFO or
join stall; the interpretive worker's ``_execute`` and the specialized
engine's step closures both call them.  The fault hooks they carry
(back-pressure window, block-transition marking) must therefore behave
identically on every engine — pinned here on a real pipeline, with the
fixtures of ``test_faults.py``.
"""

from repro.faults import FaultInjector, FaultPlan, FifoBackpressureFault

from tests.test_faults import ENGINES, baseline, simulate_kernel


class _RecordingInjector(FaultInjector):
    def __init__(self, plan):
        super().__init__(plan)
        self.blocks = []

    def note_backpressure_block(self, fifo, cycle):
        self.blocks.append((fifo.name, cycle))
        super().note_backpressure_block(fifo, cycle)


class TestBlockingProtocolKeepsTheFaultContract:
    def test_backpressure_window_is_accounted_identically(self):
        """One definition of the push stall (``HwWorker._push``) serves the
        interpretive and the specialized worker: an injected window on a
        produce FIFO must be noted at the same block-transition ticks and
        cost the same stall cycles and executed-op counts on every engine."""
        base_sim, _, _ = baseline("ks")
        outcomes = {}
        for engine in ENGINES:
            fired = []
            for channel_index in range(len(base_sim.fifo_stats)):
                fault = FifoBackpressureFault(
                    channel_index, start=base_sim.cycles // 3, duration=3000)
                injector = _RecordingInjector(
                    FaultPlan(seed=0, kind="timing", faults=(fault,)))
                sim, _ = simulate_kernel("ks", engine, injector=injector)
                fired.append((
                    injector.blocks,
                    fault in injector.triggered,
                    {n: s.full_stall_cycles for n, s in sim.fifo_stats.items()},
                    {n: dict(s.ops_executed) for n, s in sim.worker_stats.items()},
                    sim.cycles,
                ))
            outcomes[engine] = fired
        assert outcomes["event"] == outcomes["specialized"] == outcomes["lockstep"]
        # Windows did block pushes (a producer already stalled on a full
        # queue makes no transition), and only blocked pushes trigger.
        assert sum(bool(blocks) for blocks, *_ in outcomes["event"]) >= 2
        for blocks, triggered, stalls, _, _ in outcomes["event"]:
            assert triggered == bool(blocks)
            for name, _cycle in blocks:
                assert stalls[name] > 0
