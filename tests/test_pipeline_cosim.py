"""Tests for the functional co-simulation layer (ChannelIO + fork runner)."""

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.harness.build import compile_kernel
from repro.harness.runner import interned_workload
from repro.interp import BROADCAST_INDEX, ChannelIO, Interpreter, Memory
from repro.ir import (
    Channel,
    Consume,
    FunctionType,
    I32,
    IRBuilder,
    Module,
    ParallelFork,
    ParallelJoin,
    Produce,
    VOID,
)
from repro.kernels import ALL_KERNELS
from repro.pipeline import FunctionalForkHandler, ReplicationPolicy, run_transformed
from repro.pipeline.spec import StageKind
from repro.pipeline.transform import TaskInfo
from repro.vsim.cosim import SMOKE_SETUP_ARGS

_KERNEL_CASES = [
    (spec, policy)
    for spec in ALL_KERNELS
    for policy in ["p1", "none"] + (["p2"] if spec.supports_p2 else [])
]


class TestChannelIO:
    def test_per_channel_fifo_order(self):
        io = ChannelIO()
        chan = Channel(0, "c", I32, 0, 1, n_channels=2)
        for v in (1, 2, 3):
            io.produce(chan, 0, v)
        io.produce(chan, 1, 99)
        assert io.try_consume(chan, 0) == (True, 1)
        assert io.try_consume(chan, 1) == (True, 99)
        assert io.try_consume(chan, 0) == (True, 2)
        assert io.try_consume(chan, 1) == (False, None)

    def test_broadcast_reaches_every_channel(self):
        io = ChannelIO()
        chan = Channel(1, "b", I32, 0, 1, n_channels=4)
        io.produce_broadcast(chan, 7)
        for i in range(4):
            assert io.try_consume(chan, i) == (True, 7)

    @given(st.lists(st.integers(), max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_values_preserved_in_order(self, values):
        io = ChannelIO()
        chan = Channel(2, "p", I32, 0, 1)
        for v in values:
            io.produce(chan, 0, v)
        out = []
        while True:
            ok, v = io.try_consume(chan, 0)
            if not ok:
                break
            out.append(v)
        assert out == values

    def test_pending_counts(self):
        io = ChannelIO()
        chan = Channel(0, "c", I32, 0, 1, n_channels=2)
        io.produce_broadcast(chan, 1)
        assert io.queue_snapshot() == {(0, 0): (1,), (0, 1): (1,)}

    def test_deep_queue_order_and_snapshot(self):
        # Regression: queues are deques now — consuming the head of a
        # deep queue used to be an O(n) list pop(0), making a full
        # drain quadratic.  Order and the snapshot view must be
        # unaffected by the container change.
        io = ChannelIO()
        chan = Channel(3, "deep", I32, 0, 1)
        n = 50_000
        for v in range(n):
            io.produce(chan, 0, v)
        snapshot = io.queue_snapshot()[(3, 0)]
        assert len(snapshot) == n
        assert list(snapshot)[:5] == [0, 1, 2, 3, 4]
        for expected in range(n):
            ok, v = io.try_consume(chan, 0)
            assert ok and v == expected
        assert io.try_consume(chan, 0) == (False, None)


def build_producer_consumer(n_values=10):
    """A two-task pipeline: producer pushes 0..n-1, consumer sums them."""
    m = Module("m")
    chan = Channel(0, "c", I32, 0, 1)
    producer = m.new_function("producer", FunctionType(VOID, [I32]), ["n"])
    b = IRBuilder(producer.new_block("entry"))
    header = producer.new_block("header")
    body = producer.new_block("body")
    done = producer.new_block("done")
    b.jump(header)
    b.set_block(header)
    i_phi = b.phi(I32, "i")
    cond = b.icmp("slt", i_phi, producer.args[0])
    b.cond_branch(cond, body, done)
    b.set_block(body)
    b.block.append(Produce(chan, b.const_int(0), i_phi))
    i_next = b.add(i_phi, b.const_int(1))
    b.jump(header)
    i_phi.add_incoming(b.const_int(0), producer.entry)
    i_phi.add_incoming(i_next, body)
    b.set_block(done)
    b.ret()

    from repro.ir import StoreLiveout
    consumer = m.new_function("consumer", FunctionType(VOID, [I32]), ["n"])
    b = IRBuilder(consumer.new_block("entry"))
    header = consumer.new_block("header")
    body = consumer.new_block("body")
    done = consumer.new_block("done")
    b.jump(header)
    b.set_block(header)
    i_phi = b.phi(I32, "i")
    s_phi = b.phi(I32, "s")
    cond = b.icmp("slt", i_phi, consumer.args[0])
    b.cond_branch(cond, body, done)
    b.set_block(body)
    v = b.block.append(Consume(chan, I32))
    s_next = b.add(s_phi, v)
    i_next = b.add(i_phi, b.const_int(1))
    b.jump(header)
    i_phi.add_incoming(b.const_int(0), consumer.entry)
    i_phi.add_incoming(i_next, body)
    s_phi.add_incoming(b.const_int(0), consumer.entry)
    s_phi.add_incoming(s_next, body)
    b.set_block(done)
    b.block.append(StoreLiveout(0, s_phi))
    b.ret()

    parent = m.new_function("parent", FunctionType(I32, [I32]), ["n"])
    b = IRBuilder(parent.new_block("entry"))
    b.block.append(ParallelFork(0, producer, [parent.args[0]], None))
    b.block.append(ParallelFork(0, consumer, [parent.args[0]], None))
    b.block.append(ParallelJoin(0))
    from repro.ir import RetrieveLiveout
    r = b.block.append(RetrieveLiveout(0, I32))
    b.ret(r)

    for task in (producer, consumer):
        task.task_info = TaskInfo(0, 0, StageKind.SEQUENTIAL, 1)
    return m


class TestForkHandler:
    def test_producer_consumer_pipeline(self):
        m = build_producer_consumer()
        value, memory, handler = run_transformed(m, "parent", [10])
        assert value == sum(range(10))

    def test_empty_pipeline(self):
        m = build_producer_consumer()
        value, _, _ = run_transformed(m, "parent", [0])
        assert value == 0

    def test_deadlock_reported(self):
        # Consumer expects one more value than the producer sends.
        m = Module("m")
        chan = Channel(0, "c", I32, 0, 1)
        starving = m.new_function("starving", FunctionType(VOID, []), [])
        b = IRBuilder(starving.new_block("entry"))
        b.block.append(Consume(chan, I32))
        b.ret()
        starving.task_info = TaskInfo(0, 0, StageKind.SEQUENTIAL, 1)
        parent = m.new_function("parent", FunctionType(VOID, []), [])
        b = IRBuilder(parent.new_block("entry"))
        b.block.append(ParallelFork(0, starving, [], None))
        b.block.append(ParallelJoin(0))
        b.ret()
        with pytest.raises(SimulationError, match="deadlock"):
            run_transformed(m, "parent", [])

    def test_worker_id_forwarded_to_parallel_tasks(self):
        m = Module("m")
        from repro.ir import StoreLiveout
        task = m.new_function("t", FunctionType(VOID, [I32]), ["worker_id"])
        b = IRBuilder(task.new_block("entry"))
        b.block.append(StoreLiveout(0, task.args[0]))
        b.ret()
        task.task_info = TaskInfo(0, 0, StageKind.PARALLEL, 4)
        parent = m.new_function("parent", FunctionType(I32, []), [])
        b = IRBuilder(parent.new_block("entry"))
        b.block.append(ParallelFork(0, task, [], 3))
        b.block.append(ParallelJoin(0))
        from repro.ir import RetrieveLiveout
        r = b.block.append(RetrieveLiveout(0, I32))
        b.ret(r)
        value, _, _ = run_transformed(m, "parent", [])
        assert value == 3

    @pytest.mark.parametrize(
        "spec,policy", _KERNEL_CASES,
        ids=[f"{spec.name}-{policy}" for spec, policy in _KERNEL_CASES],
    )
    def test_rounds_conserve_tokens_and_attribute_traffic(self, spec, policy):
        """Each recorded round's queues at the start plus its pushes are
        its pops followed by its queues at the end, per queue and in
        order; every logged entry names one of the round's runs."""
        compiled = compile_kernel(spec, ReplicationPolicy[policy.upper()], 2)
        memory, globals_, args = interned_workload(
            compiled.module, replace(spec, setup_args=SMOKE_SETUP_ARGS[spec.name])
        )
        _, _, handler = run_transformed(
            compiled.module, spec.measure_entry, args, memory,
            global_addresses=globals_,
        )
        n_channels = {
            ch.channel_id: ch.n_channels for ch in compiled.result.channels
        }
        assert handler.rounds
        for record in handler.rounds:
            tags = {run.tag for run in record.runs}
            for tag, *_ in record.push_log + record.pop_log + record.liveout_log:
                assert tag in tags, f"{tag!r} is not one of {sorted(tags)}"
            pushed, popped = defaultdict(list), defaultdict(list)
            for _, cid, index, value in record.push_log:
                indices = (
                    range(n_channels[cid]) if index == BROADCAST_INDEX else [index]
                )
                for i in indices:
                    pushed[cid, i].append(value)
            for _, cid, index, value in record.pop_log:
                popped[cid, index].append(value)
            for key in {*pushed, *popped, *record.queue_start, *record.queue_end}:
                assert (
                    list(record.queue_start.get(key, ())) + pushed[key]
                    == popped[key] + list(record.queue_end.get(key, ()))
                ), f"round {record.loop_id} queue {key}"
