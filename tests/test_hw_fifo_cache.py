"""Unit and property tests for the FIFO buffers and the D-cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import DirectMappedCache, FifoBuffer
from repro.ir import Channel, I32


def make_fifo(n_channels=4, depth=16):
    return FifoBuffer(Channel(0, "t", I32, 0, 1, n_channels=n_channels), depth=depth)


class TestFifo:
    def test_fifo_order_preserved(self):
        fifo = make_fifo()
        for i in range(10):
            fifo.push(0, i)
        assert [fifo.pop(0) for _ in range(10)] == list(range(10))

    def test_channels_independent(self):
        fifo = make_fifo()
        fifo.push(0, "a")
        fifo.push(1, "b")
        assert fifo.pop(1) == "b"
        assert fifo.pop(0) == "a"

    def test_capacity_enforced(self):
        fifo = make_fifo(depth=4)
        for i in range(4):
            assert fifo.can_push(0)
            fifo.push(0, i)
        assert not fifo.can_push(0)
        fifo.pop(0)
        assert fifo.can_push(0)

    def test_broadcast_pushes_to_all(self):
        fifo = make_fifo(n_channels=3)
        fifo.push_broadcast(42)
        assert all(fifo.pop(i) == 42 for i in range(3))

    def test_broadcast_blocked_by_any_full_channel(self):
        fifo = make_fifo(n_channels=2, depth=2)
        fifo.push(1, 0)
        fifo.push(1, 0)
        assert not fifo.can_push_broadcast()
        assert fifo.can_push(0)

    def test_reset_flushes(self):
        fifo = make_fifo()
        fifo.push(0, 1)
        fifo.push_broadcast(2)
        fifo.reset()
        assert not any(fifo.can_pop(i) for i in range(4))

    def test_stats_counters(self):
        fifo = make_fifo(n_channels=2)
        fifo.push(0, 1)
        fifo.push_broadcast(2)
        fifo.pop(0)
        assert fifo.stats.pushes == 3
        assert fifo.stats.pops == 1
        assert fifo.stats.max_occupancy == 2

    def test_bram_accounting(self):
        # 32-bit slots: a 64-bit channel costs two slots per value.
        # The formula lives once, in the area model, which is given the
        # depth the buffers are instantiated with.
        from repro.cost import accelerator_area
        from repro.ir import ChannelPlan, F64
        plan = ChannelPlan()
        plan.new_channel("d", F64, 0, 1, n_channels=4)
        assert accelerator_area([], [], plan).bram_bits == 32 * 2 * 16 * 4
        assert accelerator_area([], [], plan, fifo_depth=2).bram_bits == 32 * 2 * 2 * 4

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_fifo_model_matches_reference_deque(self, ops):
        from collections import deque
        fifo = make_fifo(depth=8)
        reference = [deque() for _ in range(4)]
        counter = 0
        for is_push, chan in ops:
            if is_push:
                if fifo.can_push(chan):
                    assert len(reference[chan]) < 8
                    fifo.push(chan, counter)
                    reference[chan].append(counter)
                    counter += 1
                else:
                    assert len(reference[chan]) == 8
            else:
                if fifo.can_pop(chan):
                    assert fifo.pop(chan) == reference[chan].popleft()
                else:
                    assert not reference[chan]


class TestCache:
    def test_miss_then_hit(self):
        cache = DirectMappedCache(hit_latency=2, miss_penalty=24)
        t1 = cache.access(0x2000, False, 0)
        assert t1 >= 24
        t2 = cache.access(0x2000, False, t1)
        assert t2 == t1 + 2
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_same_block_hits(self):
        cache = DirectMappedCache(block_size=128)
        cache.access(0x4000, False, 0)
        cache.access(0x4000 + 64, False, 100)  # same 128B block
        assert cache.stats.hits == 1

    def test_conflict_eviction(self):
        cache = DirectMappedCache(n_lines=512, block_size=128)
        stride = 512 * 128  # same index, different tag
        cache.access(0x10000, False, 0)
        cache.access(0x10000 + stride, False, 100)
        cache.access(0x10000, False, 200)  # evicted: miss again
        assert cache.stats.misses == 3

    def test_port_arbitration(self):
        cache = DirectMappedCache(ports=2, hit_latency=1)
        cache.access(0x1000, False, 0)  # warm the line
        base = cache.access(0x1000, False, 10)
        # Four simultaneous accesses with 2 ports: two must slip.
        times = sorted(cache.access(0x1000, False, 20) for _ in range(4))
        assert times[0] == times[1]
        assert times[2] == times[3] == times[0] + 1
        assert cache.stats.port_conflicts >= 2

    def test_misses_serialize_on_memory_channel(self):
        cache = DirectMappedCache(miss_penalty=24, ports=8)
        t1 = cache.access(0x100000, False, 0)
        t2 = cache.access(0x200000, False, 0)
        assert t2 >= t1 + 24  # single DRAM channel

    def test_write_marks_dirty_and_writeback_counted(self):
        cache = DirectMappedCache(n_lines=512, block_size=128)
        stride = 512 * 128
        cache.access(0x8000, True, 0)
        cache.access(0x8000 + stride, False, 100)
        assert cache.stats.writebacks == 1

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            DirectMappedCache(n_lines=500)

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_ready_cycle_never_before_request(self, addrs):
        cache = DirectMappedCache()
        cycle = 0
        for addr in addrs:
            ready = cache.access(addr, False, cycle)
            assert ready > cycle
            cycle = ready
