"""Direct-mapped data-cache timing model with a ported crossbar.

Geometry follows the paper's evaluation platform (Section 4.1): 512 lines,
128-byte blocks, direct mapped, 8 ports into the accelerator.  The cache
models *timing only* — data always comes from the shared functional
:class:`~repro.interp.memory.Memory`, so a timing bug can never corrupt
results, only cycle counts.

Port arbitration: at most ``ports`` accesses may start per cycle (the
request crossbar of Fig. 2); excess requests slip to following cycles.
Misses additionally serialise on the single memory channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..faults.plan import NULL_INJECTOR
from ..telemetry.events import NULL_SINK, TraceSink


@dataclass
class CacheStats:
    """Hit/miss/writeback/conflict counters for the cache model."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    port_conflicts: int = 0
    prefetches: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def absorb(self, other: "CacheStats") -> None:
        """Accumulate ``other`` into this stats object (slice aggregation).

        Used to roll the per-worker private-cache slices of the Appendix
        B.1 memory-partitioning mode up into one report-level summary.
        """
        self.hits += other.hits
        self.misses += other.misses
        self.writebacks += other.writebacks
        self.port_conflicts += other.port_conflicts
        self.prefetches += other.prefetches

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "port_conflicts": self.port_conflicts,
            "prefetches": self.prefetches,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


class DirectMappedCache:
    """Timing model of the shared D-cache plus its crossbar."""

    def __init__(
        self,
        n_lines: int = 512,
        block_size: int = 128,
        ports: int = 8,
        hit_latency: int = 2,
        miss_penalty: int = 24,
        next_line_prefetch: bool = False,
    ) -> None:
        """``next_line_prefetch`` models the prefetching extension the
        paper leaves as future work (Appendix B.2): every demand miss also
        fills the next sequential line in the shadow of the same memory
        transaction.  Helps streaming accesses (arrays, image rows); does
        nothing for pointer chasing."""
        if n_lines & (n_lines - 1) or block_size & (block_size - 1):
            raise ValueError("cache geometry must be powers of two")
        self.n_lines = n_lines
        self.block_size = block_size
        self.ports = ports
        self.hit_latency = hit_latency
        self.miss_penalty = miss_penalty
        self.next_line_prefetch = next_line_prefetch
        self.shadows: list[DirectMappedCache] = []  # see add_shadow
        self.sink: TraceSink = NULL_SINK
        #: Fault-injection hooks (no-op unless a plan is attached).
        self.injector = NULL_INJECTOR
        self.reset()

    def _index_and_tag(self, addr: int) -> tuple[int, int]:
        block = addr // self.block_size
        return block % self.n_lines, block // self.n_lines

    def access(self, addr: int, is_write: bool, cycle: int) -> int:
        """Perform an access starting no earlier than ``cycle``.

        Returns the cycle at which the data (or write ack) is ready.
        """
        usage = self._port_usage
        used = usage.get(cycle, 0)
        if used < self.ports and not self.injector.enabled and len(usage) < 4096:
            usage[cycle] = used + 1  # a free port this cycle: no arbitration
            start = cycle
        else:
            start = self._arbitrate(cycle)
        block = addr // self.block_size
        index = block % self.n_lines
        tag = block // self.n_lines
        hit = self._tags[index] == tag
        if hit:
            self.stats.hits += 1
            ready = start + self.hit_latency
        else:
            self._fill(index, tag)
            service_start = max(start, self._memory_free_at)
            ready = service_start + self.miss_penalty
            self._memory_free_at = ready
            if self.next_line_prefetch:
                self._prefetch_line(addr + self.block_size)
        if is_write:
            self._dirty[index] = True
        if self.injector.enabled:
            # Injected DRAM pressure: the transaction's data comes back
            # late, but the bus reservation (_memory_free_at) is left
            # untouched — the extra cycles model downstream interconnect
            # latency, not occupancy.
            ready += self.injector.mem_extra(cycle)
        if self.sink.enabled:
            self.sink.cache_access(cycle, addr, is_write, hit, ready)
        if self.shadows:
            self._follow(addr, is_write, hit)
        return ready

    def _fill(self, index: int, tag: int) -> None:
        """A demand miss: write back a dirty victim, install ``tag`` clean."""
        self.stats.misses += 1
        if self._tags[index] is not None and self._dirty[index]:
            self.stats.writebacks += 1
        self._tags[index] = tag
        self._dirty[index] = False

    def add_shadow(self, n_lines: int) -> "DirectMappedCache":
        """Carry a tag array of ``n_lines`` lines (same block size, ports
        and latencies, no prefetch) through this cache's access stream.
        While the shadow's ``matched`` holds, it has hit exactly where this
        cache hit since :meth:`reset`, so a cache of ``n_lines`` would
        have timed the run identically (DESIGN.md, "One run per cache
        family"); only its writebacks may differ."""
        if self.next_line_prefetch:
            raise ValueError("shadow tags model a cache without prefetch")
        shadow = DirectMappedCache(n_lines, self.block_size, self.ports,
                                   self.hit_latency, self.miss_penalty)
        self.shadows.append(shadow)
        return shadow

    def _follow(self, addr: int, is_write: bool, hit: bool) -> None:
        """Replay one access on every shadow; unmark one that disagrees."""
        for shadow in self.shadows:
            index, tag = shadow._index_and_tag(addr)
            shadow_hit = shadow._tags[index] == tag
            if not shadow_hit:
                shadow._fill(index, tag)
            if is_write:
                shadow._dirty[index] = True
            if shadow_hit != hit:
                shadow.matched = False

    def _prefetch_line(self, addr: int) -> None:
        """Fill a line in the shadow of an ongoing transaction (no demand
        latency charged; a clean line may be displaced)."""
        index, tag = self._index_and_tag(addr)
        if self._tags[index] == tag:
            return
        if self._tags[index] is not None and self._dirty[index]:
            return  # don't force a writeback for a speculative fill
        self.stats.prefetches += 1
        self._memory_free_at += self.miss_penalty // 2  # bus occupancy
        self._tags[index] = tag
        self._dirty[index] = False

    def _arbitrate(self, cycle: int) -> int:
        current = cycle
        injector = self.injector
        while True:
            # An injected arbitration storm degrades the crossbar to a
            # single port for the cycles its window covers.
            ports = (
                1
                if injector.enabled and injector.port_limited(current)
                else self.ports
            )
            if self._port_usage.get(current, 0) < ports:
                break
            current += 1
            self.stats.port_conflicts += 1
        self._port_usage[current] = self._port_usage.get(current, 0) + 1
        # Garbage-collect old cycles occasionally to bound memory.
        if len(self._port_usage) > 4096:
            cutoff = current - 64
            self._port_usage = {
                c: n for c, n in self._port_usage.items() if c >= cutoff
            }
        return current

    def reset(self) -> None:
        """Full start-of-run reset: cold tags, clean timing, zero stats.

        ``AcceleratorSystem.run`` resets its caches so every invocation of
        ``run()`` starts from the same power-on state and reports only its
        own accesses (a reused system previously double-counted).
        """
        self._tags: list[int | None] = [None] * self.n_lines
        self._dirty: list[bool] = [False] * self.n_lines
        self._port_usage: dict[int, int] = {}
        self._memory_free_at = 0
        self.stats = CacheStats()
        #: For a shadow: its hits and misses are its owner's so far.
        self.matched = True
        for shadow in self.shadows:
            shadow.reset()
