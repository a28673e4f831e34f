"""Hardware channel descriptors shared by the IR primitives and the backend.

A :class:`Channel` is the compiler-side handle for one FIFO *buffer* of the
paper's architecture (Fig. 2): a named bundle of ``n_channels`` physical
FIFOs (one per consumer worker), each ``width``-bit wide.
``produce``/``consume`` instructions reference a Channel; the hardware
simulator materialises it as :class:`repro.hw.fifo.FifoBuffer`, which is
where the FIFOs get their depth: behind blocking channels function does not
depend on capacity, so capacity belongs to the instantiated machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import Type

#: Paper Section 4.1: "we fixed the width of FIFO buffers to 32 bit, the
#: depth to 16 entries and the number of workers in the parallel stage to 4".
DEFAULT_FIFO_DEPTH = 16
DEFAULT_FIFO_WIDTH = 32


@dataclass
class Channel:
    """A multi-channel FIFO buffer connecting two pipeline stages.

    Carries no depth: one compiled pipeline serves every FIFO depth, which
    :class:`repro.hw.system.AcceleratorSystem` and the area model bind.

    Attributes:
        channel_id: unique id within one pipelined loop.
        name: human-readable label (derived from the communicated value).
        elem_type: IR type of the communicated values.
        producer_stage: index of the stage whose workers push.
        consumer_stage: index of the stage whose workers pop.
        n_channels: number of physical FIFOs (== consumer worker count).
        broadcast: True when every push is replicated to all channels
            (used for loop-exit conditions and other control broadcasts).
    """

    channel_id: int
    name: str
    elem_type: Type
    producer_stage: int
    consumer_stage: int
    n_channels: int = 1
    broadcast: bool = False

    #: Width in bits occupied on the wire; 64-bit values cost two slots of
    #: the 32-bit FIFOs the paper uses (accounted in the cost model).
    @property
    def width_bits(self) -> int:
        return max(8 * self.elem_type.size(), 1)

    @property
    def fifo_slots_per_value(self) -> int:
        return max(1, (self.width_bits + DEFAULT_FIFO_WIDTH - 1) // DEFAULT_FIFO_WIDTH)

    def __hash__(self) -> int:
        return hash(self.channel_id)


@dataclass
class ChannelPlan:
    """All channels of one pipelined loop, in creation order."""

    channels: list[Channel] = field(default_factory=list)
    _next_id: int = 0

    def new_channel(
        self,
        name: str,
        elem_type: Type,
        producer_stage: int,
        consumer_stage: int,
        n_channels: int = 1,
        broadcast: bool = False,
    ) -> Channel:
        channel = Channel(
            channel_id=self._next_id,
            name=name,
            elem_type=elem_type,
            producer_stage=producer_stage,
            consumer_stage=consumer_stage,
            n_channels=n_channels,
            broadcast=broadcast,
        )
        self._next_id += 1
        self.channels.append(channel)
        return channel

    def by_id(self, channel_id: int) -> Channel:
        return self.channels[channel_id]

    def __iter__(self):
        return iter(self.channels)

    def __len__(self) -> int:
        return len(self.channels)
