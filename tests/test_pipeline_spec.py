"""Tests for the pipeline specification datatypes and channel descriptors."""

import pytest

from repro.frontend import compile_c
from repro.hw.fifo import FifoBuffer
from repro.ir import (
    Channel,
    ChannelPlan,
    DEFAULT_FIFO_DEPTH,
    DEFAULT_FIFO_WIDTH,
    F64,
    I32,
)
from repro.kernels import EM3D, KERNELS_BY_NAME
from repro.pipeline import ReplicationPolicy, StageKind, cgpa_compile
from repro.transforms import optimize_module


def stage_of(spec, inst):
    """The stage of ``spec`` owning ``inst`` (None for replicated ones)."""
    scc = spec.pdg.scc_of(inst)
    return next((stage for stage in spec.stages
                 if any(s.index == scc.index for s in stage.sccs)), None)


class TestChannel:
    def test_wire_width(self):
        c32 = Channel(0, "a", I32, 0, 1)
        c64 = Channel(1, "b", F64, 0, 1)
        assert c32.width_bits == 32
        assert c64.width_bits == 64

    def test_fifo_slots_for_wide_values(self):
        # The paper fixes FIFO width to 32 bits; doubles take two slots.
        assert Channel(0, "a", I32, 0, 1).fifo_slots_per_value == 1
        assert Channel(1, "b", F64, 0, 1).fifo_slots_per_value == 2

    def test_defaults_match_paper(self):
        assert DEFAULT_FIFO_DEPTH == 16
        assert DEFAULT_FIFO_WIDTH == 32
        # A channel carries no depth; the buffer built from it defaults
        # to the paper's.
        channel = Channel(0, "a", I32, 0, 1)
        assert not hasattr(channel, "depth")
        assert FifoBuffer(channel).depth == 16

    def test_plan_assigns_sequential_ids(self):
        plan = ChannelPlan()
        a = plan.new_channel("a", I32, 0, 1)
        b = plan.new_channel("b", F64, 0, 1, n_channels=4, broadcast=True)
        assert (a.channel_id, b.channel_id) == (0, 1)
        assert plan.by_id(1) is b
        assert len(plan) == 2


class TestPipelineSpec:
    @pytest.fixture(scope="class")
    def em3d_spec(self):
        module = compile_c(EM3D.source, "em3d")
        optimize_module(module)
        return cgpa_compile(
            module, "kernel", shapes=EM3D.shapes_for(module),
            rewrite_parent=False,
        ).spec

    def test_signature(self, em3d_spec):
        assert em3d_spec.signature == "S-P"
        assert em3d_spec.parallel_stage is not None
        assert em3d_spec.parallel_stage.kind is StageKind.PARALLEL

    def test_full_signature_is_unambiguous(self, em3d_spec):
        # The spec knows shape + policy + workers; the depth is the one
        # the caller runs with (default: the paper's).
        assert em3d_spec.full_signature() == "S-P/p1/w4/d16"
        assert em3d_spec.full_signature(2) == "S-P/p1/w4/d2"

    def test_full_signature_tracks_knobs(self):
        module = compile_c(EM3D.source, "em3d")
        optimize_module(module)
        compiled = cgpa_compile(
            module, "kernel", shapes=EM3D.shapes_for(module),
            policy=ReplicationPolicy.P2, n_workers=2, rewrite_parent=False,
        )
        assert compiled.full_signature(8).endswith("/p2/w2/d8")
        # The bare Table-2 shape string stays untouched (deprecated alias).
        assert "/" not in compiled.signature

    def test_total_workers(self, em3d_spec):
        assert sum(stage.n_workers for stage in em3d_spec.stages) == 1 + 4

    def test_stage_of_lookup(self, em3d_spec):
        for stage in em3d_spec.stages:
            for inst in stage.owned_instructions():
                assert stage_of(em3d_spec, inst) is stage

    def test_replicated_lookup(self, em3d_spec):
        for scc in em3d_spec.replicated:
            for inst in scc.instructions:
                assert em3d_spec.is_replicated(inst)
                assert stage_of(em3d_spec, inst) is None

    def test_describe_readable(self, em3d_spec):
        text = em3d_spec.describe()
        assert "S-P" in text and "parallel x4" in text

    def test_stage_weights_positive(self, em3d_spec):
        for stage in em3d_spec.stages:
            assert stage.weight > 0


class TestPolicyEnum:
    def test_values(self):
        assert ReplicationPolicy("p1") is ReplicationPolicy.P1
        assert ReplicationPolicy("p2") is ReplicationPolicy.P2
        assert ReplicationPolicy("none") is ReplicationPolicy.NONE
