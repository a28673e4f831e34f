"""Regions == block segments == the lockstep hardware worker.

``Interpreter.call`` runs a call-free loop as one *region*: one generated
function over Python locals with a block cursor.  With regions turned off
(``_regions`` finding none) every block is a segment again; the lockstep
:class:`~repro.hw.worker.HwWorker` is the independent reference.  All
three must leave the same value, ``steps``, image bytes, access counters
and allocations; regions and segments also the same error, and the same
state when ``max_steps`` trips inside a region.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import LoopInfo
from repro.errors import InterpError
from repro.hw import run_on_mips
from repro.interp import Interpreter, Memory
from repro.interp import interpreter as interpreter_module
from repro.ir import I32
from repro.ir.instructions import Call, Load
from repro.kernels import ALL_KERNELS
from repro.kernels.base import KARGS_GLOBAL
from repro.vsim.cosim import SMOKE_SETUP_ARGS
from tests.test_interp_decode import lockstep
from tests.test_interp_segments import module_of, observe
from tests.test_pipeline_fuzz import LINKED_LIST_TEMPLATE, LIST_UPDATES, kernel_source


def segments(interp, function, args):
    """``interp.call`` with every block a segment (no region found)."""
    with mock.patch.object(interpreter_module, "_regions", lambda function: []):
        return interp.call(function, args)


#: Regions, block segments, then the lockstep reference.
CALLS = (Interpreter.call, segments, lockstep)


def run(interp, function, args, call):
    try:
        return observe(interp, value=call(interp, function, list(args)))
    except InterpError as exc:
        return observe(interp, error=str(exc))


def all_three(module, function, args, **how):
    return [run(Interpreter(module, **how), function, args, call) for call in CALLS]


def region_headers(interp):
    """The headers of the regions ``interp`` entered."""
    return [block for block, segment in interp._segs.items() if segment[1] == 0]


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
def test_kernel_setup_measure_and_check_agree(spec):
    module = module_of(spec.source, name=spec.name)
    seen, entered = [], []
    for call in CALLS:
        setup = Interpreter(module)
        phases = [run(setup, spec.setup_function, SMOKE_SETUP_ARGS[spec.name], call)]
        memory, addresses = setup.memory, setup.global_addresses
        args = [memory.load(addresses[KARGS_GLOBAL] + 4 * i, I32) & 0xFFFFFFFF
                for i in range(spec.n_kernel_args)]
        for function, args in ((spec.measure_entry, args), (spec.check_function, [])):
            interp = Interpreter(module, memory, global_addresses=addresses)
            phases.append(run(interp, function, args, call))
            entered += region_headers(interp) if call is Interpreter.call else []
        seen.append(phases)
    assert entered, "no loop of the measured loop or the check ran as a region"
    assert seen[0] == seen[1] == seen[2]
    assert all(phase["error"] is None for phase in seen[0])


class TestFuzzedPrograms:
    @given(kernel_source(), st.booleans())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_array_kernels(self, src, optimise):
        n, source = src
        region, segment, reference = all_three(module_of(source, optimise), "run", [n])
        assert region == segment == reference and region["error"] is None

    @given(st.sampled_from(LIST_UPDATES), st.integers(0, 30), st.booleans())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_list_kernels(self, update, n, optimise):
        module = module_of(LINKED_LIST_TEMPLATE.format(update=update), optimise)
        region, segment, reference = all_three(module, "run", [n])
        assert region == segment == reference and region["error"] is None


NESTED = (
    "int g[16];"
    "int f(int n) { int s = 0;"
    "  for (int i = 0; i < n; i++)"
    "    for (int j = 0; j < i; j++) { g[(i + j) & 15] += j; s += g[i & 15] * j; }"
    "  return s; }"
)
TWO_EXITS = (
    "int g[8];"
    "int f(int n) { int i = 0; int s = 0;"
    "  while (1) { if (i >= n) break; s += g[i & 7] + i; g[s & 7] = i;"
    "    if (s > 60) break; i++; }"
    "  return s * 100 + i; }"
)
EXIT_TO_PHI = (
    "int g[8];"
    "int f(int n) { int r = -1; int i = 0;"
    "  while (i < n) { g[i & 7] = i * 3; if (i * 3 == n) { r = i; break; } i++; }"
    "  return r + g[n & 7]; }"
)


def only_region(module):
    """The blocks of ``f``'s one region, after a run."""
    interp = Interpreter(module)
    interp.call("f", [5])
    (header,) = region_headers(interp)
    return interp._segs.regions[header][0]


def exits(blocks):
    """The region's exit edges."""
    return {(b, t) for b in blocks for t in b.successors() if t not in blocks}


@pytest.mark.parametrize("n", [0, 1, 4, 9, 12, 30])
class TestLoopShapes:
    def test_nested_loop_is_one_region(self, n):
        module = module_of(NESTED)
        loops = LoopInfo(module.get_function("f")).loops
        assert len(loops) == 2
        assert set(only_region(module)) == {b for loop in loops for b in loop.blocks}
        region, segment, reference = all_three(module, "f", [n])
        assert region == segment == reference and region["error"] is None

    def test_loop_with_two_exits(self, n):
        module = module_of(TWO_EXITS)
        assert len(exits(only_region(module))) == 2
        region, segment, reference = all_three(module, "f", [n])
        assert region == segment == reference and region["error"] is None

    def test_loop_whose_exit_targets_a_phi(self, n):
        module = module_of(EXIT_TO_PHI)
        assert any(target.phis() for _, target in exits(only_region(module)))
        region, segment, reference = all_three(module, "f", [n])
        assert region == segment == reference and region["error"] is None


@pytest.mark.parametrize("optimise", [True, False], ids=["compiled", "unoptimised"])
@pytest.mark.parametrize("source", [NESTED, TWO_EXITS], ids=["nested", "two-exits"])
def test_max_steps_trips_inside_a_region_where_a_segment_trips(source, optimise):
    module = module_of(source, optimise)
    probe = Interpreter(module)
    probe.call("f", [7])
    total = probe.steps
    assert region_headers(probe) and total > 100
    for limit in range(1, total + 1):
        region, segment = (
            run(Interpreter(module, max_steps=limit), "f", [7], call)
            for call in CALLS[:2]
        )
        assert region == segment, limit
        if limit < total:
            assert region["error"] == f"exceeded max_steps={limit}"
            assert region["steps"] == limit + 1
        else:
            assert region["error"] is None


def test_a_fault_inside_a_region_leaves_the_segment_state():
    """A trap mid-region: same error, the stores before it done and none
    after, and ``steps`` counted through the faulting block, as a segment
    counts it.  (The worker may issue the division before the store
    lands, so its image is no reference here.)"""
    module = module_of(
        "int g[8]; int f(int n) { int s = 0;"
        " for (int i = 0; i < 8; i++) { g[i] = i; s += 100 / (n - i); }"
        " return s; }"
    )
    region, segment, reference = all_three(module, "f", [5])
    assert region == segment
    assert region["error"] == reference["error"] == "integer division by zero"
    assert region["steps"] == 61
    interp = Interpreter(module)
    with pytest.raises(InterpError, match="integer division by zero"):
        interp.call("f", [5])
    g = interp.global_addresses["g"]
    assert [interp.memory.load(g + 4 * i, I32) for i in range(8)] == [0, 1, 2, 3, 4, 5, 0, 0]


def test_em3d_builds_its_edge_lists_through_a_region():
    spec = next(s for s in ALL_KERNELS if s.name == "em3d")
    module = module_of(spec.source, name=spec.name)
    build = module.get_function("build_e_list")
    interp = Interpreter(module)
    interp.call(spec.setup_function, list(SMOKE_SETUP_ARGS[spec.name]))
    (walk,) = [loop for loop in LoopInfo(build).loops if not loop.children]
    assert not any(isinstance(i, Call) for i in walk.instructions())
    assert any(isinstance(i, Load) for i in walk.instructions())  # cursor = cursor->next
    assert interp._segs[walk.header][1] == 0  # one generated function: a region
    assert set(interp._segs.regions[walk.header][0]) == set(walk.blocks)


@pytest.mark.parametrize("spec", ALL_KERNELS[:3], ids=lambda s: s.name)
def test_regions_charge_the_mips_model_as_segments_do(spec):
    """Static costs land where a segment charges them: the soft-core
    model's cache sees every access at the same cycle."""
    module = module_of(spec.source, name=spec.name)
    results = []
    for find in (interpreter_module._regions, lambda function: []):
        with mock.patch.object(interpreter_module, "_regions", find):
            memory = Memory()
            mips = run_on_mips(module, spec.setup_function,
                               list(SMOKE_SETUP_ARGS[spec.name]), memory)
        results.append((mips.cycles, mips.instructions, mips.return_value,
                        memory.snapshot()))
    assert results[0] == results[1]
