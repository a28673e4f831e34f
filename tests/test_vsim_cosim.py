"""RTL co-simulation acceptance: emitted Verilog vs the interpreter oracle.

The PR's headline property: for every kernel and policy, every emitted
worker module simulates to ``finish`` in vsim with live-outs, FIFO
traffic and the final memory image bit-identical to the interpreter.
"""

import struct

import pytest

from repro.errors import CgpaError
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.vsim.cosim import (
    SMOKE_SETUP_ARGS,
    run_rtl_cosim,
    value_to_bits,
)

_CASES = []
for _spec in ALL_KERNELS:
    for _policy in ["p1", "none"] + (["p2"] if _spec.supports_p2 else []):
        _CASES.append((_spec.name, _policy))


@pytest.mark.parametrize(
    "kernel,policy", _CASES, ids=[f"{k}-{p}" for k, p in _CASES]
)
class TestBitIdenticalCosim:
    def test_liveouts_traffic_and_memory_match_oracle(self, kernel, policy):
        report = run_rtl_cosim(kernel, policy=policy)
        assert report.rounds, "oracle recorded no fork/join rounds"
        for rnd in report.rounds:
            assert rnd.memory_diff is None, rnd.memory_diff
            assert rnd.queue_diff is None, rnd.queue_diff
            for inst in rnd.instances:
                assert inst.cycles > 0, f"{inst.tag} never finished"
                assert inst.traffic_diff is None, (
                    f"{inst.tag}: {inst.traffic_diff}"
                )
                for diff in inst.liveouts:
                    assert diff.oracle_bits == diff.rtl_bits, (
                        f"{inst.tag} liveout[{diff.liveout_id}]"
                    )
        assert report.ok
        assert "bit-identical" in report.format()


class TestRoundSharedQueues:
    def test_deep_queue_fifo_order(self):
        # Regression: round queues are deques now — the per-edge head
        # pop used to be an O(n) list pop(0), quadratic over a deep
        # FIFO's lifetime.  FIFO order, head peek and extend semantics
        # must be unchanged.
        from repro.interp import Memory
        from repro.vsim.cosim import _RoundShared

        shared = _RoundShared(Memory(), {0: 1}, fifo_depth=4, liveouts={})
        queue = shared.queue(0, 0)
        n = 50_000
        queue.extend(range(n))
        assert shared.queue(0, 0) is queue  # setdefault, not replace
        assert queue[0] == 0  # head peek
        for expected in range(n):
            assert queue.popleft() == expected
        assert not queue


class TestCosimHarness:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(CgpaError, match="unknown kernel"):
            run_rtl_cosim("nope")

    def test_unknown_policy_rejected(self):
        with pytest.raises(CgpaError, match="unknown policy"):
            run_rtl_cosim("ks", policy="p9")

    def test_p2_rejected_where_unsupported(self):
        spec = KERNELS_BY_NAME["ks"]
        assert not spec.supports_p2
        with pytest.raises(CgpaError, match="does not support P2"):
            run_rtl_cosim("ks", policy="p2")

    def test_smoke_args_cover_every_kernel(self):
        assert set(SMOKE_SETUP_ARGS) == {s.name for s in ALL_KERNELS}

    def test_report_carries_oracle_checksum(self):
        report = run_rtl_cosim("ks")
        assert report.oracle_result is not None
        assert report.total_cycles > 0
        assert report.kernel == "ks"

    def test_emit_dir_writes_modules_and_testbenches(self, tmp_path):
        report = run_rtl_cosim("ks", emit_dir=tmp_path)
        assert report.ok
        modules = sorted(p.name for p in tmp_path.glob("*.v"))
        assert any(name.endswith("_tb.v") for name in modules)
        benches = [p for p in tmp_path.glob("*_tb.v")]
        text = benches[0].read_text()
        assert '"PASS"' in text  # oracle-scripted self-checking bench

    def test_spec_object_accepted_directly(self):
        report = run_rtl_cosim(KERNELS_BY_NAME["em3d"], policy="none")
        assert report.ok


class TestRtlCli:
    def test_rtl_cli_smoke(self, capsys):
        from repro.harness.__main__ import main

        rc = main(["rtl", "ks"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RTL co-simulation: ks" in out
        assert "bit-identical" in out
        assert "final: OK" in out

    def test_rtl_cli_emit_dir(self, capsys, tmp_path):
        from repro.harness.__main__ import main

        rc = main(["rtl", "em3d", "--policy", "none",
                   "--emit-dir", str(tmp_path)])
        assert rc == 0
        assert list(tmp_path.glob("*_tb.v"))

    def test_rtl_cli_rejects_unknown_kernel(self):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(["rtl", "nope"])

    def test_rtl_cli_budget_failure_is_one_line_exit_1(self, capsys):
        from repro.harness.__main__ import main

        rc = main(["rtl", "ks", "--max-cycles", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: round 0: cycle budget (10) exceeded")


class TestValueToBits:
    def test_int_width_masking(self):
        assert value_to_bits(-1, 32) == 0xFFFFFFFF
        assert value_to_bits(5, 8) == 5
        assert value_to_bits(True, 1) == 1

    def test_float_is_ieee754_pattern(self):
        expected = int.from_bytes(struct.pack("<d", 1.5), "little")
        assert value_to_bits(1.5, 64) == expected
        expected32 = int.from_bytes(struct.pack("<f", 1.5), "little")
        assert value_to_bits(1.5, 32) == expected32
