"""Tests for the IR printer (determinism, coverage) and verifier (negatives)."""

import pytest

from repro.errors import IRError
from repro.frontend import compile_c
from repro.ir import (
    BOOL,
    BasicBlock,
    BinaryOp,
    Channel,
    CondBranch,
    Constant,
    Consume,
    FunctionType,
    I32,
    IRBuilder,
    Jump,
    Module,
    ParallelFork,
    ParallelJoin,
    Phi,
    Produce,
    ProduceBroadcast,
    Ret,
    RetrieveLiveout,
    StoreLiveout,
    VOID,
    print_function,
    print_instruction,
    print_module,
    verify_function,
    verify_module,
)
from repro.transforms import optimize_module


class TestPrinter:
    def test_deterministic(self):
        module = compile_c("int f(int a) { return a * 2 + 1; }")
        assert print_module(module) == print_module(module)

    def test_covers_all_kernel_instructions(self):
        from repro.kernels import ALL_KERNELS
        for spec in ALL_KERNELS:
            module = compile_c(spec.source, spec.name)
            optimize_module(module)
            text = print_module(module)
            assert "<unprintable>" not in text

    def test_primitives_printed(self):
        chan = Channel(3, "vals", I32, 0, 1, n_channels=4)
        c0 = Constant(I32, 0)
        assert "produce buf3" in print_instruction(Produce(chan, c0, c0))
        assert "produce_broadcast buf3" in print_instruction(
            ProduceBroadcast(chan, c0)
        )
        assert "consume" in print_instruction(Consume(chan, I32))
        assert "buf3[" in print_instruction(Consume(chan, I32, c0))
        assert "store_liveout #2" in print_instruction(StoreLiveout(2, c0))
        assert "retrieve_liveout" in print_instruction(RetrieveLiveout(2, I32))
        assert "parallel_join loop7" in print_instruction(ParallelJoin(7))

    def test_fork_shows_task_and_worker(self):
        m = Module("m")
        task = m.new_function("mytask", FunctionType(VOID, []), [])
        fork = ParallelFork(0, task, [], 2)
        text = print_instruction(fork)
        assert "@mytask" in text and "worker=2" in text

    def test_struct_and_global_headers(self):
        module = compile_c(
            "typedef struct pt { double x; int k; } pt_t;\n"
            "int counter = 5;\n"
            "int f(pt_t* p) { return p->k + counter; }"
        )
        text = print_module(module)
        assert "%pt = type {" in text
        assert "@counter = global" in text


class TestVerifierNegatives:
    def _fn(self):
        m = Module("m")
        f = m.new_function("f", FunctionType(I32, [I32]), ["x"])
        return m, f

    def test_unterminated_block(self):
        m, f = self._fn()
        bb = f.new_block("entry")
        bb.append(BinaryOp("add", f.args[0], Constant(I32, 1)))
        with pytest.raises(IRError, match="not terminated"):
            verify_function(f)

    def test_phi_after_non_phi(self):
        m, f = self._fn()
        entry = f.new_block("entry")
        b = IRBuilder(entry)
        add = b.add(f.args[0], b.const_int(1))
        phi = Phi(I32)
        entry.instructions.append(phi)  # illegally after the add
        phi.parent = entry
        entry.append(Ret(add))
        with pytest.raises(IRError, match="phi after non-phi"):
            verify_function(f)

    def test_branch_to_foreign_block(self):
        m, f = self._fn()
        entry = f.new_block("entry")
        foreign = BasicBlock("elsewhere")
        entry.append(Jump(foreign))
        with pytest.raises(IRError, match="outside the function"):
            verify_function(f)

    def test_phi_pred_mismatch(self):
        m, f = self._fn()
        entry = f.new_block("entry")
        other = f.new_block("other")
        merge = f.new_block("merge")
        b = IRBuilder(entry)
        cond = b.icmp("sgt", f.args[0], b.const_int(0))
        b.cond_branch(cond, other, merge)
        b.set_block(other)
        b.jump(merge)
        phi = Phi(I32)
        merge.insert(0, phi)
        phi.add_incoming(Constant(I32, 1), entry)  # missing arm from other
        b.set_block(merge)
        b.ret(phi)
        with pytest.raises(IRError, match="predecessors"):
            verify_function(f)

    def test_use_list_corruption_detected(self):
        m, f = self._fn()
        entry = f.new_block("entry")
        b = IRBuilder(entry)
        add = b.add(f.args[0], b.const_int(1))
        mul = b.mul(add, b.const_int(2))
        b.ret(mul)
        # Corrupt: remove mul from add's users behind the API's back.
        del add._users[mul]
        with pytest.raises(IRError, match="use-list"):
            verify_function(f)

    def test_cross_function_use_detected(self):
        m = Module("m")
        f1 = m.new_function("f1", FunctionType(I32, [I32]), ["x"])
        b1 = IRBuilder(f1.new_block("entry"))
        add = b1.add(f1.args[0], b1.const_int(1))
        b1.ret(add)
        f2 = m.new_function("f2", FunctionType(I32, []), [])
        b2 = IRBuilder(f2.new_block("entry"))
        b2.ret(add)  # uses f1's instruction
        with pytest.raises(IRError, match="another function"):
            verify_function(f2)

    def test_terminator_in_middle(self):
        m, f = self._fn()
        entry = f.new_block("entry")
        entry.instructions.append(Ret(Constant(I32, 0)))
        entry.instructions[-1].parent = entry
        entry.instructions.append(Ret(Constant(I32, 1)))
        entry.instructions[-1].parent = entry
        with pytest.raises(IRError, match="middle"):
            verify_function(f)

    def test_whole_module_verification(self):
        from repro.kernels import ALL_KERNELS
        for spec in ALL_KERNELS:
            module = compile_c(spec.source, spec.name)
            verify_module(module)
            optimize_module(module)
            verify_module(module)
