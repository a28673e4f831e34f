"""Tests for the MIPS soft-core baseline cost model.

``PINNED_MIPS`` holds sha256[:16] digests of what the model reports for
each kernel's measure entry on its paper-scale image under three caches,
the ``(addr, is_write, cycle)`` of every access the cache saw included;
``PINNED_PROFILES`` holds digests of the profiler's counts for the same
calls.  They are not regenerated from this checkout: a new value comes
only from a checkout whose cost model is known good, ``PYTHONPATH=<that
checkout>/src python -c "import tests.test_hw_mips as t;
print(t.compute_digests())"`` run from the repository root.
"""

import hashlib

import pytest

from repro.frontend import compile_c
from repro.harness.build import compile_module
from repro.harness.runner import interned_workload
from repro.hw import DirectMappedCache, run_on_mips
from repro.interp import Interpreter, Memory, profile_call
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.transforms import optimize_module

#: Cache configurations of the pinned runs: ``run_backend``'s mips cache,
#: one whose bus reservation makes latency depend on the access cycle,
#: and a single-ported fast one.
PINNED_CACHES = {
    "default": {},
    "prefetch": {"next_line_prefetch": True},
    "port1": {"ports": 1, "miss_penalty": 2},
}

PINNED_MIPS = {
    "1D-Gaussblur/default": "f778baef6b8b630d",
    "1D-Gaussblur/port1": "9119bab0d3713b55",
    "1D-Gaussblur/prefetch": "a872afd1ea2798e8",
    "Hash-indexing/default": "ff0d4d5c7b0b95f4",
    "Hash-indexing/port1": "b626f8b63415b498",
    "Hash-indexing/prefetch": "a29e9db0f8d0c0d4",
    "K-means/default": "acc02052e0a4c385",
    "K-means/port1": "e9d9f10c5be1acba",
    "K-means/prefetch": "5050e3fffa9997c5",
    "bfs/default": "429608e72aee7208",
    "bfs/port1": "be98f6b58c9431b6",
    "bfs/prefetch": "edb932c134a2c3c8",
    "em3d/default": "d4037bdfb7a33f94",
    "em3d/port1": "b30782c6bfada15b",
    "em3d/prefetch": "cab2546f5ce102a4",
    "hash-join/default": "2144bb236a445f42",
    "hash-join/port1": "61c0b85ce6415e70",
    "hash-join/prefetch": "c9c7de4e9e5ac821",
    "ks/default": "e57e6e91b1602b6c",
    "ks/port1": "f6571a03e3f25deb",
    "ks/prefetch": "ff3ec780eea749b7",
    "spmv/default": "d948e810e00eb38f",
    "spmv/port1": "82d527090fe31a8f",
    "spmv/prefetch": "ec8cf44dd977e2b2",
    "top-k/default": "525e4d67e0fd2a8c",
    "top-k/port1": "665c1f1f24d339cb",
    "top-k/prefetch": "4beb6b41dddf2902",
}

PINNED_PROFILES = {
    "1D-Gaussblur": "5997cdfd4dd8724d",
    "Hash-indexing": "62e4f0cc25ad5a2a",
    "K-means": "2c9367ac2431d5d1",
    "bfs": "fd96792548f595a5",
    "em3d": "17f8dae24aadb0ba",
    "hash-join": "08f66a22ac6c6517",
    "ks": "c3126cc9fac93042",
    "spmv": "ce449b578f0c65cb",
    "top-k": "5df7339c09a480f2",
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def mips_digest(spec, cache_kwargs) -> str:
    """Cycles, instructions, return value, cache stats and every access."""
    module = compile_module(spec)
    memory, globals_, args = interned_workload(module, spec)
    cache = DirectMappedCache(**cache_kwargs)
    accesses = []
    access = cache.access

    def recording(addr, is_write, cycle):
        accesses.append((addr, is_write, cycle))
        return access(addr, is_write, cycle)

    cache.access = recording
    result = run_on_mips(
        module, spec.measure_entry, args, memory, cache=cache,
        global_addresses=globals_,
    )
    return _digest((
        result.cycles, result.instructions, result.return_value,
        cache.stats.to_dict(), accesses,
    ))


def profile_digest(spec) -> str:
    """Instruction, block and edge counts of one profiled measure entry."""
    module = compile_module(spec)
    memory, _, args = interned_workload(module, spec)
    profile = profile_call(module, spec.measure_entry, args, memory)
    functions = [f for f in module.functions.values() if not f.is_declaration]
    blocks = [b for f in functions for b in f.blocks]
    return _digest((
        [profile.count(i) for f in functions for i in f.instructions()],
        [profile.block_counts.get(id(b), 0) for b in blocks],
        [profile.edge_counts.get((id(b), id(s)), 0)
         for b in blocks for s in b.successors()],
        sum(profile.inst_counts.values()), sum(profile.block_counts.values()),
        sum(profile.edge_counts.values()), repr(profile.return_value),
    ))


def compute_digests() -> tuple[dict, dict]:
    mips = {
        f"{spec.name}/{name}": mips_digest(spec, kwargs)
        for spec in ALL_KERNELS for name, kwargs in PINNED_CACHES.items()
    }
    profiles = {spec.name: profile_digest(spec) for spec in ALL_KERNELS}
    return mips, profiles


@pytest.mark.parametrize("key", sorted(PINNED_MIPS))
def test_pinned_mips_digests(key):
    name, cache = key.split("/")
    assert mips_digest(KERNELS_BY_NAME[name], PINNED_CACHES[cache]) == PINNED_MIPS[key]


@pytest.mark.parametrize("name", sorted(PINNED_PROFILES))
def test_pinned_profile_digests(name):
    assert profile_digest(KERNELS_BY_NAME[name]) == PINNED_PROFILES[name]


def test_every_kernel_and_cache_is_pinned():
    assert set(PINNED_MIPS) == {
        f"{s.name}/{c}" for s in ALL_KERNELS for c in PINNED_CACHES
    }
    assert set(PINNED_PROFILES) == {s.name for s in ALL_KERNELS}


def run(source, entry, args, **kw):
    module = compile_c(source)
    optimize_module(module)
    return run_on_mips(module, entry, args, Memory(), **kw)


class TestCostModel:
    def test_functional_result_exact(self):
        src = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i * i; return s; }"
        result = run(src, "f", [20])
        assert result.return_value == sum(i * i for i in range(20))

    def test_cycles_scale_with_work(self):
        src = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }"
        small = run(src, "f", [10])
        large = run(src, "f", [100])
        assert 5 < large.cycles / small.cycles < 15

    def test_fp_more_expensive_than_int(self):
        int_src = "int f(int n) { int s = 1; for (int i = 0; i < n; i++) s = s * 3; return s; }"
        fp_src = "double f(int n) { double s = 1.0; for (int i = 0; i < n; i++) s = s * 3.0; return (double)(int)s; }"
        int_run = run(int_src, "f", [30])
        fp_run = run(fp_src, "f", [30])
        assert fp_run.cycles > int_run.cycles

    def test_instruction_count_tracked(self):
        result = run("int f(int a, int b) { return a + b; }", "f", [1, 2])
        assert result.instructions >= 2  # add + ret

    def test_cache_latency_charged(self):
        src = (
            "void* malloc(int n);"
            "int f(int n) {"
            "  int* a = (int*)malloc(n * 256);"
            "  int s = 0;"
            "  for (int i = 0; i < n; i++) s += a[i * 64];"
            "  return s; }"
        )
        module = compile_c(src)
        optimize_module(module)
        fast = run_on_mips(module, "f", [32], Memory(),
                           cache=DirectMappedCache(ports=1, miss_penalty=2))
        module2 = compile_c(src)
        optimize_module(module2)
        slow = run_on_mips(module2, "f", [32], Memory(),
                           cache=DirectMappedCache(ports=1, miss_penalty=100))
        assert slow.cycles > fast.cycles + 32 * 80

    def test_memory_writes_visible_afterwards(self):
        src = (
            "void* malloc(int n);"
            "int g_out = 0;"
            "void f(int v) { g_out = v * 3; }"
        )
        module = compile_c(src)
        optimize_module(module)
        memory = Memory()
        probe = Interpreter(module, memory)
        result = run_on_mips(module, "f", [5], memory,
                             global_addresses=probe.global_addresses)
        from repro.ir import I32
        assert memory.load(probe.global_addresses["g_out"], I32) == 15

    def test_shared_global_addresses(self):
        # Without shared globals the model would re-place (and zero) them.
        src = "double coef = 2.5; double f(double x) { return x * coef; }"
        module = compile_c(src)
        optimize_module(module)
        setup = Interpreter(module)
        result = run_on_mips(module, "f", [4.0], setup.memory,
                             global_addresses=setup.global_addresses)
        assert result.return_value == 10.0


@pytest.mark.parametrize("cache_kwargs,cycles,prefetches", [
    ({}, 384, 0),
    ({"ports": 1, "miss_penalty": 2}, 362, 0),
    ({"next_line_prefetch": True}, 384, 1),
], ids=["default", "port1", "prefetch"])
def test_placing_initialised_globals_is_charged_before_the_call(
    cache_kwargs, cycles, prefetches
):
    """Without ``global_addresses`` the model places the globals itself:
    their initialiser writes reach the cache from cycle 0, and the call
    starts when the last one is done (values from the hook-driven model
    this one replaced)."""
    result = run(
        "double coef[3] = {1.5, 2.5, 3.5}; int n = 7;"
        "double f(int i) { double s = 0.0;"
        " for (int k = 0; k < i; k++) s += coef[k % 3] * n; return s; }",
        "f", [5], cache=DirectMappedCache(**cache_kwargs),
    )
    assert (result.cycles, result.instructions, result.return_value) == (cycles, 76, 80.5)
    assert result.cache.stats.to_dict() == {
        "hits": 13, "misses": 1, "writebacks": 0, "port_conflicts": 0,
        "prefetches": prefetches,
    }
