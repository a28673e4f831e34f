"""Measuring stick shared by the four workloads.

Three things live here, and nothing that knows a workload:

* :class:`Meter` — wall-clock samples normalised to *reference seconds*
  by a fixed calibration loop run before and after every timed wave;
* :class:`Tracer` — in-memory spans (name, start, end, parent, operation)
  with counts at each boundary, written out as Chrome trace-event JSON;
* inputs and the oracle — seeded kernel specs, never-seen-before source
  variants for cold passes, and the interpreter reference every output
  is checked against.

Importing this module imports nothing from ``repro``; the functions that
need the program import it when called, so the launcher can time set-up
from the child's first instruction.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import statistics
import threading
import time

# --------------------------------------------------------------------------
# Reference seconds
# --------------------------------------------------------------------------

#: The calibration loop: CALIB_PARTS back-to-back parts of CALIB_ITERS
#: iterations each (~6 ms a part, ~30 ms in all on the box the bounds in
#: BENCHMARK.json were sized on).  Frozen: changing either changes the unit.
CALIB_ITERS = 30_000
CALIB_PARTS = 5

#: What one calibration loop is *defined* to cost.  A timed region's
#: reference seconds = raw seconds * CALIB_NOMINAL_S / (mean of the loop
#: timed immediately before and after it).
CALIB_NOMINAL_S = 0.030


def _calibration_part() -> float:
    start = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    ring = [0] * 64
    for i in range(CALIB_ITERS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
        ring[i & 63] = table.get((i * 7) & 255, 0) + 1
    return time.perf_counter() - start


def calibration_loop() -> float:
    """Time the fixed pure-Python loop; returns raw seconds.

    Integer arithmetic, a small dict and a small list: the same
    bytecode-dispatch-bound profile as the toolchain, with a working set
    that stays in L1 so it tracks effective clock speed (frequency,
    steal) rather than memory contention.  A heavier loop (allocation,
    a 4 MiB buffer) tracked the workloads *worse* when this was sized.

    The result is the median part times the number of parts: a stall
    that lands in one part (a 50-90 ms descheduling turned one sample in
    thirty into a 2-4x outlier) does not reach the factor.
    """
    return CALIB_PARTS * statistics.median(
        _calibration_part() for _ in range(CALIB_PARTS)
    )


@dataclasses.dataclass
class Op:
    """One timed operation inside a wave."""

    phase: str  # "cold" | "warm"
    round: int
    group: str  # kernel, or job kind for the service
    key: str  # the operation's identity across rounds
    raw_s: float
    weight: float  # units of work (1 op; 16 points for a DSE sweep)
    wave: int


@dataclasses.dataclass
class Wave:
    """A timed region bracketed by two calibration samples."""

    phase: str
    round: int
    raw_s: float
    calib: int  # index of the sample taken before; calib + 1 is after


class _OpenWave:
    def __init__(self, meter: "Meter", index: int, phase: str, round_: int):
        self._meter, self.index, self.phase, self.round = meter, index, phase, round_
        #: Set when the wave's seconds were measured elsewhere (the load
        #: generator's wall clock, or the server's CPU clock).
        self.busy_s: float | None = None

    def add(self, group: str, key: str, raw_s: float, weight: float = 1.0) -> None:
        """Record one operation (thread-safe: list.append is atomic)."""
        self._meter.ops.append(
            Op(self.phase, self.round, group, key, raw_s, weight, self.index)
        )

    def timed(self, group: str, key: str, fn, weight: float = 1.0):
        """Run ``fn()`` as one operation; exceptions become the result."""
        start = time.perf_counter()
        out = attempt(fn)
        self.add(group, key, time.perf_counter() - start, weight)
        return out


class Meter:
    """Calibration samples, waves and operations of one child run."""

    def __init__(self) -> None:
        self.calib: list[float] = []
        self.waves: list[Wave] = []
        self.ops: list[Op] = []
        self._fresh = False  # True when the last sample follows the last wave

    def calibrate(self) -> int:
        """Take a calibration sample unless the last one is still fresh."""
        if not self._fresh:
            self.calib.append(calibration_loop())
            self._fresh = True
        return len(self.calib) - 1

    def sample_now(self, n: int) -> float:
        """Median of ``n`` fresh samples (they join the run's record)."""
        taken = [calibration_loop() for _ in range(n)]
        self.calib.extend(taken)
        self._fresh = True
        return statistics.median(taken)

    @contextlib.contextmanager
    def bracket(self):
        """Calibrate before and after the body; yields the index of the
        sample taken before (the one after is the next index).  Brackets
        do not nest."""
        before = self.calibrate()
        try:
            yield before
        finally:
            self._fresh = False
            self.calibrate()

    def factor_at(self, before: int) -> float:
        """Raw → reference seconds multiplier of the bracket that began
        at calibration sample ``before``."""
        return CALIB_NOMINAL_S / ((self.calib[before] + self.calib[before + 1]) / 2)

    @contextlib.contextmanager
    def wave(self, phase: str, round_: int):
        """Time a region of operations between two calibration samples.

        Keep the body to the operations themselves — verification of
        their results belongs after the ``with`` block.
        """
        with self.bracket() as before:
            index = len(self.waves)
            self.waves.append(Wave(phase, round_, 0.0, before))
            start = time.perf_counter()
            open_wave = _OpenWave(self, index, phase, round_)
            try:
                yield open_wave
            finally:
                self.waves[index].raw_s = (
                    open_wave.busy_s if open_wave.busy_s is not None
                    else time.perf_counter() - start
                )

    def factor(self, wave: int | Wave) -> float:
        w = self.waves[wave] if isinstance(wave, int) else wave
        return self.factor_at(w.calib)

    # -- summaries -----------------------------------------------------------

    def calib_summary(self) -> dict:
        return {
            "n": len(self.calib),
            "median_s": statistics.median(self.calib),
            "spread": iqr_share(self.calib),
        }

    def summarize(self, phase: str) -> dict:
        """End-to-end statistics of one phase, in reference and raw units.

        * ``ops_per_s`` — per round, work done / summed wave time; median
          over rounds;
        * ``p50_ms`` / ``p90_ms`` — each distinct operation is first
          reduced to its median latency over rounds, then the percentile
          is taken over the operation list (nearest rank), so the
          population is the workload's fixed op mix, not a sample count
          that varies with the machine;
        * ``geomean_ms`` — geometric mean over groups of each group's
          median operation latency: every kernel / job kind weighs the
          same however long it runs.
        """
        ops = [op for op in self.ops if op.phase == phase]
        waves = [w for w in self.waves if w.phase == phase]
        if not ops:
            raise ValueError(f"no {phase} operations were measured")
        out: dict = {"samples": len(ops)}
        for unit, scale in (("ref", None), ("raw", 1.0)):
            def f(wave, scale=scale):
                return scale if scale is not None else self.factor(wave)

            rounds = sorted({w.round for w in waves})
            rates = []
            for r in rounds:
                busy = sum(w.raw_s * f(w) for w in waves if w.round == r)
                work = sum(op.weight for op in ops if op.round == r)
                rates.append(work / busy)
            by_key: dict[tuple[str, str], list[float]] = {}
            for op in ops:
                by_key.setdefault((op.group, op.key), []).append(
                    op.raw_s * f(op.wave) * 1e3
                )
            key_ms = {k: statistics.median(v) for k, v in by_key.items()}
            by_group: dict[str, list[float]] = {}
            for (group, _), ms in key_ms.items():
                by_group.setdefault(group, []).append(ms)
            group_ms = {g: statistics.median(v) for g, v in by_group.items()}
            out[unit] = {
                "ops_per_s": statistics.median(rates),
                "p50_ms": percentile(list(key_ms.values()), 0.50),
                "p90_ms": percentile(list(key_ms.values()), 0.90),
                "geomean_ms": geomean(list(group_ms.values())),
                "group_ms": group_ms,
            }
        out["rounds"] = len({w.round for w in waves})
        out["distinct_ops"] = len({(op.group, op.key) for op in ops})
        return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the value at rank ceil(q * n))."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def iqr_share(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    tid: int = 0
    factor: float = 1.0
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Name of the root spans that run an operation exactly as the untraced
#: benchmark does.
BLACK_BOX = "bench.black_box"


class Tracer:
    """Span recorder: in memory while running, written once at exit.

    A *root* span is one operation; it is bracketed by calibration
    samples like a :class:`Meter` wave, and every span below it inherits
    its raw → reference factor.  A span's name is the per-layer metric it
    feeds (``frontend.parse_s``); names that are not metrics (``op``,
    ``bench.*``) are structure only.
    """

    def __init__(self, meter: Meter) -> None:
        self.meter = meter
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def root(self, op: str, name: str = "op"):
        """One operation: calibrate, span, calibrate; sets the factor."""
        with self.meter.bracket() as before:
            with self.span(name, op=op) as span:
                yield span
        factor = self.meter.factor_at(before)
        for other in self.spans[span.id:]:
            if other.op == op:
                other.factor = factor

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None, **counts):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                op=op if op is not None else (parent.op if parent else name),
                parent=parent.id if parent else None,
                start=time.perf_counter(),
                tid=threading.get_ident(),
                counts=dict(counts),
            )
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the part covered by child spans."""
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_totals(self, names: set[str]) -> dict[str, float]:
        """Sum per metric name: reference-second self times of spans
        named after a metric, and every count recorded at a boundary."""
        own = self.self_times()
        totals: dict[str, float] = {}
        for s in self.spans:
            if s.name in names:
                totals[s.name] = totals.get(s.name, 0.0) + own[s.id] * s.factor
            for count, value in s.counts.items():
                if count not in names:
                    raise KeyError(f"span {s.name}: undeclared count {count!r}")
                totals[count] = totals.get(count, 0.0) + value
        return totals

    def total(self, name: str) -> float:
        """Reference-second self time of every span called ``name``."""
        own = self.self_times()
        return sum(own[s.id] * s.factor for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        """Reference seconds of each span called ``name``."""
        return [s.duration * s.factor for s in self.spans if s.name == name]

    def overhead_ratio(self) -> float:
        """Everything the traced run did, over the part an untraced pass
        would have done (the root spans called ``bench.black_box``)."""
        roots = [s for s in self.spans if s.parent is None]
        whole = sum(s.duration * s.factor for s in roots)
        return whole / sum(
            s.duration * s.factor for s in roots if s.name == BLACK_BOX
        )

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON (open in chrome://tracing or Perfetto)."""
        if not self.spans:
            return
        origin = min(s.start for s in self.spans)
        tids = {t: i + 1 for i, t in enumerate(sorted({s.tid for s in self.spans}))}
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": tids[s.tid],
                "args": {"id": s.id, "parent": s.parent, "op": s.op, **s.counts},
            }
            for s in self.spans
        ]
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


class NullTracer:
    """The untraced path's tracer: the same calls, nothing kept."""

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        yield Span(id=-1, name=name, op="", parent=None, start=0.0)


# --------------------------------------------------------------------------
# Correctness accounting
# --------------------------------------------------------------------------


class Checker:
    """Attempted / failed operations; a failure is never just a warning."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._pinned: dict[str, object] = {}

    def record(self, what: str, problems: list[str]) -> bool:
        """Count one operation; ``problems`` non-empty means it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def pinned(self, what: str, value) -> list[str]:
        """Exactness: every later sighting of ``what`` must equal the
        first (cycles, ALUTs, energy, Verilog bytes across rounds)."""
        first = self._pinned.setdefault(what, value)
        if first != value:
            return [f"{what} changed between rounds: {first!r} -> {value!r}"]
        return []


def attempt(fn):
    """``fn()``, or the exception it raised: an operation that fails is
    counted (see :func:`problems_of`), it does not end the benchmark."""
    try:
        return fn()
    except Exception as exc:  # boundary: the caller counts it as failed
        return exc


def problems_of(result) -> list[str]:
    """An operation that raised is a failed operation."""
    if isinstance(result, Exception):
        return [f"{type(result).__name__}: {result}"]
    return []


def close(a, b, rel: float = 1e-9) -> bool:
    """The harness's own cross-backend tolerance: exact for ints, 1e-9
    relative for floats (pipelines may reassociate a float reduction)."""
    if a is None or b is None:
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        scale = max(abs(float(a)), abs(float(b)), 1.0)
        return abs(float(a) - float(b)) <= rel * scale
    return a == b


# --------------------------------------------------------------------------
# Inputs and the oracle
# --------------------------------------------------------------------------

#: Kernels of ``--quick`` (cheap to set up, one of each pipeline shape).
QUICK_KERNELS = ("ks", "bfs", "spmv")

_LCG_INIT = "int rng_state = 12345;"
_LCG_RESEED = "rng_state = seed *"


def seeded_spec(spec, seed: int):
    """The kernel with seed-dependent data at paper-scale sizes.

    Seed 0 is the registered spec.  Any other seed changes the initial
    state of the LCG every kernel's ``setup`` draws its data from, so
    values, pointers and hash chains differ while the sizes — and so the
    amount of work, to within 0.1 % of cycles — stay at paper scale.
    ``spec.with_workload(seed)`` was not used: it draws *sizes* (ks
    12..64 squared is a 28x range of work), and the ten differently
    seeded runs the bounds are checked on must do comparable work.

    Kernels whose ``setup`` reseeds the LCG from an argument keep their
    registered data: their control flow follows the data (a BFS frontier
    dies at the root for one seed in seven), so a reseed moves their
    work by up to 40x.
    """
    if seed == 0 or _LCG_RESEED in spec.source:
        return spec
    if _LCG_INIT not in spec.source:
        raise ValueError(f"{spec.name}: no LCG initialiser to seed")
    state = 12345 + 7919 * seed
    return dataclasses.replace(
        spec, source=spec.source.replace(_LCG_INIT, f"int rng_state = {state};")
    )


def variant(spec, n: int):
    """The same program and data under source text no cache has seen.

    Every content-addressed layer (store keys, evaluator and workload
    memos) keys on the source string, so a trailing comment makes pass
    ``n`` cold in a warm process while cycles, ALUTs, energy and Verilog
    stay bit-identical — which the per-round exactness check relies on.
    """
    return dataclasses.replace(
        spec, source=f"{spec.source}\n/* layers-bench pass {n} */\n"
    )


def select_kernels(seed: int, quick: bool, names=None) -> list:
    from repro.kernels import ALL_KERNELS

    specs = [
        s for s in ALL_KERNELS
        if (not quick or s.name in QUICK_KERNELS)
        and (names is None or s.name in names)
    ]
    return [seeded_spec(s, seed) for s in specs]


def ir_instructions(module) -> int:
    return sum(1 for f in module.functions.values() for _ in f.instructions())


def quality_geomeans(cycles, aluts, energy_uj) -> dict:
    """The exact, seed-dependent design-quality numbers of a workload."""
    if not cycles:
        return {}
    return {
        "hw.sim_cycles_geomean": geomean(cycles),
        "cost.aluts_geomean": geomean(aluts),
        "cost.energy_uj_geomean": geomean(energy_uj),
    }


@dataclasses.dataclass
class Reference:
    """What the sequential interpreter says one kernel run produces."""

    return_value: object
    checksum: float
    steps: int


def oracle_reference(spec, setup_args=None) -> Reference:
    """Interpret the *untransformed, unoptimised* module end to end.

    ``compile_c`` output goes straight to the tree-walking interpreter:
    no optimiser, no pipeline transform, no simulator — so the reference
    is independent of every layer whose output it judges (the front end
    is shared; a parse bug is out of this oracle's reach).
    """
    from repro.frontend import compile_c
    from repro.interp import Interpreter, to_unsigned
    from repro.ir import I32
    from repro.kernels import KARGS_GLOBAL

    module = compile_c(spec.source, spec.name)
    interp = Interpreter(module)
    args = list(spec.setup_args if setup_args is None else setup_args)
    interp.call(spec.setup_function, args)
    kargs = interp.global_addresses[KARGS_GLOBAL]
    kernel_args = [
        to_unsigned(interp.memory.load(kargs + 4 * i, I32), 32)
        for i in range(spec.n_kernel_args)
    ]
    returned = interp.call(spec.measure_entry, kernel_args)
    checksum = interp.call(spec.check_function, [])
    return Reference(returned, checksum, interp.steps)


def against_reference(ref: Reference, return_value, checksum) -> list[str]:
    problems = []
    if not close(checksum, ref.checksum):
        problems.append(f"checksum {checksum!r} != oracle {ref.checksum!r}")
    if return_value is not None and not close(return_value, ref.return_value):
        problems.append(f"returned {return_value!r} != oracle {ref.return_value!r}")
    return problems
