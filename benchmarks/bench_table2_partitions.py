"""Table 2: the pipeline partition CGPA derives for each kernel.

Regenerates the stage-shape column of the paper's Table 2 (P1) and the
P2 column for the two kernels where replicated data-level parallelism
applies.  The benchmarked quantity is the full compiler flow (frontend ->
PDG -> partition) for all five kernels.
"""

from conftest import emit

from repro.harness import format_table2, table2
from repro.harness.build import compile_kernel
from repro.kernels import ALL_KERNELS


def compile_all_partitions():
    return {spec.name: compile_kernel(spec).signature for spec in ALL_KERNELS}


def test_table2_partitions(benchmark, all_runs, results_dir):
    signatures = benchmark.pedantic(compile_all_partitions, rounds=1, iterations=1)
    rows = table2(all_runs)
    emit(results_dir, "table2_partitions", format_table2(rows))
    for row in rows:
        assert row.p1_matches, f"{row.kernel}: {row.measured_p1} != {row.expected_p1}"
        assert row.p2_matches, f"{row.kernel}: P2 {row.measured_p2} != {row.expected_p2}"
    assert signatures  # compiler flow ran inside the benchmark
