#!/usr/bin/env python3
"""Walkthrough: how CGPA pipelines the paper's em3d motivating example.

Shows each compiler phase on the paper's Fig. 1 loop: the PDG SCC
classification (parallel / replicable / sequential), the P1 vs P2
partitions of Table 2, the generated task IR with the Table 1 primitives
(produce / produce_broadcast / consume, the ``it & MASK`` worker dispatch
of Fig. 1(e)), and the resulting speedup under the cycle-accurate model.

Run:  python examples/em3d_pipeline.py
"""

from repro.frontend import compile_c
from repro.harness import run_kernel
from repro.ir import print_function
from repro.kernels import EM3D
from repro.pipeline import ReplicationPolicy, cgpa_compile
from repro.transforms import optimize_module


def main() -> None:
    module = compile_c(EM3D.source, "em3d")
    optimize_module(module)
    shapes = EM3D.shapes_for(module)

    print("=" * 72)
    print("Phase 1-2: PDG construction and SCC classification")
    print("=" * 72)
    compiled = cgpa_compile(
        module, "kernel", shapes=shapes, policy=ReplicationPolicy.P1
    )
    summary = compiled.pdg.summary()
    print(f"SCCs: {summary['parallel']} parallel, "
          f"{summary['replicable']} replicable, "
          f"{summary['sequential']} sequential")
    for scc in compiled.pdg.sccs:
        if scc.is_replicable:
            weight = "lightweight" if scc.is_lightweight else "HEAVYWEIGHT"
            print(f"  replicable SCC #{scc.index}: {len(scc.instructions)} "
                  f"insts, {weight} "
                  f"({'traversal' if not scc.is_lightweight else 'control'})")

    print()
    print("=" * 72)
    print("Phase 3: pipeline partition (paper Table 2)")
    print("=" * 72)
    print(f"P1 (heuristic): {compiled.signature}   <- traversal in a "
          f"sequential stage")
    module_p2 = compile_c(EM3D.source, "em3d_p2")
    optimize_module(module_p2)
    compiled_p2 = cgpa_compile(
        module_p2, "kernel", shapes=EM3D.shapes_for(module_p2),
        policy=ReplicationPolicy.P2,
    )
    print(f"P2 (forced)   : {compiled_p2.signature}      <- traversal "
          f"replicated into all 4 workers (Fig. 1(b))")

    print()
    print("=" * 72)
    print("Phase 4: generated tasks (compare with paper Fig. 1(e))")
    print("=" * 72)
    for task in compiled.result.tasks:
        info = task.task_info
        kind = f"parallel x{info.n_workers}" if info.is_parallel else "sequential"
        print(f"--- stage {info.stage_index} ({kind}) ---")
        print(print_function(task))
        print()

    print("=" * 72)
    print("Phase 5: cycle-accurate simulation")
    print("=" * 72)
    run = run_kernel(EM3D, ("mips", "legup", "cgpa-p1", "cgpa-p2"))
    mips = run.results["mips"].cycles
    for backend in ("mips", "legup", "cgpa-p1", "cgpa-p2"):
        result = run.results[backend]
        print(f"{backend:8s}: {result.cycles:7d} cycles "
              f"({mips / result.cycles:4.2f}x vs MIPS)")
    p1 = run.results["cgpa-p1"]
    p2 = run.results["cgpa-p2"]
    print(f"\nP1 beats P2 by {100 * (p2.cycles / p1.cycles - 1):.0f}% "
          f"(paper: 6%) and uses "
          f"{100 * (1 - p1.energy_uj / p2.energy_uj):.0f}% less energy "
          f"(paper: 11%)")


if __name__ == "__main__":
    main()
