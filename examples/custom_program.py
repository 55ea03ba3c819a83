"""Bring-your-own-program walkthrough.

Shows the full API surface on a hand-written assembly program: assemble,
inspect the CFG, profile it, estimate its error-rate distribution, and
break the expected error count down by basic block and instruction — the
per-instruction view an architect would use to find *where* a kernel is
vulnerable to timing speculation.

Run:  python examples/custom_program.py
"""

import numpy as np

from repro.cfg import build_cfg
from repro.core import ProcessorModel
from repro.cpu import MachineState, assemble
from repro.pipeline.pipeline import EstimationPipeline

# A dot-product kernel with a scaling pass: multiply-accumulate inner
# loop (deep datapath activity) plus a branchy normalization loop.
SOURCE = """
        li   r1, 0          ; i
        li   r2, 0          ; accumulator
dot_loop:
        ld   r3, [r1+0x1000]
        ld   r4, [r1+0x2000]
        mul  r5, r3, r4
        add  r2, r2, r5
        inc  r1
        cmp  r1, 64
        blt  dot_loop
        st   r2, [r0+0x3000]
; normalize: shift the accumulator until it fits in 8 bits
        li   r6, 0
norm_loop:
        cmp  r2, 255
        ble  norm_done
        srl  r2, r2, 1
        inc  r6
        ba   norm_loop
norm_done:
        st   r2, [r0+0x3001]
        st   r6, [r0+0x3002]
        halt
"""


def setup(state: MachineState) -> None:
    rng = np.random.default_rng(42)
    state.load_words(0x1000, rng.integers(0, 256, size=64))
    state.load_words(0x2000, rng.integers(0, 256, size=64))


def main() -> None:
    program = assemble(SOURCE, name="dotprod")
    print("program listing:")
    print(program.listing())

    cfg = build_cfg(program)
    print(f"\nCFG: {cfg.summary()}")

    processor = ProcessorModel()
    estimator = EstimationPipeline(processor)
    artifacts = estimator.train(program, setup=setup)
    report = estimator.estimate(program, artifacts, setup=setup)
    print(f"\n{report}")

    # Per-instruction breakdown of the expected error count.
    rows = estimator.instruction_breakdown(program, artifacts, setup=setup)
    lam = sum(r["expected_errors"] for r in rows)
    print(f"\nexpected errors (lambda) = {lam:.1f}; top contributors:")
    print(f"  {'E[errors]':>10s} {'share':>6s}  instruction")
    for row in rows[:8]:
        print(
            f"  {row['expected_errors']:10.2f} "
            f"{100.0 * row['share']:5.1f}%  "
            f"B{row['block']}: {row['instruction']}"
        )

    print(
        "\nreading the table: the multiply-accumulate pair dominates the "
        "kernel's\nvulnerability — an architect could pad only those "
        "instructions' timing\n(or steer them to a slower clock) instead "
        "of slowing the whole loop."
    )


if __name__ == "__main__":
    main()
