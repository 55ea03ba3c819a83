"""Automotive-category workloads: ``basicmath`` and ``bitcount``.

MiBench analogues: ``basicmath`` performs integer square roots (bitwise
shift-subtract, no divider in the ISA) and quadratic polynomial evaluation
over an input vector; ``bitcount`` runs four classic population-count
algorithms (naive shift loop, Kernighan, nibble table lookup, SWAR) over a
value vector and accumulates per-method totals.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.cpu.state import MachineState
from repro.workloads.base import Dataset, Workload, make_workload

__all__ = ["build_basicmath", "build_bitcount"]

_N_ADDR = 0x0FF0
_A_ADDR, _B_ADDR, _C_ADDR = 0x0FF1, 0x0FF2, 0x0FF3
_IN = 0x1000
_SQRT_OUT = 0x4000
_POLY_OUT = 0x5000

_BASICMATH_SRC = """
; basicmath: integer sqrt + polynomial evaluation over an input vector.
        li   r1, 0              ; i = 0
main_loop:
        ld   r14, [r0+0x0FF0]   ; N
        cmp  r1, r14
        bge  done
        li   r2, 0x1000
        add  r2, r2, r1
        ld   r3, [r2+0]         ; x
; ---- bitwise integer square root: result in r4
        li   r4, 0              ; res
        li   r5, 16384          ; bit = 1 << 14
sqrt_loop:
        cmp  r5, 0
        beq  sqrt_done
        add  r6, r4, r5         ; t = res + bit
        cmp  r3, r6
        bcs  sqrt_skip          ; x < t (unsigned)
        sub  r3, r3, r6
        srl  r4, r4, 1
        add  r4, r4, r5
        ba   sqrt_next
sqrt_skip:
        srl  r4, r4, 1
sqrt_next:
        srl  r5, r5, 2
        ba   sqrt_loop
sqrt_done:
        li   r7, 0x4000
        add  r7, r7, r1
        st   r4, [r7+0]
; ---- polynomial a*x^2 + b*x + c (mod 2^16)
        ld   r3, [r2+0]         ; reload x (sqrt destroyed it)
        ld   r8, [r0+0x0FF1]    ; a
        ld   r9, [r0+0x0FF2]    ; b
        ld   r10, [r0+0x0FF3]   ; c
        mul  r11, r3, r3
        mul  r11, r11, r8
        mul  r12, r3, r9
        add  r11, r11, r12
        add  r11, r11, r10
        li   r7, 0x5000
        add  r7, r7, r1
        st   r11, [r7+0]
        inc  r1
        ba   main_loop
done:
        halt
"""


def _basicmath_params(dataset: Dataset) -> dict:
    n = 140 if dataset.scale == "small" else 2200
    rng = as_rng(dataset.seed)
    values = rng.integers(0, 1 << 16, size=n)
    coeffs = rng.integers(1, 64, size=3)
    return {"n": n, "values": values, "coeffs": coeffs}


def _basicmath_generate(state: MachineState, dataset: Dataset) -> None:
    p = _basicmath_params(dataset)
    dataset.params.update(p)
    state.write_mem(_N_ADDR, p["n"])
    state.write_mem(_A_ADDR, int(p["coeffs"][0]))
    state.write_mem(_B_ADDR, int(p["coeffs"][1]))
    state.write_mem(_C_ADDR, int(p["coeffs"][2]))
    state.load_words(_IN, p["values"])


def _isqrt16(x: int) -> int:
    res = 0
    bit = 1 << 14
    while bit:
        t = res + bit
        if x >= t:
            x -= t
            res = (res >> 1) + bit
        else:
            res >>= 1
        bit >>= 2
    return res


def _basicmath_verify(state: MachineState, dataset: Dataset) -> bool:
    p = _basicmath_params(dataset)
    a, b, c = (int(v) for v in p["coeffs"])
    for i, x in enumerate(int(v) for v in p["values"]):
        if state.read_mem(_SQRT_OUT + i) != _isqrt16(x):
            return False
        poly = (a * x * x + b * x + c) & 0xFFFF
        if state.read_mem(_POLY_OUT + i) != poly:
            return False
    return True


def build_basicmath() -> Workload:
    return make_workload(
        "basicmath",
        "automotive",
        _BASICMATH_SRC,
        _basicmath_generate,
        _basicmath_verify,
    )


# --------------------------------------------------------------------- #
# bitcount
# --------------------------------------------------------------------- #

_TABLE = 0x0E00  # 16-entry nibble popcount table
_BC_OUT = 0x4000  # four per-method accumulators

_BITCOUNT_SRC = """
; bitcount: four population-count algorithms over an input vector.
        li   r1, 0              ; i
        li   r10, 0             ; total: naive
        li   r11, 0             ; total: kernighan
        li   r12, 0             ; total: table
        li   r13, 0             ; total: swar
main_loop:
        ld   r14, [r0+0x0FF0]
        cmp  r1, r14
        bge  done
        li   r2, 0x1000
        add  r2, r2, r1
        ld   r3, [r2+0]         ; x
; ---- method 1: naive shift-and-test
        mov  r4, r3
        li   r5, 16
naive_loop:
        and  r6, r4, 1
        add  r10, r10, r6
        srl  r4, r4, 1
        subcc r5, r5, 1
        bne  naive_loop
; ---- method 2: Kernighan
        mov  r4, r3
kern_loop:
        cmp  r4, 0
        beq  kern_done
        sub  r5, r4, 1
        and  r4, r4, r5
        inc  r11
        ba   kern_loop
kern_done:
; ---- method 3: nibble table lookup
        and  r5, r3, 15
        ld   r6, [r5+0x0E00]
        add  r12, r12, r6
        srl  r5, r3, 4
        and  r5, r5, 15
        ld   r6, [r5+0x0E00]
        add  r12, r12, r6
        srl  r5, r3, 8
        and  r5, r5, 15
        ld   r6, [r5+0x0E00]
        add  r12, r12, r6
        srl  r5, r3, 12
        ld   r6, [r5+0x0E00]
        add  r12, r12, r6
; ---- method 4: SWAR
        srl  r5, r3, 1
        li   r7, 0x5555
        and  r5, r5, r7
        sub  r4, r3, r5         ; x - ((x>>1) & 0x5555)
        li   r7, 0x3333
        and  r5, r4, r7
        srl  r6, r4, 2
        and  r6, r6, r7
        add  r4, r5, r6
        srl  r5, r4, 4
        add  r4, r4, r5
        li   r7, 0x0F0F
        and  r4, r4, r7
        srl  r5, r4, 8
        add  r4, r4, r5
        and  r4, r4, 31
        add  r13, r13, r4
        inc  r1
        ba   main_loop
done:
        st   r10, [r0+0x4000]
        st   r11, [r0+0x4001]
        st   r12, [r0+0x4002]
        st   r13, [r0+0x4003]
        halt
"""


def _bitcount_params(dataset: Dataset) -> dict:
    n = 110 if dataset.scale == "small" else 2100
    rng = as_rng(dataset.seed)
    # Mixed sparsity: real bit-twiddling inputs are rarely uniform.
    widths = rng.integers(1, 17, size=n)
    # One draw per value, each in [0, 2**width): the same stream as n
    # scalar ``rng.integers(1 << w)`` calls.
    values = rng.integers(0, np.left_shift(1, widths))
    return {"n": n, "values": values}


def _bitcount_generate(state: MachineState, dataset: Dataset) -> None:
    p = _bitcount_params(dataset)
    dataset.params.update(p)
    state.write_mem(_N_ADDR, p["n"])
    state.load_words(_IN, p["values"])
    state.load_words(_TABLE, [bin(v).count("1") for v in range(16)])


def _bitcount_verify(state: MachineState, dataset: Dataset) -> bool:
    p = _bitcount_params(dataset)
    total = sum(bin(int(v)).count("1") for v in p["values"]) & 0xFFFF
    return all(
        state.read_mem(_BC_OUT + m) == total for m in range(4)
    )


def build_bitcount() -> Workload:
    return make_workload(
        "bitcount",
        "automotive",
        _BITCOUNT_SRC,
        _bitcount_generate,
        _bitcount_verify,
    )
