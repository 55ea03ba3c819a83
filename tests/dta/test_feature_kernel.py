"""The array feature kernel equals the scalar feature code it replaced.

``feature_matrix`` computes datapath features for many dynamic
instances of one instruction with popcount/bit-length tables and a
carry-chain loop over arrays; ``extract_features`` is its one-row call.
The reference below is the scalar per-instance code, frozen here.  The
kernel must agree bit for bit, as float64, for every opcode, for
operands wider than a word or negative, and with no previous
instruction; and ``InstructionErrorModel.block_probabilities`` must
give the probabilities of a per-sample feature loop.
"""

import numpy as np
import pytest

from repro._util import as_rng
from repro.cfg import build_cfg
from repro.cfg.marginal import BlockProbabilities
from repro.core.collect import SimulationCollector
from repro.core.errormodel import InstructionErrorModel
from repro.cpu import FunctionalSimulator, MachineState, assemble
from repro.cpu.interpreter import StepRecord
from repro.cpu.isa import Instruction, Opcode, OpClass, WORD_BITS, WORD_MASK
from repro.dta.datapath import (
    FEATURE_NAMES,
    carry_chain_length,
    extract_features,
    feature_matrix,
)
from repro.netlist import PipelineConfig
from repro.pipeline import stages
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline
from repro.sta.clark import clark_min_arrays
from tests import _reference


def _chain(a, b, cin=0):
    a &= WORD_MASK
    b &= WORD_MASK
    carry = cin & 1
    longest = current = 0
    for i in range(WORD_BITS):
        abit = (a >> i) & 1
        bbit = (b >> i) & 1
        generate = abit & bbit
        propagate = abit ^ bbit
        if carry and propagate:
            current += 1
        elif generate:
            current = 1
        else:
            current = 0
        longest = max(longest, current)
        carry = generate | (propagate & carry)
    return longest


def _carry_bits(a, b, cin=0):
    total = (a & WORD_MASK) + (b & WORD_MASK) + (cin & 1)
    return (total ^ a ^ b ^ (cin & 1)) & WORD_MASK


def _pop(x):
    return bin(x & WORD_MASK).count("1")


def _scalar_features(ins, record, prev):
    a = record.a & WORD_MASK
    b = record.b & WORD_MASK
    r = record.result & WORD_MASK
    pa = (prev.a & WORD_MASK) if prev is not None else 0
    pb = (prev.b & WORD_MASK) if prev is not None else 0
    pr = (prev.result & WORD_MASK) if prev is not None else 0
    klass = ins.op_class
    if klass == OpClass.ADDER:
        b_eff = (~b) & WORD_MASK if ins.op == Opcode.SUB else b
        pb_eff = (~pb) & WORD_MASK if ins.op == Opcode.SUB else pb
        cin = int(ins.op == Opcode.SUB)
        carry = _chain(a, b_eff, cin)
        flips = _carry_bits(a, b_eff, cin) ^ _carry_bits(pa, pb_eff, cin)
    elif klass in (OpClass.LOAD, OpClass.STORE):
        imm = ins.imm & WORD_MASK
        carry = _chain(a, imm)
        flips = _carry_bits(a, imm) ^ _carry_bits(pa, imm)
    else:
        carry = 0
        flips = _carry_bits(a, b) ^ _carry_bits(pa, pb)
    return np.array(
        [
            1.0,
            float(carry),
            float(a.bit_length()),
            float(b.bit_length()),
            float(_pop(a ^ pa)),
            float(_pop(b ^ pb)),
            float(b & (WORD_BITS - 1)) if klass == OpClass.SHIFT else 0.0,
            float(_pop(a)),
            float(_pop(b)),
            float(_pop(r ^ pr)),
            float(r.bit_length()),
            float(_pop(r)),
            float((a ^ pa).bit_length()),
            float((b ^ pb).bit_length()),
            float((r ^ pr).bit_length()),
            float(flips.bit_length()),
        ]
    )


def _instruction(op, rng):
    try:
        return Instruction(op, target="L")
    except ValueError:
        pass
    if op in (Opcode.LD, Opcode.ST, Opcode.LI):
        return Instruction(op, rd=4, rs1=5, imm=int(rng.integers(-300, 300)))
    return Instruction(op, rd=4, rs1=5, rs2=6)


def _operands(rng, n):
    """17-bit, negative, and edge operand values."""
    edges = [0, 1, WORD_MASK, WORD_MASK + 1, -1, -(1 << 16), 0x8000]
    wide = rng.integers(-(1 << 17), 1 << 17, size=n - len(edges))
    return np.concatenate([edges, wide]).astype(np.int64)


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
def test_kernel_equals_scalar_features(op):
    rng = np.random.default_rng(len(op.name))
    ins = _instruction(op, rng)
    n = 64
    a, b, r, pa, pb, pr = (_operands(rng, n) for _ in range(6))
    got = feature_matrix(ins, a, b, r, pa, pb, pr)
    assert got.dtype == np.float64
    assert got.shape == (n, len(FEATURE_NAMES))
    flushed = feature_matrix(ins, a, b, r, *(np.zeros(n, np.int64),) * 3)
    for i in range(n):
        rec = StepRecord(0, int(a[i]), int(b[i]), int(r[i]), 1)
        prev = StepRecord(0, int(pa[i]), int(pb[i]), int(pr[i]), 1)
        want = _scalar_features(ins, rec, prev)
        assert np.array_equal(got[i], want)
        assert np.array_equal(flushed[i], _scalar_features(ins, rec, None))
        one = extract_features(ins, rec, prev)
        assert one.dtype == np.float64 and np.array_equal(one, want)
        none = extract_features(ins, rec, None)
        assert np.array_equal(none, _scalar_features(ins, rec, None))


def test_carry_chain_length_equals_scalar_loop():
    rng = np.random.default_rng(5)
    for a, b, cin in zip(
        _operands(rng, 200), _operands(rng, 200), rng.integers(0, 2, 200)
    ):
        assert carry_chain_length(int(a), int(b), int(cin)) == _chain(
            int(a), int(b), int(cin)
        )


# --------------------------------------------------------------------- #
# The error model
# --------------------------------------------------------------------- #

SMALL = PipelineConfig(
    data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
    cloud_gates=60, seed=7,
)

PROGRAM = """
    li r1, 25
    li r4, 7
loop:
    mul r2, r2, r1
    add r3, r3, r2
    st r3, [r4+3]
    ld r5, [r4+3]
    xor r6, r5, r1
    sll r6, r6, r1
    subcc r1, r1, 1
    bne loop
    halt
"""


def _reference_block_probabilities(model, bid, samples, n_samples, seed=0):
    """``block_probabilities`` with one scalar feature row per sample
    (the control slacks come from the frozen per-sample lookup of
    ``tests/_reference.py``; the probability uses the model's own
    helper)."""
    block = model.cfg.block(bid)
    rng = as_rng(seed + bid)
    chosen = [
        samples[int(i)] for i in rng.integers(len(samples), size=n_samples)
    ]
    preds = [s.pred for s in chosen]
    pc = np.empty((block.size, n_samples))
    pe = np.empty((block.size, n_samples))
    g_frac = model.processor.variation.config.global_fraction
    slack_base = model.clock_period - model.setup_time
    for k in range(block.size):
        ins = model.program[block.start + k]
        feats_c = np.empty((n_samples, len(FEATURE_NAMES)))
        feats_e = np.empty((n_samples, len(FEATURE_NAMES)))
        for s, sample in enumerate(chosen):
            rec = sample.records[k]
            prev = sample.records[k - 1] if k > 0 else sample.entry_prev
            feats_c[s] = _scalar_features(ins, rec, prev)
            feats_e[s] = _scalar_features(ins, rec, None)
        for corrected, feats, out in ((False, feats_c, pc), (True, feats_e, pe)):
            dp_mean, dp_sd = model.datapath.predict_arrival(
                ins.op_class, feats
            )
            ctrl_mean, ctrl_var = _reference.control_arrays(
                model, bid, k, preds, corrected
            )
            mean, var = clark_min_arrays(
                ctrl_mean, ctrl_var, slack_base - dp_mean, dp_sd**2,
                g_frac * np.sqrt(ctrl_var) * dp_sd,
            )
            out[k] = model._probability(mean, var)
    return BlockProbabilities(pc=pc, pe=pe)


@pytest.mark.parametrize("family", ["inorder6", "ooo-tomasulo"])
def test_block_probabilities_equal_per_sample_features(family):
    proc = ProcessorConfig(pipeline=SMALL, core_family=family).build()
    program = assemble(PROGRAM, name="feature-kernel")
    cfg = build_cfg(program)
    collector = SimulationCollector(cfg)
    FunctionalSimulator(program).run(
        MachineState(), listener=collector.listener
    )
    estimator = EstimationPipeline(proc)
    artifacts = estimator.train(program)
    samples = collector.samples()
    stages.characterize_missing(artifacts, samples)
    model = InstructionErrorModel(proc, program, cfg, artifacts.control_model)
    assert any(blk.size > 4 for blk in (cfg.block(b) for b in samples))
    for bid, blk_samples in sorted(samples.items()):
        got = model.block_probabilities(bid, blk_samples, 24, seed=2)
        want = _reference_block_probabilities(model, bid, blk_samples, 24, 2)
        assert np.array_equal(got.pc, want.pc)
        assert np.array_equal(got.pe, want.pe)
