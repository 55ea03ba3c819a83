"""Encoding of pipeline occupancy into netlist source values.

The control-network characterization of Section 4 drives the processor
netlist with the instruction sequence of a basic block.  Here the per-cycle
pipeline state — which static instruction occupies each stage and with which
operand values — is mapped deterministically onto the generated netlist's
source flip-flops and inputs:

* *control sources* of a stage receive a hash expansion of the occupying
  instruction's identity token, so the same static instruction always drives
  the same control-bit pattern (the paper's observation that a basic block
  activates the same control paths on every execution);
* *data sources* receive the binary representation of the occupying
  instruction's operand values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.netlist.generator import PipelineNetlist

__all__ = [
    "mix64",
    "int_to_bits",
    "StageOccupancy",
    "PipelineCycle",
    "StimulusEncoder",
]

_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """SplitMix64 finalizer — a stable, platform-independent bit mixer."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def int_to_bits(value: int, width: int) -> list[bool]:
    """Little-endian bit decomposition of ``value`` truncated to ``width``."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return [bool((value >> i) & 1) for i in range(width)]


def token_bits(token: int, width: int) -> list[bool]:
    """Expand an identity token into ``width`` pseudo-random (stable) bits."""
    bits: list[bool] = []
    chunk = 0
    while len(bits) < width:
        word = mix64((token & _MASK64) ^ mix64(chunk + 1))
        bits.extend(int_to_bits(word, min(64, width - len(bits))))
        chunk += 1
    return bits


@dataclass(slots=True)
class StageOccupancy:
    """What occupies one pipeline stage in one cycle.

    Attributes:
        token: Identity token of the occupying static instruction (0 for a
            bubble/nop — drives an all-stable idle pattern).
        op_token: Coarser token identifying the *opcode* (shared by all
            instructions with the same operation).
        class_token: Coarsest token identifying the opcode *class*.
        data: Mapping from data-bus name (as published by the generated
            :class:`PipelineNetlist`) to the integer value it should carry.
            Missing buses default to 0.

    The three-level hierarchy mirrors real pipeline control state, most of
    which depends only on the instruction's kind: consecutive similar
    instructions flip few control bits, so long control paths see quiet
    side inputs and can activate coherently — without the hierarchy every
    control bit would toggle with probability one half per cycle and deep
    control paths would (unrealistically) never activate.
    """

    token: int = 0
    op_token: int = 0
    class_token: int = 0
    data: dict[str, int] = field(default_factory=dict)
    #: Semantic control-bit overrides (bit position -> value), applied
    #: after the hash encoding.  Used for functional selects that real
    #: decoders derive from the opcode (ALU unit select, subtract enable,
    #: load select): leaving them hash-random would route, say, an ADD's
    #: result bus through the multiplier.
    ctrl_overrides: dict[int, bool] = field(default_factory=dict)


#: One cycle of pipeline state: one :class:`StageOccupancy` per stage.
PipelineCycle = list[StageOccupancy]


class StimulusEncoder:
    """Maps schedules of :class:`PipelineCycle` onto simulator source values.

    Args:
        pipeline: The generated pipeline netlist with its signal map.
    """

    def __init__(self, pipeline: PipelineNetlist) -> None:
        self.pipeline = pipeline
        self.netlist = pipeline.netlist
        self.source_ids = [g.gid for g in self.netlist.gates if g.is_endpoint]
        self._source_pos = {gid: i for i, gid in enumerate(self.source_ids)}
        # Precomputed source-position scatter indices and memo tables
        # (see encode_cycle).
        self._ctrl_pos = [
            np.array([self._source_pos[g] for g in ctrl], dtype=int)
            for ctrl in pipeline.ctrl_src
        ]
        self._data_pos = [
            {
                bus: np.array([self._source_pos[g] for g in gids], dtype=int)
                for bus, gids in pipeline.data_src[s].items()
            }
            for s in range(pipeline.num_stages)
        ]
        self._ctrl_cache: dict[tuple, np.ndarray] = {}
        self._bits_cache: dict[tuple[int, int], np.ndarray] = {}

    @property
    def n_sources(self) -> int:
        return len(self.source_ids)

    def _ctrl_pattern(self, s: int, occ: StageOccupancy) -> np.ndarray:
        """The stage's control-bit pattern, memoized on the token triple."""
        key = (s, occ.class_token, occ.op_token, occ.token)
        pattern = self._ctrl_cache.get(key)
        if pattern is None:
            n = len(self.pipeline.ctrl_src[s])
            stage_salt = mix64(s + 101)
            levels = (
                token_bits(mix64(occ.class_token ^ stage_salt), n),
                token_bits(mix64(occ.op_token ^ stage_salt), n),
                token_bits(mix64(occ.token ^ stage_salt), n),
            )
            pattern = np.array(
                [
                    levels[0 if i % 4 < 2 else (1 if i % 4 == 2 else 2)][i]
                    for i in range(n)
                ],
                dtype=bool,
            )
            self._ctrl_cache[key] = pattern
        return pattern

    def _value_bits(self, value: int, width: int) -> np.ndarray:
        """Memoized little-endian bit decomposition as a bool array."""
        key = (value, width)
        bits = self._bits_cache.get(key)
        if bits is None:
            if len(self._bits_cache) > (1 << 16):
                self._bits_cache.clear()
            bits = np.array(int_to_bits(value, width), dtype=bool)
            self._bits_cache[key] = bits
        return bits

    def encode_cycle(self, cycle: PipelineCycle) -> np.ndarray:
        """Encode one pipeline cycle into a source-value row.

        Control patterns and operand bit decompositions are memoized and
        scattered through precomputed source-position index arrays.
        """
        num_stages = self.pipeline.num_stages
        if len(cycle) != num_stages:
            raise ValueError(
                f"cycle must have {num_stages} stage entries, got {len(cycle)}"
            )
        row = np.zeros(self.n_sources, dtype=bool)
        for s, occ in enumerate(cycle):
            pos = self._ctrl_pos[s]
            row[pos] = self._ctrl_pattern(s, occ)
            for i, bit in occ.ctrl_overrides.items():
                row[pos[i]] = bit
            for bus_name, bus_pos in self._data_pos[s].items():
                row[bus_pos] = self._value_bits(
                    occ.data.get(bus_name, 0), len(bus_pos)
                )
        return row

    def encode_schedule(self, schedule: list[PipelineCycle]) -> np.ndarray:
        """Encode a multi-cycle schedule into ``(n_cycles, n_sources)``."""
        if not schedule:
            raise ValueError("schedule must contain at least one cycle")
        return np.stack([self.encode_cycle(c) for c in schedule])
