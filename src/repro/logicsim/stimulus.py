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


_BIT_SHIFTS = np.arange(64, dtype=np.uint64)

#: Token level (class, opcode, instruction) of control bit ``i``, by
#: ``i % 4``: half the bits follow the class, a quarter each the rest.
_LEVEL_OF = np.array([0, 0, 1, 2])


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element of a ``uint64`` array (array
    arithmetic wraps modulo 2**64)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _word_bits(words: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` little-endian bits of ``(..., n_words)``
    ``uint64`` words, as a ``(..., width)`` bool array."""
    bits = (words[..., None] >> _BIT_SHIFTS) & np.uint64(1)
    shape = words.shape[:-1]
    return bits.reshape(*shape, words.shape[-1] * 64)[..., :width].astype(bool)


def token_bits_array(tokens: np.ndarray, width: int) -> np.ndarray:
    """:func:`token_bits` of every element of a ``uint64`` token array,
    as a ``tokens.shape + (width,)`` bool array."""
    chunks = np.arange(1, -(-width // 64) + 1, dtype=np.uint64)
    words = _mix64_array(tokens[..., None] ^ _mix64_array(chunks))
    return _word_bits(words, width)


def _value_bits(values: list[int], width: int) -> np.ndarray:
    """:func:`int_to_bits` of every value, as a ``(len(values), width)``
    bool array."""
    words = np.empty((len(values), -(-width // 64)), dtype=np.uint64)
    for j, shift in enumerate(range(0, width, 64)):
        words[:, j] = [(v >> shift) & _MASK64 for v in values]
    return _word_bits(words, width)


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
        self.source_ids = self.netlist.endpoint_ids()
        self._source_pos = {gid: i for i, gid in enumerate(self.source_ids)}
        # Precomputed source-position scatter indices (see
        # encode_schedules).
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

    @property
    def n_sources(self) -> int:
        return len(self.source_ids)

    def _ctrl_patterns(self, s: int, triples: list[tuple]) -> np.ndarray:
        """Stage ``s``'s control-bit pattern of every ``(class, op,
        token)`` triple, as ``(len(triples), n_ctrl)``.

        Mixing the stage index in makes the same instruction drive
        distinct (but fixed) patterns in different stages.  Half the
        control bits copy the class level, a quarter the opcode level,
        and a quarter the full static instruction (see
        :class:`StageOccupancy`).
        """
        tokens = np.array(
            [[t & _MASK64 for t in triple] for triple in triples],
            dtype=np.uint64,
        ).reshape(len(triples), 3)
        seeds = _mix64_array(tokens ^ np.uint64(mix64(s + 101)))
        bit = np.arange(len(self._ctrl_pos[s]))
        bits = token_bits_array(seeds, len(bit))
        return bits[:, _LEVEL_OF[bit % 4], bit]

    def encode_schedules(
        self, schedules: list[list[PipelineCycle]]
    ) -> list[np.ndarray]:
        """Encode many schedules, one ``(n_cycles, n_sources)`` array each.

        All cycles are encoded together, stage by stage: the distinct
        control patterns are built as one array program and gathered,
        then the semantic overrides and the data buses are scattered
        through precomputed source-position index arrays.  Each row is
        written in the order control, overrides, data per stage, stage
        after stage.  The arrays are row blocks of one array.
        """
        num_stages = self.pipeline.num_stages
        for schedule in schedules:
            if not schedule:
                raise ValueError("schedule must contain at least one cycle")
            for cycle in schedule:
                if len(cycle) != num_stages:
                    raise ValueError(
                        f"cycle must have {num_stages} stage entries, "
                        f"got {len(cycle)}"
                    )
        cycles = [cycle for schedule in schedules for cycle in schedule]
        rows = np.zeros((len(cycles), self.n_sources), dtype=bool)
        for s in range(num_stages):
            occs = [cycle[s] for cycle in cycles]
            pos = self._ctrl_pos[s]
            index: dict[tuple, int] = {}
            ids = [
                index.setdefault((o.class_token, o.op_token, o.token), len(index))
                for o in occs
            ]
            rows[:, pos] = self._ctrl_patterns(s, list(index))[ids]
            overrides = [
                (t, i, bit)
                for t, o in enumerate(occs)
                for i, bit in o.ctrl_overrides.items()
            ]
            if overrides:
                t_idx, bit_idx, bits = zip(*overrides)
                rows[list(t_idx), pos[list(bit_idx)]] = bits
            for bus, bus_pos in self._data_pos[s].items():
                values = [o.data.get(bus, 0) for o in occs]
                rows[:, bus_pos] = _value_bits(values, len(bus_pos))
        bounds = np.cumsum([0] + [len(schedule) for schedule in schedules])
        return [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def encode_schedule(self, schedule: list[PipelineCycle]) -> np.ndarray:
        """Encode a multi-cycle schedule into ``(n_cycles, n_sources)``."""
        return self.encode_schedules([schedule])[0]
