"""Program container: instructions, labels, and static-instruction tokens."""

from __future__ import annotations

from functools import lru_cache

from repro.cpu.isa import BRANCH_OPS, Instruction, Opcode
from repro.logicsim.stimulus import mix64

__all__ = ["Program"]


class Program:
    """An assembled program.

    Args:
        instructions: Static instructions in address order.
        labels: Mapping from label name to instruction index.
        name: Program name (informational).
    """

    def __init__(
        self,
        instructions: list[Instruction],
        labels: dict[str, int] | None = None,
        name: str = "program",
    ) -> None:
        if not instructions:
            raise ValueError("program must contain at least one instruction")
        self.name = name
        self.instructions = list(instructions)
        self.labels = dict(labels or {})
        for label, idx in self.labels.items():
            if not 0 <= idx < len(self.instructions):
                raise ValueError(
                    f"label {label!r} points outside the program ({idx})"
                )
        self._targets = self._resolve_targets()
        # Memoized: programs share static instructions (every datapath
        # training window is a 4-instruction program).
        self._tokens = [
            self._token(i, ins) for i, ins in enumerate(self.instructions)
        ]
        self._op_tokens = [
            self._coarse_token(ins.op.value, int(ins.set_cc))
            for ins in self.instructions
        ]
        self._class_tokens = [
            self._coarse_token(ins.op_class.value, 0)
            for ins in self.instructions
        ]

    def _resolve_targets(self) -> list[int | None]:
        targets: list[int | None] = []
        for i, ins in enumerate(self.instructions):
            if ins.target is None:
                targets.append(None)
            else:
                if ins.target not in self.labels:
                    raise ValueError(
                        f"instruction {i} references undefined label "
                        f"{ins.target!r}"
                    )
                targets.append(self.labels[ins.target])
        return targets

    @staticmethod
    @lru_cache(maxsize=1 << 14)
    def _token(index: int, ins: Instruction) -> int:
        """Stable identity token of a static instruction.

        Drives the control-network stimulus encoding: the same static
        instruction always produces the same control-bit pattern.  Built
        from :func:`mix64` only — Python's ``hash`` is randomized per
        process and must not leak into the encoding (it only keys the
        memo).
        """
        op_code = int.from_bytes(ins.op.value.encode()[:8], "little")
        h = mix64(index + 1)
        h = mix64(h ^ mix64(op_code))
        h = mix64(h ^ (ins.rd << 1) ^ (ins.rs1 << 5))
        h = mix64(h ^ ((ins.rs2 or 0) << 9) ^ (ins.imm & 0xFFFF) << 13)
        return h or 1  # token 0 is reserved for pipeline bubbles

    @staticmethod
    @lru_cache(maxsize=None)
    def _coarse_token(label: str, extra: int) -> int:
        """Stable token for an opcode or opcode-class label."""
        word = int.from_bytes(label.encode()[:8], "little")
        return mix64(mix64(word) ^ (extra + 1)) or 1

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def target_of(self, index: int) -> int | None:
        """Resolved branch/call target index of instruction ``index``."""
        return self._targets[index]

    def token_of(self, index: int) -> int:
        """Identity token of static instruction ``index``."""
        return self._tokens[index]

    def op_token_of(self, index: int) -> int:
        """Opcode-level token (shared by same-opcode instructions)."""
        return self._op_tokens[index]

    def class_token_of(self, index: int) -> int:
        """Opcode-class-level token (coarsest control identity)."""
        return self._class_tokens[index]

    def successors_of(self, index: int) -> list[int]:
        """Possible next instruction indices (static control flow)."""
        ins = self.instructions[index]
        if ins.op == Opcode.HALT:
            return []
        fallthrough = index + 1
        succ: list[int] = []
        if ins.op == Opcode.BA:
            succ.append(self._targets[index])
        elif ins.op in BRANCH_OPS:
            succ.append(self._targets[index])
            if fallthrough < len(self.instructions):
                succ.append(fallthrough)
        elif ins.op == Opcode.CALL:
            succ.append(self._targets[index])
        elif ins.op == Opcode.RET:
            # Return targets are data-dependent; the CFG layer treats the
            # instructions after every call of the program as candidates.
            succ.extend(
                i + 1
                for i, other in enumerate(self.instructions)
                if other.op == Opcode.CALL and i + 1 < len(self.instructions)
            )
        else:
            if fallthrough < len(self.instructions):
                succ.append(fallthrough)
        return [s for s in succ if s is not None]

    def listing(self) -> str:
        """Human-readable disassembly with labels."""
        by_index: dict[int, list[str]] = {}
        for label, idx in self.labels.items():
            by_index.setdefault(idx, []).append(label)
        lines = []
        for i, ins in enumerate(self.instructions):
            for label in sorted(by_index.get(i, [])):
                lines.append(f"{label}:")
            lines.append(f"    {ins}")
        return "\n".join(lines)
