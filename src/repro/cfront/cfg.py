"""Control-flow graph over the Figure 5 IR.

The checker's fixpoint walks the statement list directly (as the paper's
rules do), but a basic-block view is useful for diagnostics and tooling:
reachability (dead code produced by early returns), edge enumeration for
visualization, and a sanity pass run by the test suite over every lowered
function — every branch target must begin a block, every non-terminated
block must fall through to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set

from .ir import (
    FunctionIR,
    SCamlReturn,
    SGoto,
    SIf,
    SIfIntTag,
    SIfSumTag,
    SIfUnboxed,
    SReturn,
    Stmt,
)

_BRANCHES = (SIf, SIfUnboxed, SIfSumTag, SIfIntTag)
_TERMINATORS = (SReturn, SCamlReturn, SGoto)


def statement_successors(fn: FunctionIR, index: int) -> List[int]:
    """Successor statement indices of ``fn.body[index]``."""
    stmt = fn.body[index]
    succs: List[int] = []
    if isinstance(stmt, (SReturn, SCamlReturn)):
        return succs
    if isinstance(stmt, SGoto):
        succs.append(fn.label_index(stmt.label))
        return succs
    if isinstance(stmt, _BRANCHES):
        succs.append(fn.label_index(stmt.label))
    if index + 1 < len(fn.body):
        succs.append(index + 1)
    return succs


@dataclass
class BasicBlock:
    """A maximal straight-line run of statements."""

    index: int
    start: int
    end: int  # exclusive
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    def statements(self, fn: FunctionIR) -> List[Stmt]:
        return fn.body[self.start : self.end]

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class CFG:
    """Basic blocks plus edges for one function."""

    fn: FunctionIR
    blocks: List[BasicBlock] = field(default_factory=list)
    _block_of_stmt: Dict[int, int] = field(default_factory=dict)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def block_at(self, stmt_index: int) -> BasicBlock:
        return self.blocks[self._block_of_stmt[stmt_index]]

    def edges(self) -> Iterator[tuple[int, int]]:
        for block in self.blocks:
            for succ in block.successors:
                yield block.index, succ

    def reachable_blocks(self) -> Set[int]:
        if not self.blocks:
            return set()
        seen: Set[int] = set()
        stack = [0]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.blocks[current].successors)
        return seen

    def unreachable_statements(self) -> List[int]:
        """Statement indices never executed (lowering artifacts included)."""
        reachable = self.reachable_blocks()
        dead: List[int] = []
        for block in self.blocks:
            if block.index not in reachable:
                dead.extend(range(block.start, block.end))
        return dead

    def to_dot(self) -> str:
        """GraphViz rendering for debugging."""
        lines = [f'digraph "{self.fn.name}" {{']
        for block in self.blocks:
            body = "\\l".join(
                str(s) for s in block.statements(self.fn)
            )
            lines.append(f'  b{block.index} [shape=box,label="{body}\\l"];')
        for src, dst in self.edges():
            lines.append(f"  b{src} -> b{dst};")
        lines.append("}")
        return "\n".join(lines)


def build_cfg(fn: FunctionIR) -> CFG:
    """Partition the body into basic blocks and wire the edges."""
    count = len(fn.body)
    if count == 0:
        return CFG(fn=fn)

    # leaders: entry, branch targets, and fall-throughs of branch/terminator
    leaders: Set[int] = {0}
    for index in range(count):
        stmt = fn.body[index]
        if isinstance(stmt, _BRANCHES):
            leaders.add(fn.label_index(stmt.label))
            if index + 1 < count:
                leaders.add(index + 1)
        elif isinstance(stmt, SGoto):
            leaders.add(fn.label_index(stmt.label))
            if index + 1 < count:
                leaders.add(index + 1)
        elif isinstance(stmt, (SReturn, SCamlReturn)):
            if index + 1 < count:
                leaders.add(index + 1)
    for target in fn.labels.values():
        if target < count:
            leaders.add(target)

    starts = sorted(leaders)
    cfg = CFG(fn=fn)
    for block_index, start in enumerate(starts):
        end = starts[block_index + 1] if block_index + 1 < len(starts) else count
        block = BasicBlock(index=block_index, start=start, end=end)
        cfg.blocks.append(block)
        for stmt_index in range(start, end):
            cfg._block_of_stmt[stmt_index] = block_index

    for block in cfg.blocks:
        last = block.end - 1
        for succ_stmt in statement_successors(fn, last):
            succ_block = cfg._block_of_stmt[succ_stmt]
            if succ_block not in block.successors:
                block.successors.append(succ_block)
                cfg.blocks[succ_block].predecessors.append(block.index)
    return cfg


def check_wellformed(fn: FunctionIR) -> List[str]:
    """Structural sanity of lowered IR; empty list means well-formed."""
    problems: List[str] = []
    for label, index in fn.labels.items():
        if not 0 <= index <= len(fn.body):
            problems.append(f"label {label} points outside the body")
    for index, stmt in enumerate(fn.body):
        if isinstance(stmt, _BRANCHES) or isinstance(stmt, SGoto):
            if stmt.label not in fn.labels:
                problems.append(
                    f"statement {index} branches to undefined label "
                    f"`{stmt.label}`"
                )
    return problems
