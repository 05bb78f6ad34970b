"""Per-function control-flow graphs.

:func:`build_cfg` lowers a statement list into basic blocks connected by
directed edges. Compound statements keep their *header* (the ``if`` test,
the ``for`` iterable, the ``with`` items) in the block where control
evaluates it; their bodies become separate blocks. ``try`` blocks are
over-approximated — every handler is reachable from the try entry — which
errs toward extra paths, i.e. toward *silence* in the downstream rules.

The builder runs on an explicit frame stack rather than recursive
descent: the analyzer is subject to the repo's own no-recursion rules
(REPRO007) and deep ``elif`` ladders must not overflow.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional, Sequence

#: ``ast.TryStar`` exists only on 3.11+; fold it in when present.
_TRY_TYPES: tuple[type, ...] = tuple(
    t for t in (ast.Try, getattr(ast, "TryStar", None)) if t is not None
)

_LOOP_TYPES = (ast.While, ast.For, ast.AsyncFor)


@dataclass
class Block:
    """A basic block: a run of statements with a single entry point."""

    id: int
    stmts: list[ast.stmt] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)


@dataclass
class CFG:
    """A control-flow graph with dedicated entry and exit blocks."""

    blocks: list[Block]
    entry: int
    exit: int

    def preds(self) -> dict[int, list[int]]:
        """Predecessor lists, derived from the successor edges."""
        result: dict[int, list[int]] = {block.id: [] for block in self.blocks}
        for block in self.blocks:
            for succ in block.succs:
                result[succ].append(block.id)
        return result

    def locate(self) -> dict[int, tuple[int, int]]:
        """Map ``id(stmt)`` -> ``(block_id, index)`` for every statement."""
        table: dict[int, tuple[int, int]] = {}
        for block in self.blocks:
            for index, stmt in enumerate(block.stmts):
                table[id(stmt)] = (block.id, index)
        return table


@dataclass
class _Frame:
    """One statement list being lowered, with its control context."""

    stmts: Sequence[ast.stmt]
    index: int
    current: int
    follow: int
    loop_head: Optional[int]
    loop_after: Optional[int]


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """Lower ``body`` (a function or module statement list) to a CFG."""
    blocks: list[Block] = []

    def new_block() -> int:
        block = Block(len(blocks))
        blocks.append(block)
        return block.id

    def edge(src: int, dst: int) -> None:
        if dst not in blocks[src].succs:
            blocks[src].succs.append(dst)

    entry = new_block()
    exit_ = new_block()
    stack: list[_Frame] = [_Frame(list(body), 0, entry, exit_, None, None)]
    while stack:
        frame = stack.pop()
        stmts = frame.stmts
        i = frame.index
        cur = frame.current
        split = False
        while i < len(stmts):
            stmt = stmts[i]
            if isinstance(stmt, ast.If):
                blocks[cur].stmts.append(stmt)
                after = new_block()
                then_entry = new_block()
                edge(cur, then_entry)
                stack.append(
                    _Frame(
                        stmts, i + 1, after, frame.follow,
                        frame.loop_head, frame.loop_after,
                    )
                )
                stack.append(
                    _Frame(
                        stmt.body, 0, then_entry, after,
                        frame.loop_head, frame.loop_after,
                    )
                )
                if stmt.orelse:
                    else_entry = new_block()
                    edge(cur, else_entry)
                    stack.append(
                        _Frame(
                            stmt.orelse, 0, else_entry, after,
                            frame.loop_head, frame.loop_after,
                        )
                    )
                else:
                    edge(cur, after)
                split = True
                break
            if isinstance(stmt, _LOOP_TYPES):
                head = new_block()
                blocks[head].stmts.append(stmt)
                edge(cur, head)
                body_entry = new_block()
                edge(head, body_entry)
                after = new_block()
                if stmt.orelse:
                    else_entry = new_block()
                    edge(head, else_entry)
                    stack.append(
                        _Frame(
                            stmt.orelse, 0, else_entry, after,
                            frame.loop_head, frame.loop_after,
                        )
                    )
                else:
                    edge(head, after)
                stack.append(
                    _Frame(
                        stmts, i + 1, after, frame.follow,
                        frame.loop_head, frame.loop_after,
                    )
                )
                stack.append(_Frame(stmt.body, 0, body_entry, head, head, after))
                split = True
                break
            if isinstance(stmt, _TRY_TYPES):
                body_entry = new_block()
                edge(cur, body_entry)
                after = new_block()
                if stmt.finalbody:
                    tail = new_block()
                    stack.append(
                        _Frame(
                            stmt.finalbody, 0, tail, after,
                            frame.loop_head, frame.loop_after,
                        )
                    )
                else:
                    tail = after
                for handler in stmt.handlers:
                    handler_entry = new_block()
                    edge(body_entry, handler_entry)
                    stack.append(
                        _Frame(
                            handler.body, 0, handler_entry, tail,
                            frame.loop_head, frame.loop_after,
                        )
                    )
                if stmt.orelse:
                    else_entry = new_block()
                    stack.append(
                        _Frame(
                            stmt.body, 0, body_entry, else_entry,
                            frame.loop_head, frame.loop_after,
                        )
                    )
                    stack.append(
                        _Frame(
                            stmt.orelse, 0, else_entry, tail,
                            frame.loop_head, frame.loop_after,
                        )
                    )
                else:
                    stack.append(
                        _Frame(
                            stmt.body, 0, body_entry, tail,
                            frame.loop_head, frame.loop_after,
                        )
                    )
                stack.append(
                    _Frame(
                        stmts, i + 1, after, frame.follow,
                        frame.loop_head, frame.loop_after,
                    )
                )
                split = True
                break
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                blocks[cur].stmts.append(stmt)
                body_entry = new_block()
                edge(cur, body_entry)
                after = new_block()
                stack.append(
                    _Frame(
                        stmts, i + 1, after, frame.follow,
                        frame.loop_head, frame.loop_after,
                    )
                )
                stack.append(
                    _Frame(
                        stmt.body, 0, body_entry, after,
                        frame.loop_head, frame.loop_after,
                    )
                )
                split = True
                break
            if isinstance(stmt, ast.Match):
                blocks[cur].stmts.append(stmt)
                after = new_block()
                for case in stmt.cases:
                    case_entry = new_block()
                    edge(cur, case_entry)
                    stack.append(
                        _Frame(
                            case.body, 0, case_entry, after,
                            frame.loop_head, frame.loop_after,
                        )
                    )
                edge(cur, after)
                stack.append(
                    _Frame(
                        stmts, i + 1, after, frame.follow,
                        frame.loop_head, frame.loop_after,
                    )
                )
                split = True
                break
            # Simple statements stay in the current block.
            blocks[cur].stmts.append(stmt)
            if isinstance(stmt, (ast.Return, ast.Raise)):
                edge(cur, exit_)
                cur = new_block()  # anything after is unreachable
            elif isinstance(stmt, ast.Break):
                edge(cur, frame.loop_after if frame.loop_after is not None else exit_)
                cur = new_block()
            elif isinstance(stmt, ast.Continue):
                edge(cur, frame.loop_head if frame.loop_head is not None else exit_)
                cur = new_block()
            i += 1
        if not split:
            edge(cur, frame.follow)
    return CFG(blocks=blocks, entry=entry, exit=exit_)
