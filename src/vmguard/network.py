"""Cross-checking topology: who verifies whom.

Each protected function (the checkee) is assigned up to `k` distinct
checkers drawn from the other protected functions.  A checker embeds, at
a random point it actually executes, a record that rehashes the checkee's
encoded stream and compares against a baked-in value.  The relation must
stay acyclic so baked values can be settled in one dependency-ordered
pass; candidates whose addition would close a cycle are simply not
offered to the sampler.

Functions of a single instruction have no guard position, so they cannot
check anyone, but can still be checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir.core import IrFunction


@dataclass(frozen=True)
class GuardEdge:
    checker: str
    checkee: str


def is_eligible_checker(fn: IrFunction) -> bool:
    """A guard may go before any record but the entry block's first, so a
    function can host one once it has at least two instructions."""
    return sum(len(b.instructions) for b in fn.blocks) >= 2


def _reaches(edges: list[GuardEdge], src: str, dst: str) -> bool:
    """True when dst is reachable from src along checker -> checkee edges."""
    if src == dst:
        return True
    adj: dict[str, list[str]] = {}
    for e in edges:
        adj.setdefault(e.checker, []).append(e.checkee)
    stack = [src]
    seen = {src}
    while stack:
        node = stack.pop()
        for nxt in adj.get(node, ()):
            if nxt == dst:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def build_checker_network(ordered_names: list[str],
                          eligible: set[str],
                          guards_per_checkee: int,
                          rng) -> list[GuardEdge]:
    """Greedy assignment, one checkee at a time in table order.  For each
    checkee, up to `guards_per_checkee` checkers are sampled uniformly from
    the eligible functions whose addition keeps the relation acyclic."""
    edges: list[GuardEdge] = []
    for checkee in ordered_names:
        candidates = [name for name in ordered_names
                      if name != checkee
                      and name in eligible
                      and not _reaches(edges, checkee, name)]
        if not candidates:
            continue
        take = min(guards_per_checkee, len(candidates))
        for checker in rng.sample(candidates, take):
            edges.append(GuardEdge(checker, checkee))
    return edges


def in_degrees(ordered_names: list[str],
               edges: list[GuardEdge]) -> dict[str, int]:
    degrees = {name: 0 for name in ordered_names}
    for e in edges:
        degrees[e.checkee] += 1
    return degrees


def verify_acyclic(edges: list[GuardEdge]) -> bool:
    """Independent cycle check over the final edge set."""
    adj: dict[str, list[str]] = {}
    nodes = set()
    for e in edges:
        adj.setdefault(e.checker, []).append(e.checkee)
        nodes.add(e.checker)
        nodes.add(e.checkee)
    state: dict[str, int] = {}

    def visit(node: str) -> bool:
        state[node] = 1
        for nxt in adj.get(node, ()):
            mark = state.get(nxt)
            if mark == 1:
                return False
            if mark is None and not visit(nxt):
                return False
        state[node] = 2
        return True

    return all(state.get(n) == 2 or visit(n)
               for n in sorted(nodes) if state.get(n) != 1)
