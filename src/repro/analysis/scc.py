"""Tarjan strongly-connected components and graph condensation.

Generic over node ids (ints); the PDG feeds it instruction ids.  The
condensation DAG is what the pipeline partitioner schedules (paper
Section 3.3: "the compiler consolidates all the strongly connected
components in the PDG to create a directed acyclic graph").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Hashable, Iterable


def tarjan_scc(
    nodes: Iterable[Hashable], successors: dict[Hashable, list[Hashable]]
) -> list[list[Hashable]]:
    """SCCs in reverse topological order (classic iterative Tarjan)."""
    index_counter = 0
    index: dict[Hashable, int] = {}
    lowlink: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    result: list[list[Hashable]] = []

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[Hashable, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            children = successors.get(node, [])
            for i in range(child_index, len(children)):
                child = children[i]
                if child not in index:
                    work[-1] = (node, i + 1)
                    work.append((child, 0))
                    recursed = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if recursed:
                continue
            if lowlink[node] == index[node]:
                component: list[Hashable] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return result


@dataclass
class Condensation:
    """The SCC DAG: component index per node plus inter-component edges."""

    components: list[list[Hashable]]
    component_of: dict[Hashable, int]
    #: (src_component, dst_component) -> True when any underlying edge is
    #: loop-carried.
    edges: dict[tuple[int, int], bool] = field(default_factory=dict)

    def topological_order(self) -> list[int]:
        """Component indices in topological (dependence-respecting) order;
        among ready components the smallest index goes first."""
        successors: list[list[int]] = [[] for _ in self.components]
        indegree = [0] * len(self.components)
        for (src, dst) in self.edges:
            successors[src].append(dst)
            indegree[dst] += 1
        ready = [i for i, d in enumerate(indegree) if d == 0]  # sorted: a heap
        order: list[int] = []
        while ready:
            current = heapq.heappop(ready)
            order.append(current)
            for succ in successors[current]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != len(self.components):
            raise AssertionError("condensation is not acyclic")
        return order


def condense(
    nodes: Iterable[Hashable],
    edge_list: Iterable[tuple[Hashable, Hashable, bool]],
) -> Condensation:
    """Build the SCC DAG from (src, dst, carried) edges."""
    node_list = list(nodes)
    edge_list = list(edge_list)
    successors: dict[Hashable, list[Hashable]] = {}
    for src, dst, _ in edge_list:
        successors.setdefault(src, []).append(dst)
    components = tarjan_scc(node_list, successors)
    component_of = {
        node: i for i, comp in enumerate(components) for node in comp
    }
    condensation = Condensation(components, component_of)
    for src, dst, carried in edge_list:
        cs, cd = component_of[src], component_of[dst]
        if cs == cd:
            continue
        key = (cs, cd)
        condensation.edges[key] = condensation.edges.get(key, False) or carried
    return condensation
