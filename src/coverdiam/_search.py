"""Breadth-first search over any adjacency, shared by the graph modules."""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable


def bfs(source: Hashable, neighbors: Callable[[Hashable], Iterable[Hashable]]) -> dict:
    """Hop distance from source to every node it reaches, keyed in visit order."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        hops = dist[x] + 1
        for y in neighbors(x):
            if y not in dist:
                dist[y] = hops
                queue.append(y)
    return dist
