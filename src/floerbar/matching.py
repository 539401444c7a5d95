"""The cover test behind both bottleneck metrics.

:class:`CoverMatching` decides whether a matching covers every left vertex
that must stay (a bar too long to delete), growing it by augmenting paths.
The caller owns the adjacency: ``bottleneck_distance`` passes a probe's
rows, or views that cut sorted rows at the probe's key, and the shift sweep of ``shifted_bottleneck`` edits its sets between
``covers`` calls.  Hopcroft-Karp, the batch matcher it replaced, is the
oracle :func:`floerbar.oracles.max_bipartite_matching`.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["CoverMatching"]


class CoverMatching:
    """A matching on ``adj`` (``adj[u]`` iterates over the right neighbours
    of left vertex ``u``, ``0 <= v < n_other``, afresh at each visit) that
    is to cover every ``u`` with ``stay[u]``.  ``mate[u]`` and ``back[v]``
    are the partners, -1 when free; only vertices that must stay are ever
    matched."""

    def __init__(self, adj: Sequence, stay: Sequence[bool], n_other: int) -> None:
        self.adj = adj
        self.mate, self.back = [-1] * len(stay), [-1] * n_other
        self.free = [u for u, ok in enumerate(stay) if ok]

    def unmatch(self, u: int, v: int) -> None:
        """The caller drops the edge ``(u, v)``: free ``u`` if it was matched
        along it."""
        if self.mate[u] == v:
            self.mate[u] = self.back[v] = -1
            self.free.append(u)

    def covers(self) -> bool:
        """Whether the matching can be grown to cover every vertex that must
        stay, by a breadth-first augmenting search from each free vertex
        with no free neighbour.  A free vertex without an augmenting path
        stays free in every matching grown from this one, so the first
        failed search answers no; that vertex is searched first next time."""
        adj, mate, back, free = self.adj, self.mate, self.back, self.free
        while free:
            u = free[-1]
            for v in adj[u]:
                if back[v] == -1:  # most vertices need no search
                    mate[u], back[v] = v, u
                    break
            else:
                if not self._augment(u):
                    return False
            free.pop()
        return True

    def _augment(self, root: int) -> bool:
        adj, mate, back = self.adj, self.mate, self.back
        prev = {}  # right vertex -> the left vertex it was reached from
        queue = [root]
        for u in queue:
            for v in adj[u]:
                if v not in prev:
                    prev[v] = u
                    if back[v] == -1:
                        while v != -1:  # flip the path back to the root
                            u = prev[v]
                            mate[u], back[v], v = v, u, mate[u]
                        return True
                    queue.append(back[v])
        return False
