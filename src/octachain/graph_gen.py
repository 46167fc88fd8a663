"""Construction of octagonal chain graphs.

Two families are built here, both assembled from a chain of octagons whose
horizontal sides are shared:

* the linear chain ``L_n`` on ``6n + 2`` vertices: two paths of ``3n + 1``
  vertices ("top" ``u_1..u_{3n+1}`` and "bottom" ``v_1..v_{3n+1}``) joined by
  vertical rungs ``u_j -- v_j`` at every position ``j = 1 (mod 3)``;
* the twisted closed chain ``Q_n`` on ``6n`` vertices: ``L_n`` with its two
  ends glued by a half twist (``u_1 = v_{3n+1}``, ``v_1 = u_{3n+1}``), which
  :func:`fold_linear_ends` performs.  That leaves two paths of ``3n``
  vertices with rungs at ``j = 1 (mod 3)`` for ``j <= 3n - 2`` (the two end
  rungs of ``L_n`` become one) plus the two crossing seam edges
  ``u_{3n} -- v_1`` and ``v_{3n} -- u_1``.

Vertex numbering: top vertices come first (``u_j -> j - 1``), bottom vertices
after them. Edges are stored as lexicographically sorted ``(a, b)`` pairs
with ``a < b``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .exact_algebra import _positive_int

MOEBIUS = "moebius"
LINEAR = "linear"


class ConstructionError(RuntimeError):
    """A structural invariant of a generated graph failed to hold."""


@dataclass(frozen=True)
class ChainGraph:
    """An immutable, validated simple graph with chain metadata."""

    kind: str
    n: int
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.kind not in (MOEBIUS, LINEAR):
            raise ValueError(f"unknown chain kind {self.kind!r}")
        n = _positive_int(self.n)
        vertex_count = _positive_int(self.vertex_count, "vertex count")
        if vertex_count != 6 * n + (2 if self.kind == LINEAR else 0):
            raise ValueError("a chain has 6n vertices closed, 6n + 2 open")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertex_count", vertex_count)
        edges = _checked_edges(self.vertex_count, self.edges)
        object.__setattr__(self, "edges", edges)
        if any(a > b for a, b in edges):
            raise ValueError("every edge (a, b) must have a < b")
        if list(edges) != sorted(edges):
            raise ValueError("edges must be sorted lexicographically")
        object.__setattr__(self, "degrees", vertex_degrees(self))


def _chain_graph(kind: str, n: int, vertex_count: int, edges) -> ChainGraph:
    return ChainGraph(
        kind=kind, n=n, vertex_count=vertex_count, edges=tuple(sorted(set(edges)))
    )


def build_linear_octagonal(n: int) -> ChainGraph:
    """Open chain of n octagons on 6n + 2 vertices and 7n + 1 edges."""
    n = _positive_int(n)
    m = 3 * n + 1
    u = list(range(m))
    v = list(range(m, 2 * m))
    edges = []
    for j in range(m - 1):
        edges.append((u[j], u[j + 1]))
        edges.append((v[j], v[j + 1]))
    for j in range(0, m, 3):
        edges.append((u[j], v[j]))
    g = _chain_graph(LINEAR, n, 2 * m, edges)
    if len(g.edges) != 7 * n + 1:
        raise ConstructionError(f"expected {7 * n + 1} edges, built {len(g.edges)}")
    return g


def fold_linear_ends(g: ChainGraph) -> ChainGraph:
    """Glue the two ends of an open chain with a half twist.

    The identification is ``u_1 = v_{3n+1}`` and ``v_1 = u_{3n+1}``; the
    result is the twisted closed chain on 6n vertices.
    """
    if g.kind != LINEAR:
        raise ValueError("only open chains on 6n + 2 vertices can be folded")
    m = 3 * g.n
    # u_1..u_{3n+1} keep their numbers, u_{3n+1} landing on v_1; v_1..v_{3n}
    # move down by one, and v_{3n+1} lands on u_1
    image = (*range(m + 1), *range(m, 2 * m), 0)
    folded = {tuple(sorted((image[a], image[b]))) for a, b in g.edges}
    return _chain_graph(MOEBIUS, g.n, 2 * m, folded)


@lru_cache(maxsize=32, typed=True)  # typed: 2.0 must not hit the entry of 2
def build_moebius_octagonal(n: int) -> ChainGraph:
    """Twisted closed chain of n octagons on 6n vertices and 7n edges."""
    g = fold_linear_ends(build_linear_octagonal(n))
    if len(g.edges) != 7 * n:
        raise ConstructionError(f"expected {7 * n} edges, built {len(g.edges)}")
    mirror_automorphism(g)
    return g


def mirror_automorphism(g: ChainGraph) -> tuple[int, ...]:
    """The top/bottom swap ``u_j <-> v_j`` of the twisted closed chain, as a
    vertex permutation.

    It is an involution without fixed points; the two seam edges are
    exchanged with each other. :func:`build_moebius_octagonal` checks it once
    on every chain it builds, so the mirror folds in :mod:`laplacian` read
    the permutation alone, from :func:`_mirror_permutation`.
    """
    perm = _mirror_permutation(g)
    mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in g.edges}
    if mapped != set(g.edges):
        raise ConstructionError("mirror permutation does not preserve adjacency")
    return perm


def _mirror_permutation(g: ChainGraph) -> tuple[int, ...]:
    """The vertex permutation of :func:`mirror_automorphism`, without
    checking that it preserves the edges of `g`."""
    if g.kind != MOEBIUS:
        raise ValueError("the mirror swap needs a closed chain on 6n vertices")
    m = 3 * g.n
    return tuple(i + m if i < m else i - m for i in range(2 * m))


def adjacency_lists(g) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour lists, accepting any (vertex_count, edges) pair."""
    vertex_count, edges = _graph_data(g)
    neighbours = [[] for _ in range(vertex_count)]
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    return tuple(tuple(sorted(adj)) for adj in neighbours)


def _checked_edges(vertex_count: int, edges) -> tuple[tuple[int, int], ...]:
    """Edges as int pairs of a simple graph on vertices 0..vertex_count - 1.

    Raises TypeError on an endpoint that is not an integer (``int`` or a
    numpy integer), and ValueError on a self-loop, an endpoint out of range,
    or an edge given twice (in either orientation).
    """
    out, seen = [], set()
    for a, b in edges:
        a, b = operator.index(a), operator.index(b)
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        if not (0 <= a < vertex_count and 0 <= b < vertex_count):
            raise ValueError(f"edge {(a, b)} has an endpoint out of range")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValueError(f"duplicate edge {(a, b)}")
        seen.add(key)
        out.append((a, b))
    return tuple(out)


class _Graph(NamedTuple):
    """A ``(vertex_count, edges)`` pair that :func:`_graph_data` has checked,
    so a function it is passed down to does not check it again."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]


def _graph_data(g) -> _Graph:
    """``(vertex_count, edges)`` of a ChainGraph or a :class:`_Graph` as
    they are, or of a plain pair with a non-negative vertex count after
    :func:`_checked_edges`."""
    if isinstance(g, (ChainGraph, _Graph)):
        return _Graph(g.vertex_count, g.edges)
    vertex_count, edges = g
    vertex_count = operator.index(vertex_count)
    if vertex_count < 0:
        raise ValueError("vertex count must not be negative")
    return _Graph(vertex_count, _checked_edges(vertex_count, edges))


def vertex_degrees(g) -> tuple[int, ...]:
    """Degree of every vertex, accepting any (vertex_count, edges) pair."""
    vertex_count, edges = _graph_data(g)
    degrees = [0] * vertex_count
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1
    return tuple(degrees)


def degree_product(g: ChainGraph) -> int:
    return math.prod(g.degrees)


def is_bipartite(g):
    """Two-colourability with a checkable certificate.

    Returns ``(True, colours)`` where ``colours[v]`` is 0/1, or
    ``(False, cycle)`` where ``cycle`` is an odd-length vertex tuple whose
    consecutive pairs (wrapping around) are all edges.  The cycle is read
    from the parent pointers of the breadth-first search alone.
    """
    g = _graph_data(g)
    adj = adjacency_lists(g)
    colour = [-1] * g.vertex_count
    parent = [-1] * g.vertex_count
    for root in range(g.vertex_count):
        if colour[root] != -1:
            continue
        colour[root] = 0
        queue = [root]
        for v in queue:
            for w in adj[v]:
                if colour[w] == -1:
                    colour[w] = 1 - colour[v]
                    parent[w] = v
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return False, _odd_cycle(v, w, parent)
    return True, tuple(colour)


def _odd_cycle(v, w, parent):
    # v and w share a colour, so the search put them at one depth and their
    # paths up the parent pointers reach the root together; below their
    # lowest common ancestor a the paths part.  v up to a, then a's branch
    # down to w, closes an odd cycle with the edge w -- v
    left, right = [v], [w]
    while parent[left[-1]] != -1:
        left.append(parent[left[-1]])
        right.append(parent[right[-1]])
    while left[-2] == right[-2]:  # drop the shared path above a
        left.pop()
        right.pop()
    return tuple(left + right[-2::-1])


def export(g: ChainGraph, fmt: str) -> str:
    """Serialize a graph as "json", "edgelist" or "dot" text."""
    if fmt == "json":
        return json.dumps(
            {
                "kind": g.kind,
                "n": g.n,
                "vertices": g.vertex_count,
                "edges": [list(e) for e in g.edges],
            }
        )
    if fmt == "edgelist":
        return "".join(f"{a} {b}\n" for a, b in g.edges)
    if fmt == "dot":
        name = f"{'Q' if g.kind == MOEBIUS else 'L'}{g.n}"
        lines = [f"graph {name} {{"]
        lines.extend(f"  {a} -- {b};" for a, b in g.edges)
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
