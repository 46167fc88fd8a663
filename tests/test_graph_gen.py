import importlib
import itertools
import json
import pkgutil
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import octachain
from octachain import graph_gen as gg
from octachain import oracles as orc


Q1_EDGES = ((0, 1), (0, 3), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))


def test_q1_structure():
    g = gg.build_moebius_octagonal(1)
    assert g.kind == gg.MOEBIUS
    assert g.vertex_count == 6
    assert g.edges == Q1_EDGES
    assert g.degrees == (3, 2, 2, 3, 2, 2)


def test_q2_counts():
    g = gg.build_moebius_octagonal(2)
    assert g.vertex_count == 12
    assert len(g.edges) == 14
    assert Counter(g.degrees) == {3: 4, 2: 8}


def test_counts_up_to_50():
    for n in range(1, 51):
        q = gg.build_moebius_octagonal(n)
        assert q.vertex_count == 6 * n
        assert len(q.edges) == 7 * n
        assert Counter(q.degrees) == {3: 2 * n, 2: 4 * n}
        assert sum(q.degrees) == 2 * len(q.edges)
        li = gg.build_linear_octagonal(n)
        assert li.vertex_count == 6 * n + 2
        assert len(li.edges) == 7 * n + 1
        assert sum(li.degrees) == 2 * len(li.edges)


def _reached(g, drop=None):
    """The vertices a breadth-first search over ``gg.adjacency_lists(g)``
    reaches from the lowest vertex other than `drop`, never entering `drop`."""
    adj = gg.adjacency_lists(g)
    seen = {0 if drop != 0 else 1}
    queue = list(seen)
    for v in queue:
        for w in adj[v]:
            if w != drop and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def test_connected_and_two_connected():
    for n in range(1, 13):
        g = gg.build_moebius_octagonal(n)
        assert len(_reached(g)) == g.vertex_count
        for drop in range(g.vertex_count):
            # a search skipping one vertex must still reach everything else
            assert len(_reached(g, drop)) == g.vertex_count - 1


def test_degree_product():
    for n in range(1, 21):
        g = gg.build_moebius_octagonal(n)
        assert gg.degree_product(g) == 2 ** (4 * n) * 3 ** (2 * n)


def test_linear_one_is_octagon():
    g = gg.build_linear_octagonal(1)
    assert g.vertex_count == 8
    assert len(g.edges) == 8
    assert set(g.degrees) == {2}
    assert len(_reached(g)) == g.vertex_count


def reference_moebius(n):
    """Q_n built directly: two paths of 3n vertices, rungs at chain positions
    1 mod 3 short of the end, and the two crossing seam edges."""
    m = 3 * n
    edges = set()
    for j in range(m - 1):
        edges |= {(j, j + 1), (m + j, m + j + 1)}
    edges |= {(j, m + j) for j in range(0, m - 2, 3)}
    edges |= {(m - 1, m), (0, 2 * m - 1)}
    return gg.ChainGraph(gg.MOEBIUS, n, 2 * m, tuple(sorted(edges)))


def test_fold_reproduces_moebius():
    for n in range(1, 51):
        assert gg.build_moebius_octagonal(n) == reference_moebius(n)


def test_fold_rejects_moebius():
    with pytest.raises(ValueError):
        gg.fold_linear_ends(gg.build_moebius_octagonal(2))


@pytest.mark.parametrize(
    "operation, kind, vertex_count, edges",
    [
        (gg.fold_linear_ends, gg.LINEAR, 4, ((0, 1), (1, 2), (2, 3))),
        (gg.fold_linear_ends, gg.LINEAR, 10, gg.build_linear_octagonal(1).edges),
        (gg.mirror_automorphism, gg.MOEBIUS, 8, Q1_EDGES + ((6, 7),)),
        (gg.mirror_automorphism, gg.MOEBIUS, 7, Q1_EDGES),
        (gg.mirror_automorphism, gg.MOEBIUS, 12, Q1_EDGES),
    ],
)
def test_index_maps_reject_a_wrong_vertex_count(operation, kind, vertex_count, edges):
    # the fold and the mirror map vertices by their chain positions, which
    # only exist on 6n + 2 (open) or 6n (closed) vertices; no graph with
    # another count can be built to reach them
    with pytest.raises(ValueError, match="6n"):
        operation(gg.ChainGraph(kind, 1, vertex_count, edges))


def test_chain_graph_vertex_count_follows_n():
    q3 = gg.build_moebius_octagonal(3)
    with pytest.raises(ValueError, match="6n"):
        gg.ChainGraph(kind=gg.MOEBIUS, n=2, vertex_count=18, edges=q3.edges)
    with pytest.raises(ValueError, match="6n"):
        gg.ChainGraph(kind=gg.LINEAR, n=5, vertex_count=3, edges=((0, 1),))
    assert gg.ChainGraph(gg.MOEBIUS, 3, 18, q3.edges) == q3


def test_mirror_small():
    g = gg.build_moebius_octagonal(1)
    assert gg.mirror_automorphism(g) == (3, 4, 5, 0, 1, 2)


@given(st.integers(min_value=1, max_value=20))
def test_mirror_properties(n):
    g = gg.build_moebius_octagonal(n)
    pi = gg.mirror_automorphism(g)
    assert all(pi[pi[v]] == v for v in range(g.vertex_count))
    assert all(pi[v] != v for v in range(g.vertex_count))
    mapped = {tuple(sorted((pi[a], pi[b]))) for a, b in g.edges}
    assert mapped == set(g.edges)
    # the two seam edges swap with each other
    m = 3 * n
    assert tuple(sorted((pi[m - 1], pi[m]))) == (0, 2 * m - 1)


def test_mirror_rejects_linear():
    with pytest.raises(ValueError):
        gg.mirror_automorphism(gg.build_linear_octagonal(2))


def test_bipartite_iff_odd():
    for n in range(1, 21):
        g = gg.build_moebius_octagonal(n)
        flag, cert = gg.is_bipartite(g)
        assert flag == (n % 2 == 1)
        if flag:
            colors = cert
            assert all(colors[a] != colors[b] for a, b in g.edges)
        else:
            cycle = cert
            assert len(cycle) % 2 == 1
            edge_set = set(g.edges)
            for i, v in enumerate(cycle):
                w = cycle[(i + 1) % len(cycle)]
                assert tuple(sorted((v, w))) in edge_set


@pytest.mark.parametrize(
    "n, cycle",
    [
        (2, (3, 2, 1, 0, 6, 5, 4)),
        (4, (6, 5, 4, 3, 2, 1, 0, 12, 11, 10, 9, 8, 7)),
        (10, (*range(15, -1, -1), *range(30, 15, -1))),
    ],
)
def test_odd_cycle_certificates_of_even_chains(n, cycle):
    assert gg.is_bipartite(gg.build_moebius_octagonal(n)) == (False, cycle)


def test_odd_cycles_of_random_graphs_are_odd_closed_and_simple():
    rng = random.Random(29)
    odd = disconnected = 0
    for _ in range(300):
        count, p = rng.randint(3, 30), rng.choice([0.05, 0.1, 0.2, 0.4])
        pairs = itertools.combinations(range(count), 2)
        edges = [e for e in pairs if rng.random() < p]
        flag, cert = gg.is_bipartite((count, edges))
        if flag:
            assert all(cert[a] != cert[b] for a, b in edges)
            continue
        odd += 1
        disconnected += len(_reached((count, edges))) < count
        assert len(cert) % 2 == 1
        assert len(set(cert)) == len(cert)  # simple: no vertex twice
        closing = zip(cert, cert[1:] + cert[:1])
        assert {tuple(sorted(e)) for e in closing} <= set(edges)
    assert odd >= 100 and disconnected >= 10


def test_linear_always_bipartite():
    for n in range(1, 11):
        flag, colors = gg.is_bipartite(gg.build_linear_octagonal(n))
        assert flag


@pytest.mark.parametrize("bad", [0, -1, -7])
def test_invalid_n_rejected(bad):
    with pytest.raises(ValueError):
        gg.build_moebius_octagonal(bad)
    with pytest.raises(ValueError):
        gg.build_linear_octagonal(bad)


def test_numpy_sizes_build_int_graphs():
    for build in (gg.build_linear_octagonal, gg.build_moebius_octagonal):
        g = build(np.int64(2))
        assert type(g.n) is int and type(g.vertex_count) is int
        assert json.loads(gg.export(g, "json"))["n"] == 2
        assert g == build(2)


def test_float_sizes_are_refused():
    q2 = gg.build_moebius_octagonal(2)
    for build in (gg.build_linear_octagonal, gg.build_moebius_octagonal):
        with pytest.raises(TypeError):
            build(2.0)
    with pytest.raises(TypeError):
        gg.ChainGraph(kind=gg.MOEBIUS, n=2.0, vertex_count=12, edges=q2.edges)
    with pytest.raises(TypeError):
        gg.ChainGraph(kind=gg.MOEBIUS, n=2, vertex_count=12.0, edges=q2.edges)
    with pytest.raises(ValueError, match="vertex count must be a positive integer"):
        gg.ChainGraph(kind=gg.MOEBIUS, n=2, vertex_count=0, edges=())


def test_chain_graph_validation():
    with pytest.raises(ValueError):
        gg.ChainGraph(kind="hex", n=1, vertex_count=6, edges=Q1_EDGES)
    with pytest.raises(ValueError):
        gg.ChainGraph(kind=gg.MOEBIUS, n=1, vertex_count=6, edges=((0, 0),))
    with pytest.raises(ValueError):
        gg.ChainGraph(
            kind=gg.MOEBIUS, n=1, vertex_count=6, edges=Q1_EDGES + ((0, 1),)
        )


@pytest.mark.parametrize(
    "edges",
    [((0, 1), (0, 1)), ((0, 1), (1, 0)), ((1, 1),), ((0, 2),), ((-1, 0),)],
)
def test_plain_graph_validation(edges):
    # duplicate in either orientation, self-loop, endpoint out of range
    with pytest.raises(ValueError):
        gg.vertex_degrees((2, edges))


@pytest.mark.parametrize(
    "graph",
    [
        (3, [(0, 1.5), (1, 2)]),
        (3, [(0, Fraction(1)), (1, 2)]),
        (3.9, [(0, 1), (1, 2)]),
        (Fraction(3), [(0, 1), (1, 2)]),
    ],
    ids=["float-id", "fraction-id", "float-count", "fraction-count"],
)
def test_plain_graph_rejects_non_integers(graph):
    # int() would truncate these to a different graph
    with pytest.raises(TypeError):
        gg.vertex_degrees(graph)
    with pytest.raises(TypeError):
        orc.spanning_trees_oracle(graph)


def test_plain_graph_accepts_numpy_integers():
    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
    graph = (np.int64(3), [tuple(e) for e in edges])
    assert gg.vertex_degrees(graph) == (1, 2, 1)
    assert orc.spanning_trees_oracle(graph) == 1
    assert orc.dk_oracle(graph) == 6


def test_export_edgelist_golden():
    out = gg.export(gg.build_moebius_octagonal(1), "edgelist")
    assert out == "0 1\n0 3\n0 5\n1 2\n2 3\n3 4\n4 5\n"


def test_export_json():
    import json

    g = gg.build_moebius_octagonal(1)
    data = json.loads(gg.export(g, "json"))
    assert data == {
        "kind": "moebius",
        "n": 1,
        "vertices": 6,
        "edges": [[0, 1], [0, 3], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]],
    }
    lin = json.loads(gg.export(gg.build_linear_octagonal(2), "json"))
    assert lin["kind"] == "linear"
    assert lin["vertices"] == 14
    assert all(a < b for a, b in lin["edges"])
    assert lin["edges"] == sorted(lin["edges"])


def test_export_dot():
    out = gg.export(gg.build_moebius_octagonal(1), "dot")
    lines = out.splitlines()
    assert lines[0] == "graph Q1 {"
    assert lines[-1] == "}"
    assert lines[1].strip() == "0 -- 1;"
    assert len(lines) == 9


def test_export_unknown_format():
    with pytest.raises(ValueError):
        gg.export(gg.build_moebius_octagonal(1), "gml")


def test_every_package_cache_is_bounded():
    caches = []
    for info in pkgutil.iter_modules(octachain.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"octachain.{info.name}")
        caches += [
            obj.cache_info()
            for obj in vars(module).values()
            if callable(getattr(obj, "cache_info", None))
        ]
    assert caches
    assert all(info.maxsize is not None for info in caches)
