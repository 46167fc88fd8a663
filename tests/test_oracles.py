import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from octachain import closed_forms as cf
from octachain import exact_algebra as xa
from octachain import graph_gen as gg
from octachain import laplacian as lap
from octachain import oracles as orc
from minor_reference import principal_minors
from walk_matrix import dense_fold_block, rational_walk_laplacian

F = Fraction

K2 = (2, ((0, 1),))


def test_eigensolver_identity():
    eig = orc.eigenvalues_symmetric(np.eye(5))
    assert eig == [1.0] * 5


def test_empty_list_is_the_empty_matrix():
    assert orc.eigenvalues_symmetric([]) == []
    assert orc.eigenvalues_symmetric(np.zeros((0, 0))) == []
    assert orc.charpoly_exact([]) == [1]
    with pytest.raises(ValueError, match="square"):
        orc.eigenvalues_symmetric([1.0])


def test_eigensolver_known_2x2():
    eig = orc.eigenvalues_symmetric([[0.0, 1.0], [1.0, 0.0]])
    assert eig[0] == pytest.approx(-1.0, abs=1e-12)
    assert eig[1] == pytest.approx(1.0, abs=1e-12)


def test_eigensolver_la_n1():
    eig = orc.eigenvalues_symmetric(dense_fold_block(1, "A"))
    assert eig[0] == pytest.approx(0.0, abs=1e-10)
    assert eig[1] + eig[2] == pytest.approx(8 / 3, abs=1e-10)
    assert eig[1] * eig[2] == pytest.approx(7 / 4, abs=1e-10)


def test_eigensolver_trace():
    for n in range(1, 11):
        m = lap.normalized_laplacian(gg.build_moebius_octagonal(n))
        assert sum(orc.eigenvalues_symmetric(m)) == pytest.approx(6 * n, abs=1e-8)


@pytest.mark.parametrize(
    "m",
    [[[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 1.0], [1.0, 1.0]]],
    ids=["nan", "inf"],
)
def test_eigensolver_rejects_nonfinite_entries(m):
    with pytest.raises(ValueError, match="finite"):
        orc.eigenvalues_symmetric(m)


def test_eigensolver_rejects_non_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        orc.eigenvalues_symmetric([[1.0, 1.0], [0.0, 1.0]])


def test_charpoly_block_images_n1():
    pa = orc.charpoly_exact(lap.rational_block_image(1, "A"))
    assert pa == [F(0), F(7, 4), F(-8, 3), F(1)]
    ps = orc.charpoly_exact(lap.rational_block_image(1, "S"))
    assert ps == [F(-5, 6), F(37, 12), F(-10, 3), F(1)]


@pytest.mark.parametrize(
    "m, want",
    [
        # triangular: every pivot is a diagonal entry
        ([[1, 2, 3], [0, 4, 5], [0, 0, 6]], [-24, 34, -11, 1]),
        # a pivot with a zero constant term is passed over for a row swap,
        # and the all-z column of the isolated vertex has its z factored out
        ([[0, 0, 1], [0, 0, 0], [1, 0, 0]], [0, -1, 0, 1]),
        # dense: every remaining row is updated at every step
        ([[1, 1, 1], [1, 2, 3], [1, 4, 9]], [-2, 15, -12, 1]),
        ([[F(1, 2)]], [F(-1, 2), 1]),
        ([], [1]),
    ],
)
def test_charpoly_exact_small_matrices(m, want):
    assert orc.charpoly_exact(m) == want


def test_charpoly_rejects_non_square():
    with pytest.raises(ValueError):
        orc.charpoly_exact([[1, 2]])


def test_charpoly_walk_constant_term():
    for n in range(1, 7):
        g = gg.build_moebius_octagonal(n)
        coeffs = orc.charpoly_exact(rational_walk_laplacian(g))
        assert coeffs[0] == 0
        assert coeffs[1] != 0
        assert coeffs[-1] == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=4,
            max_size=4,
        ),
        min_size=4,
        max_size=4,
    )
)
def test_charpoly_matches_numpy(rows):
    coeffs = orc.charpoly_exact(rows)
    numeric = np.poly(np.array([[float(x) for x in r] for r in rows]))[::-1]
    for k, c in enumerate(coeffs):
        assert float(c) == pytest.approx(numeric[k], abs=1e-6)


sparse_5x5 = st.lists(
    st.lists(
        st.one_of(st.just(0), st.just(0), st.integers(min_value=-3, max_value=3)),
        min_size=5,
        max_size=5,
    ),
    min_size=5,
    max_size=5,
)


# singular pencils: a z is factored out mid-elimination, after which the
# stored series hold more coefficients than the shorter ones still computed
_NULLITY_1 = [
    [1, 1, 0, 0, 0],
    [1, 1, 0, 0, 0],
    [0, 0, 2, 1, 0],
    [0, 0, 1, 2, 0],
    [0, 0, 0, 0, 3],
]
_NULLITY_3 = [
    [1, 2, 0, 0, 0],
    [2, 4, 0, 0, 0],
    [0, 0, 1, 1, 0],
    [0, 0, 1, 1, 0],
    [0, 0, 0, 0, 0],
]


@settings(max_examples=150, deadline=None)
@given(sparse_5x5, st.integers(min_value=1, max_value=7))
@example(_NULLITY_1, 2)
@example(_NULLITY_1, 3)
@example(_NULLITY_1, 4)
@example(_NULLITY_3, 2)
@example(_NULLITY_3, 3)
def test_truncated_charpoly_is_a_prefix(rows, terms):
    full = orc.charpoly_exact(rows)
    assert orc.charpoly_exact(rows, terms=terms) == (full + [0] * terms)[:terms]


def _random_connected_graph(rng, order):
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, order)}
    for _ in range(rng.randrange(2 * order)):
        a, b = rng.sample(range(order), 2)
        edges.add((min(a, b), max(a, b)))
    return order, tuple(sorted(edges))


def test_kemeny_pencil_matches_walk_charpoly():
    rng = random.Random(11)
    for _ in range(40):
        g = _random_connected_graph(rng, rng.randint(2, 9))
        walk = orc.charpoly_exact(rational_walk_laplacian(g))
        assert orc.kemeny_oracle(g) == orc.recip_sum_from_charpoly(walk)


def test_rcm_bandwidth():
    def bandwidth(rows):
        pattern = [{j: x for j, x in enumerate(row) if x} for row in rows]
        pos = {v: k for k, v in enumerate(xa._rcm_order(pattern))}
        return max(
            abs(pos[i] - pos[j])
            for i, row in enumerate(rows)
            for j, x in enumerate(row)
            if x
        )

    for n in range(1, 31):
        q = gg.build_moebius_octagonal(n)
        assert bandwidth(lap.combinatorial_laplacian(q)) <= 6
        for family in ("A", "S"):
            assert bandwidth(lap.rational_block_image(n, family)) <= 2


def test_oracles_beyond_dense_reach():
    g = gg.build_moebius_octagonal(40)
    assert orc.kemeny_oracle(g) == cf.kemeny(40)
    assert orc.spanning_trees_oracle(g) == cf.spanning_trees(40)
    assert orc.dk_oracle(g) == cf.dk_index(40)
    # 1599 grounded rows; the degrees ride along as a column, not a border
    # row that would widen the band to the whole matrix
    assert orc.dk_oracle(gg.build_moebius_octagonal(200)) == cf.dk_index(200)


def test_dk_oracle_guards_its_diagonal_pivots(monkeypatch):
    eliminate = orc._eliminate

    def swapped(*args):
        coeffs, chosen, pivots, carried = eliminate(*args)
        return coeffs, chosen[::-1], pivots, carried

    monkeypatch.setattr(orc, "_eliminate", swapped)
    with pytest.raises(ArithmeticError):
        orc.dk_oracle(gg.build_moebius_octagonal(2))


def test_single_vertex_kemeny_and_dk():
    assert orc.kemeny_oracle((1, ())) == 0
    assert orc.dk_oracle((1, ())) == 0


@pytest.mark.parametrize(
    "oracle",
    [orc.spanning_trees_oracle, orc.kemeny_oracle, orc.dk_oracle],
)
def test_negative_vertex_count_is_rejected(oracle):
    with pytest.raises(ValueError, match="negative"):
        oracle((-1, ()))
    oracle((0, ()))  # the empty graph stays valid


def test_recip_sum_from_charpoly():
    assert orc.recip_sum_from_charpoly([F(0), F(7, 4), F(-8, 3), F(1)]) == F(32, 21)
    assert orc.recip_sum_from_charpoly([F(-5, 6), F(37, 12), F(-10, 3), F(1)]) == F(37, 10)
    # (z-1)(z-2)z
    assert orc.recip_sum_from_charpoly([F(0), F(2), F(-3), F(1)]) == F(3, 2)
    # single zero root and nothing else
    assert orc.recip_sum_from_charpoly([F(0), F(1)]) == 0


def test_recip_sum_rejects_double_zero():
    with pytest.raises(ValueError):
        orc.recip_sum_from_charpoly([F(0), F(0), F(1)])


def test_k2_oracles():
    assert orc.dk_oracle(K2) == 1
    assert orc.kemeny_oracle(K2) == F(1, 2)


def test_oracles_accept_list_edges():
    path = (3, [(0, 1), (1, 2)])
    assert orc.spanning_trees_oracle(path) == 1
    # r = 1, 1, 2 with degree products 2, 2, 1
    assert orc.dk_oracle(path) == 6
    assert orc.kemeny_oracle(path) == orc.kemeny_oracle((3, ((0, 1), (1, 2))))


@pytest.mark.parametrize(
    "edges", [list, tuple, lambda e: (x for x in e)], ids=["list", "tuple", "generator"]
)
def test_every_graph_function_reads_its_edges_once(edges):
    # a one-shot iterable of edges must give the answers of a list
    def triangle():
        return 3, edges([(0, 1), (1, 2), (0, 2)])

    assert lap.combinatorial_laplacian(triangle()) == [
        [2, -1, -1],
        [-1, 2, -1],
        [-1, -1, 2],
    ]
    assert [row[i] for i, row in enumerate(lap.normalized_laplacian(triangle()))] == [
        1.0
    ] * 3
    assert gg.adjacency_lists(triangle()) == ((1, 2), (0, 2), (0, 1))
    assert gg.vertex_degrees(triangle()) == (2, 2, 2)
    assert not gg.is_bipartite(triangle())[0]
    # walk eigenvalues 0, 3/2, 3/2; every resistance is 2/3
    assert orc.kemeny_oracle(triangle()) == F(4, 3)
    assert orc.dk_oracle(triangle()) == 3 * 4 * F(2, 3)
    assert orc.spanning_trees_oracle(triangle()) == 3


def test_octagon_resistances():
    # the 8-cycle: r = k(8 - k)/8 at distance k, so the resistances sum to
    # 8 * (7 + 12 + 15 + 16/2) / 8 = 42, and every degree product is 4
    assert orc.dk_oracle(gg.build_linear_octagonal(1)) == 4 * 42 == 168


def test_q1_resistance_dk():
    g = gg.build_moebius_octagonal(1)
    assert orc.dk_oracle(g) == F(1097, 15)
    assert orc.kemeny_oracle(g) == F(1097, 210)


def _pinv_dk(g):
    degrees = np.array(gg.vertex_degrees(g), dtype=float)
    pinv = np.linalg.pinv(np.array(lap.combinatorial_laplacian(g), dtype=float))
    diag = np.diagonal(pinv)
    r = diag[:, None] + diag[None, :] - 2 * pinv
    return float(degrees @ r @ degrees) / 2


def test_dk_oracle_matches_pseudoinverse():
    rng = random.Random(5)
    for _ in range(40):
        g = _random_connected_graph(rng, rng.randint(2, 12))
        assert float(orc.dk_oracle(g)) == pytest.approx(_pinv_dk(g), rel=1e-9)


def _relabelled(g, perm):
    vertex_count, edges = g
    return vertex_count, tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))


def test_resistance_ground_independence():
    # dk_oracle grounds at vertex 0; moving other vertices there by a
    # relabelling must not change the sum
    g = gg.build_moebius_octagonal(2)
    base = orc.dk_oracle(g)
    for ground in (3, 5, 11):
        perm = list(range(g.vertex_count))
        perm[0], perm[ground] = ground, 0
        assert orc.dk_oracle(_relabelled((g.vertex_count, g.edges), perm)) == base


def test_resistance_below_path_distance():
    # r_ij <= dist(i, j) for every pair (Rayleigh monotonicity), so the
    # degree-weighted sums obey the same bound, strictly on a graph with a cycle
    for builder in (gg.build_moebius_octagonal, gg.build_linear_octagonal):
        g = builder(3)
        adj = gg.adjacency_lists(g)
        total = 0
        for src in range(g.vertex_count):
            dist = {src: 0}
            queue = [src]
            for v in queue:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        queue.append(w)
            total += sum(g.degrees[src] * g.degrees[v] * d for v, d in dist.items())
        assert orc.dk_oracle(g) < total // 2


def test_disconnected_graph_rejected():
    broken = (4, ((0, 1), (2, 3)))
    with pytest.raises(orc.DisconnectedGraph):
        orc.dk_oracle(broken)


def _searched_connected(vertex_count, edges):
    """Connectivity by a breadth-first search from vertex 0."""
    adj = [[] for _ in range(vertex_count)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0} if vertex_count else set()
    queue = list(seen)
    for v in queue:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == vertex_count


def test_oracles_refuse_exactly_the_disconnected_graphs():
    # the oracles read connectivity off their determinants; a search must
    # agree on every graph, isolated vertices included
    rng = random.Random(34)
    refusals = {
        orc.kemeny_oracle: "^Kemeny's constant needs a connected graph$",
        orc.dk_oracle: "^resistances need a connected graph$",
    }
    disconnected = isolated = 0
    for _ in range(600):
        count, p = rng.randint(0, 12), rng.choice([0.05, 0.1, 0.2, 0.4, 0.6])
        pairs = itertools.combinations(range(count), 2)
        g = (count, [e for e in pairs if rng.random() < p])
        if _searched_connected(*g):
            dk = orc.dk_oracle(g)
            assert dk == 2 * len(g[1]) * orc.kemeny_oracle(g)
            if count > 1:
                assert float(dk) == pytest.approx(_pinv_dk(g), rel=1e-9)
            continue
        disconnected += 1
        isolated += 0 in gg.vertex_degrees(g)
        for oracle, message in refusals.items():
            with pytest.raises(orc.DisconnectedGraph, match=message):
                oracle(g)
    assert disconnected >= 300 and isolated >= 250


def test_kemeny_and_dk_oracles_search_no_graph(monkeypatch):
    def refuse(g):
        raise AssertionError("an oracle built adjacency lists")

    monkeypatch.setattr(gg, "adjacency_lists", refuse)
    for n in range(1, 5):
        q = gg.build_moebius_octagonal(n)
        assert orc.kemeny_oracle(q) == cf.kemeny(n)
        assert orc.dk_oracle(q) == cf.dk_index(n)


def test_route_independence():
    for n in range(1, 5):
        q = gg.build_moebius_octagonal(n)
        assert orc.dk_oracle(q) == 2 * 7 * n * orc.kemeny_oracle(q)
    for n in range(1, 4):
        li = gg.build_linear_octagonal(n)
        assert orc.dk_oracle(li) == 2 * (7 * n + 1) * orc.kemeny_oracle(li)
    # dk = 2|E| * Kemeny on any connected graph; pendant vertices and
    # uneven degrees give the carried degree column irregular entries
    rng = random.Random(23)
    for _ in range(12):
        order, edges = _random_connected_graph(rng, rng.randint(3, 12))
        pendants = rng.randint(1, 3)
        edges += tuple((rng.randrange(order), order + k) for k in range(pendants))
        g = (order + pendants, edges)
        assert orc.dk_oracle(g) == 2 * len(edges) * orc.kemeny_oracle(g)


def test_spanning_trees_oracle():
    assert orc.spanning_trees_oracle(gg.build_moebius_octagonal(1)) == 15
    assert orc.spanning_trees_oracle(gg.build_moebius_octagonal(4)) == 23064
    assert orc.spanning_trees_oracle(gg.build_moebius_octagonal(7)) == 19686345


def test_leading_principal_minors_exact():
    eye = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert principal_minors(eye, [range(k) for k in range(1, 5)]) == [1, 1, 1, 1]
    section = lap.rational_block_image(3, "A")  # phase 0, order 6
    mins = principal_minors(section, [range(k) for k in range(1, 7)])
    assert mins == [F(2, 3), F(1, 2), F(1, 3), F(5, 36), F(1, 12), F(7, 144)]


def test_numeric_recip_sum_matches_exact():
    for n in range(1, 11):
        g = gg.build_moebius_octagonal(n)
        eig = orc.eigenvalues_symmetric(lap.normalized_laplacian(g))
        numeric = sum(1.0 / v for v in eig if v > 1e-9)
        exact = float(orc.kemeny_oracle(g))
        assert numeric == pytest.approx(exact, rel=1e-7)
