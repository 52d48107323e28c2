import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import zipf

import _oracles as oracles
from collabnet import metrics, syngen
from collabnet.corpus import ingest
from collabnet.metrics import (
    betweenness_centrality,
    betweenness_centralization,
    clustering,
    compute_stats,
    connected_components,
    degree_stats,
    diameter,
    powerlaw_fit,
    read_stats_csv,
    stats_csv_text,
)
from collabnet.netbuild import CollabNetwork, Edge, build_network, network_of_size
from collabnet.syngen import records_jsonl, specialty_map_for


# ------------------------------------------------------------ degree, density

def test_complete_graph_degree_stats():
    degrees, avg, density = degree_stats(oracles.complete(4))
    assert set(degrees.values()) == {3}
    assert avg == 3.0
    assert density == 1.0


@pytest.mark.parametrize("n,e,avg_expected,density_expected", [
    (87, 1251, 28.76, 0.33),    # large dense snapshot
    (101, 619, 12.26, 0.12),    # mid-size sparse snapshot
])
def test_reported_two_decimal_stats_reproduced_from_counts(n, e, avg_expected, density_expected):
    net = network_of_size(n, e)
    _, avg, density = degree_stats(net)
    assert avg == pytest.approx(avg_expected, abs=0.005)
    assert density == pytest.approx(density_expected, abs=0.005)


def test_degenerate_network_is_an_error():
    with pytest.raises(ValueError, match="degenerate"):
        degree_stats({0: set()})


def test_handshake_identity_on_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(25):
        adj = oracles.random_graph(rng, int(rng.integers(2, 40)), rng.uniform(0.05, 0.6))
        degrees, avg, _ = degree_stats(adj)
        n_edges = sum(len(v) for v in adj.values()) // 2
        assert sum(degrees.values()) == 2 * n_edges
        assert avg == pytest.approx(2 * n_edges / len(adj))


# ---------------------------------------------------------------- diameter

def test_path_and_complete_diameters():
    assert diameter(oracles.path(4)).steps == 3
    for n in (2, 3, 7):
        assert diameter(oracles.complete(n)).steps == 1


def test_edgeless_network_has_no_paths():
    with pytest.raises(ValueError, match="no paths"):
        diameter({0: set(), 1: set()})


def test_diameter_matches_floyd_warshall_oracle():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(4, 51))
        adj = oracles.random_connected_graph(rng, n, extra=rng.uniform(0.02, 0.3))
        assert diameter(adj).steps == oracles.oracle_diameter(adj)


def test_diameter_uses_largest_component():
    # 5-node path component (diameter 4) dominates a 3-node triangle
    adj = oracles.path(5)
    adj.update({10: {11, 12}, 11: {10, 12}, 12: {10, 11}})
    info = diameter(adj)
    assert info.steps == 4
    assert info.component_size == 5
    assert info.n_components == 2


def test_adding_edge_never_increases_diameter():
    rng = np.random.default_rng(2)
    for _ in range(20):
        adj = oracles.random_connected_graph(rng, int(rng.integers(5, 25)), extra=0.1)
        before = diameter(adj).steps
        missing = [(a, b) for a in adj for b in adj if a < b and b not in adj[a]]
        if not missing:
            continue
        a, b = missing[int(rng.integers(len(missing)))]
        adj[a].add(b)
        adj[b].add(a)
        assert diameter(adj).steps <= before


# ------------------------------------------------------------- betweenness

def test_star_is_maximally_centralized():
    assert betweenness_centralization(oracles.star(7)) == pytest.approx(1.0, abs=1e-15)


def test_cycle_is_uncentralized():
    assert betweenness_centralization(oracles.cycle(6)) == pytest.approx(0.0, abs=1e-15)


def test_centralization_undefined_below_three_nodes():
    with pytest.raises(ValueError, match="at least 3"):
        betweenness_centralization({0: {1}, 1: {0}})


def test_brandes_matches_enumeration_oracle_small_graphs():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(3, 9))
        adj = oracles.random_connected_graph(rng, n, extra=rng.uniform(0.1, 0.6))
        got = betweenness_centrality(adj)
        want = oracles.oracle_betweenness(adj)
        for v in adj:
            assert got[v] == pytest.approx(want[v], abs=1e-9)
        assert betweenness_centralization(adj) == pytest.approx(
            oracles.oracle_centralization(adj), abs=1e-9)


@st.composite
def small_graphs(draw):
    """A graph on 3-9 nodes with at least one edge, as an int-keyed mapping."""
    n = draw(st.integers(3, 9))
    pairs = list(combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
                   .filter(any))
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for (a, b), keep in zip(pairs, present):
        if keep:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def as_network(adj, name=str) -> CollabNetwork:
    edges = {tuple(sorted((name(a), name(b)))): Edge(1)
             for a, nbrs in adj.items() for b in nbrs if a < b}
    nodes = tuple(sorted(name(v) for v in adj))
    return CollabNetwork.from_edges(specialty="", year=0, nodes=nodes, edges=edges,
                                    node_strength={v: 0 for v in nodes})


def local_clustering_oracle(adj) -> Fraction:
    total = Fraction(0)
    for v, nbrs in adj.items():
        pairs = list(combinations(sorted(nbrs), 2))
        if pairs:
            total += Fraction(sum(b in adj[a] for a, b in pairs), len(pairs))
    return total / len(adj)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.data())
def test_battery_matches_oracles_relabeling_and_repeats(adj, data):
    stats = compute_stats(as_network(adj))
    dist, _ = oracles.floyd_warshall(adj)
    assert stats.diameter == oracles.oracle_diameter(adj)
    assert stats.n_components == len({tuple(np.isfinite(row)) for row in dist})
    assert stats.betweenness_centralization == pytest.approx(
        oracles.oracle_centralization(adj), abs=1e-9)
    want_bc = oracles.oracle_betweenness(adj)
    for v, got in betweenness_centrality(adj).items():
        assert got == pytest.approx(want_bc[v], abs=1e-9)
    assert stats.transitivity == pytest.approx(float(oracles.oracle_transitivity(adj)), abs=1e-12)
    assert stats.avg_local_clustering == pytest.approx(
        float(local_clustering_oracle(adj)), abs=1e-12)

    perm = data.draw(st.permutations(range(len(adj))))
    relabeled = compute_stats(as_network(adj, name=lambda v: f"N{perm[v]}"))
    for field in ("n_nodes", "n_edges", "diameter", "n_components"):
        assert getattr(relabeled, field) == getattr(stats, field)
    for field in ("avg_degree", "density", "betweenness_centralization",
                  "transitivity", "avg_local_clustering"):
        assert getattr(relabeled, field) == pytest.approx(getattr(stats, field), abs=1e-12)

    net = as_network(adj)
    assert compute_stats(net) == stats
    # bit-identical whatever order the edges (or set-based adjacency) arrive in
    reversed_net = dataclasses.replace(net, src=net.src[::-1], dst=net.dst[::-1],
                                       count=net.count[::-1], cosine=net.cosine[::-1])
    assert compute_stats(reversed_net) == stats


@pytest.mark.parametrize("adj,message", [
    ({"A": {"B", "C"}, "B": {"A", "C"}, "C": {"A", "B", "C"}}, "node 'C': self-loop C-C"),
    ({"A": {"B"}, "C": {"A"}}, "node 'A': endpoint 'B' is not a declared node"),
])
def test_bad_adjacency_mapping_names_the_node(adj, message):
    for statistic in (degree_stats, diameter, betweenness_centrality, clustering):
        with pytest.raises(ValueError) as exc:
            statistic(adj)
        assert str(exc.value) == message


# --------------------------------------------------------------- clustering

def test_triangle_transitivity_is_one():
    transitivity, local = clustering(oracles.complete(3))
    assert transitivity == 1.0
    assert local == 1.0


def test_star_has_no_triangles():
    transitivity, local = clustering(oracles.star(5))
    assert transitivity == 0.0
    assert local == 0.0


def test_triangle_with_pendant_vertex():
    # 5 connected triples, 1 triangle -> 3/5
    adj = {0: {1, 2, 3}, 1: {0, 2}, 2: {0, 1}, 3: {0}}
    transitivity, local = clustering(adj)
    assert transitivity == pytest.approx(0.6, abs=1e-15)
    assert local == pytest.approx((1 / 3 + 1 + 1 + 0) / 4, abs=1e-15)


def test_transitivity_matches_triple_enumeration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(3, 30))
        adj = oracles.random_graph(rng, n, rng.uniform(0.05, 0.7))
        got, _ = clustering(adj)
        want = oracles.oracle_transitivity(adj)
        assert got == pytest.approx(float(want), abs=1e-12)


def test_transitivity_invariant_under_relabeling():
    rng = np.random.default_rng(6)
    adj = oracles.random_graph(rng, 20, 0.2)
    perm = rng.permutation(20)
    relabeled = {int(perm[v]): {int(perm[w]) for w in nbrs} for v, nbrs in adj.items()}
    assert clustering(adj)[0] == pytest.approx(clustering(relabeled)[0], abs=1e-15)


# ---------------------------------------------------------------- power law

def test_powerlaw_mle_recovers_zeta_exponent():
    rng = np.random.Generator(np.random.Philox(11))
    samples = zipf.rvs(2.5, size=20000, random_state=rng)
    fit = powerlaw_fit(samples)
    assert 2.4 <= fit.alpha <= 2.6
    assert fit.loglik < 0


def test_powerlaw_loglik_is_maximized_at_alpha_hat():
    rng = np.random.Generator(np.random.Philox(12))
    samples = zipf.rvs(2.2, size=5000, random_state=rng)
    fit = powerlaw_fit(samples)

    def loglik(alpha):
        from scipy.special import zeta as zeta_fn
        ks = np.asarray(samples, float)
        return -alpha * np.sum(np.log(ks)) - ks.size * np.log(zeta_fn(alpha, 1))

    assert fit.loglik == pytest.approx(loglik(fit.alpha), rel=1e-12)
    for delta in (-0.05, 0.05):
        assert loglik(fit.alpha + delta) < fit.loglik


def powerlaw_samples(seed: int, count: int) -> list[np.ndarray]:
    """Zipf samples with at least 10 distinct values, exponents 1.2 to 4."""
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    while len(out) < count:
        ks = zipf.rvs(rng.uniform(1.2, 4.0), size=int(rng.integers(30, 3000)), random_state=rng)
        if np.unique(ks).size >= 10:
            out.append(ks)
    return out


def snapshot_degrees(seed: int, n_papers: int, n_countries: int) -> list[list[int]]:
    """The nonzero degree sequence of every (specialty, year) snapshot."""
    cfg = syngen.GenConfig.default(seed=seed, n_papers=n_papers, n_countries=n_countries)
    records, _ = syngen.generate(cfg)
    corp = ingest(records_jsonl(records).splitlines(), specialty_map_for(cfg))
    out = []
    for spec in sorted(specialty_map_for(cfg).universe):
        for year in cfg.years:
            net = build_network([r for r in corp if r.specialty == spec and r.year == year])
            out.append([d for d in degree_stats(net)[0].values() if d > 0])
    return out


def test_powerlaw_alpha_matches_mpmath_root():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30

    def mpmath_alpha(ks, start: float) -> float:
        mean_log = mpmath.fsum(mpmath.log(int(k)) for k in ks) / len(ks)
        return float(mpmath.findroot(
            lambda a: -mpmath.zeta(a, 1, 1) / mpmath.zeta(a) - mean_log, start))

    samples = powerlaw_samples(21, 30) + snapshot_degrees(1, 10_000, 60)  # cli-chain's corpus
    assert len(samples) == 42
    for ks in samples:
        alpha = powerlaw_fit(ks).alpha
        assert alpha == pytest.approx(mpmath_alpha(ks, alpha), rel=1e-13, abs=0)


def test_zeta_derivs_at_known_values():
    z2, z4 = metrics._zeta_derivs(2.0)[0], metrics._zeta_derivs(4.0)[0]
    assert z2 == pytest.approx(math.pi ** 2 / 6, rel=1e-15, abs=0)
    assert z4 == pytest.approx(math.pi ** 4 / 90, rel=1e-15, abs=0)


@pytest.mark.parametrize("x", [2.0, 2.5, 3.3, 5.0, 9.0])
def test_zeta_derivs_within_direct_sum_bounds(x):
    # sum_{k <= K} (-ln k)^m k^-x plus the tail sum_{k > K}, which for these
    # terms (decreasing in k beyond K) lies between the integrals from K + 1
    # and from K of (ln t)^m t^-x dt
    K = 1_000_000
    ks = np.arange(1, K + 1, dtype=float)
    log_k, powers = np.log(ks), ks ** -x

    def tail_integral(t: float, m: int) -> float:
        v = 1.0 / (x - 1.0)
        lt = math.log(t)
        return t ** (1.0 - x) * (v, lt * v + v * v, lt * lt * v + 2 * lt * v * v + 2 * v ** 3)[m]

    for m, got in enumerate(metrics._zeta_derivs(x)):
        sign = (-1.0) ** m
        head = sign * math.fsum((log_k ** m * powers).tolist())
        bounds = sorted(head + sign * tail_integral(t, m) for t in (K + 1.0, float(K)))
        slack = 1e-15 * abs(got)
        assert bounds[0] - slack <= got <= bounds[1] + slack


def test_powerlaw_fit_converges_at_large_alpha():
    # almost every degree is 1, so the fitted exponent is large
    ks = [1] * 100_000 + list(range(2, 12))
    alpha = powerlaw_fit(ks).alpha
    assert 10.0 < alpha < 20.0
    # the score equation sum ln k k^-alpha / sum k^-alpha = mean ln k, by direct sums
    k = np.arange(1, 1001, dtype=float)
    weights = (k ** -alpha).tolist()
    mean_log = math.fsum(math.log(v) for v in ks) / len(ks)
    assert math.fsum((np.log(k) * k ** -alpha).tolist()) / math.fsum(weights) == \
        pytest.approx(mean_log, rel=1e-12, abs=0)


def test_powerlaw_rejects_degenerate_sequences():
    with pytest.raises(ValueError, match="no power-law support"):
        powerlaw_fit([3] * 100)
    with pytest.raises(ValueError, match="no power-law support"):
        powerlaw_fit([1, 2, 3] * 10)
    with pytest.raises(ValueError, match="positive"):
        powerlaw_fit([0, 1, 2])


# ------------------------------------------------------------- full battery

def build_snapshot(seed: int, n_papers: int = 400):
    cfg = syngen.GenConfig.default(seed=seed, n_papers=n_papers, years=(2013,))
    records, _ = syngen.generate(cfg)
    corp = ingest(records_jsonl(records).splitlines(), specialty_map_for(cfg))
    return build_network([r for r in corp if r.specialty == "Virology"])


def test_compute_stats_definitional_identities():
    net = build_snapshot(seed=21)
    stats = compute_stats(net)
    n, e = stats.n_nodes, stats.n_edges
    assert stats.density == pytest.approx(2 * e / (n * (n - 1)), abs=0)
    assert stats.avg_degree == pytest.approx(2 * e / n, abs=0)
    assert stats.diameter >= 1
    assert 0 <= stats.betweenness_centralization <= 1
    assert 0 <= stats.transitivity <= 1
    assert 0 <= stats.avg_local_clustering <= 1
    assert stats.n_components == len(connected_components(net))


def test_stats_csv_round_trip():
    net = build_snapshot(seed=22)
    stats = compute_stats(net)
    text = stats_csv_text([stats])
    rows = read_stats_csv(text.splitlines())
    assert rows[0]["specialty"] == "Virology"
    assert rows[0]["year"] == 2013
    assert rows[0]["nodes"] == stats.n_nodes
    assert rows[0]["edges"] == stats.n_edges
    assert rows[0]["density"] == pytest.approx(stats.density, rel=1e-10)
    assert rows[0]["alpha"] is None


def test_stats_csv_fixed_decimals():
    net = build_snapshot(seed=23)
    text = stats_csv_text([compute_stats(net)], fixed_decimals=True)
    row = text.splitlines()[1].split(",")
    for cell in row[5:10]:
        assert len(cell.split(".")[1]) == 4


def test_stats_json_mirrors_csv_columns():
    import json

    from collabnet.metrics import STATS_COLUMNS, stats_json_text

    net = build_snapshot(seed=24)
    stats = compute_stats(net)
    obj = json.loads(stats_json_text([stats]).splitlines()[0])
    assert set(obj) == set(STATS_COLUMNS)
    assert obj["nodes"] == stats.n_nodes
    assert obj["density"] == stats.density
    assert obj["alpha"] is None
