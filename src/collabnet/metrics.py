"""Per-snapshot network statistics battery.

All measures run on the binarized undirected graph: an edge either exists or
it does not, and co-publication counts and cosine weights play no role. The
battery covers size (nodes, edges, diameter), cohesion (average degree,
density), brokerage concentration (betweenness centralization), cliquishness
(transitivity and average local clustering), and a discrete power-law fit of
the degree distribution.

Functions accept either a CollabNetwork or a plain adjacency mapping
`{node: set-of-neighbors}`. Every statistic comes from one dense 0/1
adjacency matrix over the sorted node labels (a snapshot has at most one row
per country, so dense is cheap) and from one level-synchronous BFS run from
all sources at once: shortest-path counts plus one value front per level
give components, diameter and Brandes betweenness as matrix products.
Degrees are row sums and triangles the diagonal of A^3 halved.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import _csv_text
from .longit import STATS_TABLE, read_stats_csv  # noqa: F401  (reads stats_csv_text output)
from .netbuild import CollabNetwork, _network

STATS_COLUMNS = tuple(col for col, _ in STATS_TABLE)


@dataclass(frozen=True)
class NetworkStats:
    """The statistics bundle for one (specialty, year) snapshot; the fields
    are the stats CSV columns, in order."""

    specialty: str
    year: int
    n_nodes: int
    n_edges: int
    diameter: int
    avg_degree: float
    density: float
    betweenness_centralization: float
    transitivity: float
    avg_local_clustering: float
    n_components: int
    powerlaw_alpha: float | None = None

    def to_json_obj(self) -> dict:
        """Keys are the stats CSV columns."""
        return dict(zip(STATS_COLUMNS, astuple(self), strict=True))


class DiameterInfo(NamedTuple):
    steps: int
    component_size: int
    n_components: int


class PowerlawFit(NamedTuple):
    alpha: float
    loglik: float


def _matrix(net) -> tuple[Sequence, np.ndarray]:
    """Sorted node labels and the dense 0/1 adjacency matrix in that order. A
    mapping's edges go through `netbuild._network`, so one it rejects is a
    ValueError naming a node that lists it."""
    if not isinstance(net, CollabNetwork):  # one row per edge, though listed from both ends
        rows = {frozenset((v, w)): (f"node {v!r}", v, w, None, None)
                for v, nbrs in net.items() for w in nbrs}
        net = _network("", 0, rows.values(), set(net))
    A = np.zeros((net.n_nodes, net.n_nodes))
    A[net.src, net.dst] = A[net.dst, net.src] = 1.0
    return net.nodes, A


def _levels(A: np.ndarray, AA: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Level-synchronous BFS from every source at once; `AA` is A @ A.

    Returns sigma, where sigma[s, v] counts the shortest s-v paths (1 on the
    diagonal, 0 when v is unreachable from s), and one value front per
    distance: fronts[d][s, v] is sigma[s, v] when v lies d steps from s, and
    0 otherwise. Each front times A counts the paths one step further.
    """
    sigma = np.eye(len(A))
    fronts = [sigma.copy()]
    reach = A
    while (reach := reach * (sigma == 0)).any():  # keep the pairs not reached before
        sigma += reach
        fronts.append(reach)
        reach = AA if len(fronts) == 2 else reach @ A
    return sigma, fronts


def _degree_stats(labels: list, A: np.ndarray) -> tuple[dict, float, float]:
    n = len(labels)
    if n < 2:
        raise ValueError("degenerate network: need at least 2 nodes")
    degrees = A.sum(axis=1).astype(np.int64).tolist()
    n_edges = sum(degrees) // 2
    return dict(zip(labels, degrees)), 2 * n_edges / n, 2 * n_edges / (n * (n - 1))


def _components(sigma: np.ndarray) -> list[np.ndarray]:
    """Member indices per component, largest first, ties by smallest member."""
    reach = sigma > 0
    roots, sizes = np.unique(reach.argmax(axis=1), return_counts=True)
    return [np.flatnonzero(reach[r]) for _, r in sorted(zip(-sizes, roots))]


def _diameter(sigma: np.ndarray, fronts: list[np.ndarray]) -> DiameterInfo:
    if len(fronts) == 1:
        raise ValueError("no paths: network has no edges")
    comps = _components(sigma)
    eccentricity = sum(front.any(axis=1) for front in fronts[1:])
    return DiameterInfo(steps=int(eccentricity[comps[0]].max()),
                        component_size=len(comps[0]), n_components=len(comps))


def _betweenness(A: np.ndarray, sigma: np.ndarray, fronts: list[np.ndarray]) -> np.ndarray:
    """Brandes (2001) dependency accumulation, level by level for all sources."""
    delta = np.zeros_like(sigma)
    for d in range(len(fronts) - 2, 0, -1):
        share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=fronts[d + 1] > 0)
        delta += fronts[d] * (share @ A)
    return delta.sum(axis=0) / 2.0


def _centralization(A: np.ndarray, sigma: np.ndarray, fronts: list[np.ndarray]) -> float:
    n = len(A)
    if n < 3:
        raise ValueError("centralization undefined: need at least 3 nodes")
    bc = _betweenness(A, sigma, fronts)
    return float((bc.max() - bc).sum()) / ((n - 1) ** 2 * (n - 2) / 2.0)


def _clustering(A: np.ndarray, AA: np.ndarray) -> tuple[float, float]:
    n = len(A)
    if n < 3:
        raise ValueError("clustering undefined: need at least 3 nodes")
    tri = (AA * A).sum(axis=1).astype(np.int64) // 2  # triangles at each node
    degrees = A.sum(axis=1).astype(np.int64)
    wedges = degrees * (degrees - 1) // 2
    triples = int(wedges.sum())
    transitivity = int(tri.sum()) / triples if triples else 0.0
    local = np.divide(tri, wedges, out=np.zeros(n), where=wedges > 0)
    return transitivity, float(local.sum()) / n


def degree_stats(net) -> tuple[dict[str, int], float, float]:
    """Per-node degree, average degree 2E/N, density 2E/(N(N-1))."""
    return _degree_stats(*_matrix(net))


def connected_components(net) -> list[set[str]]:
    """Components sorted by decreasing size, ties by smallest member."""
    labels, A = _matrix(net)
    sigma, _ = _levels(A, A @ A)
    return [{labels[i] for i in comp} for comp in _components(sigma)]


def diameter(net) -> DiameterInfo:
    """Longest shortest path (in steps) over the largest connected component."""
    A = _matrix(net)[1]
    return _diameter(*_levels(A, A @ A))


def betweenness_centrality(net) -> dict[str, float]:
    """Raw betweenness per node, each unordered pair counted once.

    Shortest-path ties are split evenly.
    """
    labels, A = _matrix(net)
    return dict(zip(labels, _betweenness(A, *_levels(A, A @ A)).tolist()))


def betweenness_centralization(net) -> float:
    """Freeman centralization of betweenness: 1.0 for a star, 0.0 when all
    nodes broker equally (any vertex-transitive graph)."""
    _, A = _matrix(net)
    return _centralization(A, *_levels(A, A @ A))


def clustering(net) -> tuple[float, float]:
    """(transitivity, average local clustering).

    Transitivity is 3*triangles / connected triples. The local average
    includes every node, with degree < 2 contributing zero.
    """
    A = _matrix(net)[1]
    return _clustering(A, A @ A)


def powerlaw_fit(degrees: Iterable[int]) -> PowerlawFit:
    """Discrete maximum-likelihood exponent for P(k) ~ k^-alpha, k_min = 1
    (Clauset, Shalizi and Newman 2009, SIAM Rev. 51(4)).

    Solves the score -zeta'(alpha)/zeta(alpha) - mean(ln k) = 0, which
    decreases in alpha, by Newton steps with the exact derivative, falling
    back to bisection when a step leaves the bracket; requires a spread-out
    positive degree sequence (at least 10 distinct values).
    """
    ks = np.asarray(list(degrees), dtype=np.int64)
    if ks.size == 0 or np.any(ks < 1):
        raise ValueError("degrees must be positive integers")
    distinct = np.unique(ks)
    if distinct.size == 1:
        raise ValueError("no power-law support: all degrees equal")
    if distinct.size < 10:
        raise ValueError(f"no power-law support: only {distinct.size} distinct degrees")
    mean_log = float(np.mean(np.log(ks)))

    def score(alpha: float) -> tuple[float, float]:
        """The score and its derivative (zeta'^2 - zeta'' zeta) / zeta^2."""
        z, dz, d2z = _zeta_derivs(alpha)
        return -dz / z - mean_log, (dz * dz - d2z * z) / (z * z)

    lo, hi = 1.0001, 10.0
    while score(hi)[0] > 0:
        hi *= 2
        if hi > 1e6:
            raise ValueError("no power-law support: degree spread too small")
    # start from the continuous approximation 1 + 1/mean(ln(k / (k_min - 1/2)))
    alpha = min(max(1.0 + 1.0 / (mean_log + math.log(2.0)), lo), hi)
    for _ in range(100):
        s, ds = score(alpha)
        step = s / ds
        if abs(step) <= 1e-12 * alpha:  # the error after this step is O(step^2)
            alpha -= step
            break
        lo, hi = (alpha, hi) if s > 0 else (lo, alpha)
        alpha = alpha - step if lo < alpha - step < hi else 0.5 * (lo + hi)
    else:
        raise RuntimeError("power-law fit did not converge in 100 steps")
    loglik = float(-alpha * np.sum(np.log(ks)) - ks.size * math.log(_zeta_derivs(alpha)[0]))
    return PowerlawFit(alpha=alpha, loglik=loglik)


# Euler-Maclaurin coefficients (2j)!/B_2j, as in Cephes zeta.c.
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
    -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
    1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)


def _zeta_derivs(x: float) -> tuple[float, float, float]:
    """(zeta(x), zeta'(x), zeta''(x)) of the Riemann zeta function, x > 1.

    A direct sum over k <= N = 10, then the Euler-Maclaurin tail at N:
    N^-x * q(x) with q = N/(x-1) - 1/2 + sum_{j=1..12} (x)_(2j-1) N^(1-2j) / _ZETA_A[j-1],
    where (x)_m is the rising factorial. The tail is differentiated in x by
    the product rule, q' and q'' riding along with q.
    """
    z = dz = d2z = 0.0
    for k in range(1, 11):
        lk, b = math.log(k), k ** -x
        z, dz, d2z = z + b, dz - lk * b, d2z + lk * lk * b
    n, u = 10.0, 1.0 / (x - 1.0)
    q, dq, d2q = n * u - 0.5, -n * u * u, 2.0 * n * u ** 3
    p, dp, d2p, scale = 1.0, 0.0, 0.0, 1.0  # the rising factorial and N^-(k+1)
    for k in range(2 * len(_ZETA_A) - 1):
        p, dp, d2p = p * (x + k), dp * (x + k) + p, d2p * (x + k) + 2.0 * dp
        scale /= n
        if k % 2 == 0:
            c = scale / _ZETA_A[k // 2]
            q, dq, d2q = q + p * c, dq + dp * c, d2q + d2p * c
    b, ln = n ** -x, math.log(n)
    return z + b * q, dz + b * (dq - ln * q), d2z + b * (d2q - 2.0 * ln * dq + ln * ln * q)


def compute_stats(net: CollabNetwork, fit_powerlaw: bool = False) -> NetworkStats:
    """Run the full battery on one network snapshot."""
    labels, A = _matrix(net)
    degrees, avg_degree, density = _degree_stats(labels, A)
    AA = A @ A  # the second BFS front and the triangle count share it
    sigma, fronts = _levels(A, AA)
    diam = _diameter(sigma, fronts)
    centralization = _centralization(A, sigma, fronts)
    transitivity, avg_local = _clustering(A, AA)
    alpha: float | None = None
    if fit_powerlaw:
        try:
            alpha = powerlaw_fit([d for d in degrees.values() if d > 0]).alpha
        except ValueError:
            alpha = None
    return NetworkStats(
        specialty=net.specialty,
        year=net.year,
        n_nodes=net.n_nodes,
        n_edges=net.n_edges,
        diameter=diam.steps,
        avg_degree=avg_degree,
        density=density,
        betweenness_centralization=centralization,
        transitivity=transitivity,
        avg_local_clustering=avg_local,
        n_components=diam.n_components,
        powerlaw_alpha=alpha,
    )


def _fmt(value, fixed_decimals: bool) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}" if fixed_decimals else f"{value:.12g}"
    return str(value)


def stats_row(stats: NetworkStats, fixed_decimals: bool = False) -> list[str]:
    return [_fmt(v, fixed_decimals) for v in astuple(stats)]


def stats_csv_text(stats_list: Iterable[NetworkStats], fixed_decimals: bool = False) -> str:
    return _csv_text([STATS_COLUMNS, *(stats_row(s, fixed_decimals) for s in stats_list)])


def stats_json_text(stats_list: Iterable[NetworkStats]) -> str:
    """One JSON object per line, keys matching the CSV columns."""
    return "".join(json.dumps(s.to_json_obj(), sort_keys=True) + "\n"
                   for s in stats_list)


GRID_MEASURES = (
    ("Avg. Degree", "avg_degree"),
    ("Density", "density"),
    ("Betweenness", "betweenness_centralization"),
    ("Clustering", "transitivity"),
    ("Avg. Cluster", "avg_local_clustering"),
)


def format_stats_grid(rows: list[dict]) -> str:
    """Measure-by-year grid per specialty, one block per specialty.

    `rows` are stats dicts keyed by the stats CSV columns
    (`NetworkStats.to_json_obj`); each cell rounds the value once, to 2
    decimals.
    """
    years = sorted({r["year"] for r in rows if r.get("year") is not None})
    specialties = sorted({r["specialty"] for r in rows})
    by_key = {(r["specialty"], r["year"]): r for r in rows}
    title = "Field / Measure"  # measure rows indent their label by 2
    width = max([len(title), *map(len, specialties)] + [2 + len(m) for m, _ in GRID_MEASURES])
    header = "".join(f"{y:>10}" for y in years)
    lines = [f"{title:<{width}}{header}"]
    for spec in specialties:
        lines.append(spec)
        for label, col in GRID_MEASURES:
            cells = []
            for y in years:
                row = by_key.get((spec, y))
                val = row.get(col) if row else None
                cells.append(f"{val:>10.2f}" if val is not None else f"{'':>10}")
            lines.append(f"  {label:<{width - 2}}{''.join(cells)}")
    return "\n".join(lines) + "\n"
