"""Correctness gate: every output of a pass is checked against a reference
that does not reuse the library's own algorithm.

Each check returns a list of problems; an operation with a problem counts as
failed. References:
- pair counts and node strengths: a tally of the syngen truth log;
- components and diameter: `scipy.sparse.csgraph` on the same edges;
- transitivity and local clustering: powers of the dense adjacency matrix;
- betweenness: Brandes' accumulation over all sources at once, in numpy;
- power-law alpha: the zeta log-likelihood is maximal at the reported alpha;
- FWCI: every usable cell's mean score is 1;
- recorded values (bench/reference.json) for the seeds recorded there.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from itertools import combinations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.special import zeta

EXACT = 1e-12      # identities that hold up to summation order
RECORDED = 1e-9    # relative tolerance against recorded or recomputed values

Tally = dict[tuple[str, int], tuple[Counter, Counter]]


def tally_truth(truth) -> Tally:
    """Pair counts and international-paper counts per (field, year)."""
    out: Tally = {}
    for row in truth:
        pairs, strength = out.setdefault((row.field, row.year), (Counter(), Counter()))
        countries = sorted(set(row.countries))
        if len(countries) < 2:
            continue
        strength.update(countries)
        pairs.update(combinations(countries, 2))
    return out


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_edges(edges: dict, strength: dict | None, tally) -> list[str]:
    """Network pair counts, strengths and cosine weights against the tally.

    `strength` is None for an edge list read back from a file."""
    pairs, truth_strength = tally
    problems = []
    counts = {k: v[0] for k, v in edges.items()}
    if counts != dict(pairs):
        missing = set(pairs) - set(counts)
        extra = set(counts) - set(pairs)
        problems.append(f"pair counts differ from the truth tally "
                        f"({len(missing)} missing, {len(extra)} extra)")
    if strength is not None and strength != dict(truth_strength):
        problems.append("node strengths differ from the truth tally")
    for (a, b), (n, cos) in edges.items():
        if cos is None or a not in truth_strength or b not in truth_strength:
            continue  # a pair the tally lacks is reported above
        want = n / math.sqrt(truth_strength[a] * truth_strength[b])
        if not close(cos, want, EXACT):
            problems.append(f"cosine {a}-{b} is {cos!r}, expected {want!r}")
            break
    return problems


def adjacency(pairs) -> tuple[list[str], np.ndarray]:
    nodes = sorted({v for pair in pairs for v in pair})
    index = {v: i for i, v in enumerate(nodes)}
    A = np.zeros((len(nodes), len(nodes)))
    for a, b in pairs:
        A[index[a], index[b]] = A[index[b], index[a]] = 1.0
    return nodes, A


def betweenness(A: np.ndarray) -> np.ndarray:
    """Raw betweenness (each unordered pair once), all sources at once."""
    n = len(A)
    sigma = np.eye(n)
    seen = np.eye(n, dtype=bool)
    levels = [np.eye(n, dtype=bool)]
    while levels[-1].any():
        reach = (sigma * levels[-1]) @ A
        new = (reach > 0) & ~seen
        sigma[new] = reach[new]
        seen |= new
        levels.append(new)
    delta = np.zeros((n, n))
    for depth in range(len(levels) - 2, 0, -1):
        nxt = levels[depth + 1]
        share = np.zeros((n, n))
        share[nxt] = (1.0 + delta[nxt]) / sigma[nxt]
        delta += np.where(levels[depth], sigma * (share @ A), 0.0)
    return delta.sum(axis=0) / 2.0


def centralization(bc: np.ndarray) -> float:
    n = len(bc)
    return float(np.sum(bc.max() - bc) / ((n - 1) ** 2 * (n - 2) / 2.0))


def powerlaw_loglik(alpha: float, ks: np.ndarray) -> float:
    return float(-alpha * np.sum(np.log(ks)) - ks.size * math.log(zeta(alpha, 1)))


def check_stats(stats: dict, pairs, recorded: list | None = None) -> list[str]:
    """One stats row against references computed from the tallied edges."""
    problems = []
    nodes, A = adjacency(pairs)
    n, e = len(nodes), len(pairs)
    if (stats["nodes"], stats["edges"]) != (n, e):
        problems.append(f"size {stats['nodes']}/{stats['edges']}, tally {n}/{e}")
        return problems
    if stats["avg_degree"] != 2 * e / n or stats["density"] != 2 * e / (n * (n - 1)):
        problems.append("avg_degree or density does not follow from N and E")

    graph = csr_matrix(A)
    n_comp, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels)
    # the library takes the largest component, ties broken by smallest member
    largest = min(range(n_comp), key=lambda c: (-sizes[c], int(np.argmax(labels == c))))
    members = np.flatnonzero(labels == largest)
    dist = shortest_path(graph, unweighted=True, directed=False, indices=members)
    if stats["components"] != n_comp:
        problems.append(f"components {stats['components']}, csgraph {n_comp}")
    if stats["diameter"] != int(dist[:, members].max()):
        problems.append(f"diameter {stats['diameter']}, csgraph {int(dist[:, members].max())}")

    degree = A.sum(axis=1)
    closed_walks = np.diag(A @ A @ A)
    wedges = degree * (degree - 1)
    if not close(stats["transitivity"], closed_walks.sum() / wedges.sum(), EXACT):
        problems.append("transitivity differs from trace(A^3)/sum d(d-1)")
    local = np.divide(closed_walks, wedges, out=np.zeros(n), where=wedges > 0)
    if not close(stats["avg_local_clustering"], float(local.mean()), EXACT):
        problems.append("average local clustering differs from diag(A^3)/d(d-1)")
    if not close(stats["betweenness_centralization"], centralization(betweenness(A)),
                 RECORDED):
        problems.append("betweenness centralization differs from the numpy Brandes")

    alpha = stats["alpha"]
    if alpha is not None:
        ks = degree[degree > 0]
        best = powerlaw_loglik(alpha, ks)
        if any(powerlaw_loglik(alpha + h, ks) > best for h in (-1e-4, 1e-4)):
            problems.append(f"alpha {alpha!r} is not a likelihood maximum")
    if recorded is not None:
        got = [stats["betweenness_centralization"], stats["avg_local_clustering"], alpha]
        for name, g, want in zip(("betweenness", "local clustering", "alpha"), got, recorded):
            if (g is None) != (want is None) or (g is not None and not close(g, want, RECORDED)):
                problems.append(f"{name} {g!r} differs from the recorded {want!r}")
    return problems


def check_fwci(cell_means: list[float]) -> list[str]:
    bad = [m for m in cell_means if abs(m - 1.0) > EXACT]
    if not cell_means:
        return ["no usable FWCI cell"]
    return [f"{len(bad)} FWCI cell means differ from 1"] if bad else []


def check_fit(fit: dict, n_obs: int) -> list[str]:
    problems = []
    values = fit["beta"] + fit["se"] + [fit["sigma2"], fit["sigma_u2"], fit["psi"]]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite estimate")
    if not fit["psi"] >= 0:
        problems.append(f"psi {fit['psi']!r} < 0")
    if fit["n"] != n_obs:
        problems.append(f"N {fit['n']} != {n_obs} observations")
    return problems


def check_report_csv(text: str, n_obs: dict[str, int]) -> list[str]:
    """The regress CSV: finite estimates and N equal to the observation counts."""
    problems = []
    seen = {}
    for row in csv.DictReader(io.StringIO(text)):
        if row["term"] == "N":
            seen[row["model"]] = int(row["estimate"])
        elif not math.isfinite(float(row["estimate"])):
            problems.append(f"{row['model']} {row['term']}: non-finite estimate")
        elif row["term"] == "Random Effect" and float(row["estimate"]) < 0:
            problems.append(f"{row['model']}: negative random-effect variance")
    expected = {k: v for k, v in n_obs.items() if k in seen}
    if seen != expected or not seen:
        problems.append(f"model N {seen} != observation counts {expected}")
    return problems


def read_edgelist_csv(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return {(a, b): (int(n), float(c)) for a, b, n, c in rows}
