"""Random-intercept linear mixed model fit by maximum likelihood.

Model for observation j in group g:

    y_gj = x_gj' beta + u_g + e_gj,   u_g ~ N(0, sigma_u^2),  e_gj ~ N(0, sigma^2)

The variance ratio psi = sigma_u^2 / sigma^2 is the only free parameter in
the profiled likelihood: given psi, beta has the closed-form GLS solution
and sigma^2 follows from the weighted residual sum of squares. A group
enters only through c = psi / (1 + psi n_g), a function of its size, so the
profile keeps per-size sums of the group sums of X and y, and one
evaluation costs O(K p^2) for K distinct group sizes. The fit runs in a
centered, scaled basis Z = X M, as lme4 does (Bates, Maechler, Bolker and
Walker 2015), so raw calendar years cost no precision; beta = M beta_z.
psi comes from the exact slope of the profiled deviance, bisected inside
the bracket of a log-spaced grid, and the boundary psi = 0 is taken when
the slope there is >= 0 or it fits at least as well.

ML rather than REML is used throughout because AIC comparisons require the
full likelihood; standard errors come from the inverse GLS information
matrix, and p-value stars use the normal approximation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import _csv_text

# The paper's model: log impact on these, one random intercept per country
# combination.
FIXED_EFFECTS = ("intercept", "country_count", "publication_count", "year")

DISPLAY_NAMES = {
    "intercept": "Intercept",
    "country_count": "Country Count",
    "publication_count": "Publication Count",
    "year": "Year",
}

STAR_LEVELS = ((0.001, "***"), (0.01, "**"), (0.05, "*"))


@dataclass
class LmmFit:
    """Fitted coefficients, variance components, and per-group intercepts."""

    names: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    sigma_u2: float
    sigma2: float
    loglik: float
    aic: float
    n: int
    n_groups: int
    psi: float
    # group -> sigma_u^2 / (sigma_u^2 + sigma^2 / n_g) * group residual mean
    group_effects: dict = field(default_factory=dict, repr=False)

    def coef(self, name: str) -> float:
        return float(self.beta[self.names.index(name)])

    def stderr(self, name: str) -> float:
        return float(self.se[self.names.index(name)])


def _group_codes(groups: Sequence) -> tuple[np.ndarray, list]:
    # by type name first, so labels of mixed types sort; one type keeps its order
    labels = sorted(set(groups), key=lambda g: (type(g).__name__, g))
    index = {g: i for i, g in enumerate(labels)}
    codes = np.fromiter((index[g] for g in groups), dtype=np.int64, count=len(groups))
    return codes, labels


def _centered(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Z, M) with Z = X M: every other column centered through the first
    constant column, if there is one, then every column scaled to unit root
    mean square."""
    M = np.eye(X.shape[1])
    const = [j for j in range(X.shape[1]) if X[0, j] != 0 and np.all(X[:, j] == X[0, j])]
    if const:
        k = const[0]
        shift = X.mean(axis=0) / X[0, k]
        shift[k] = 0.0
        M[k] -= shift
    Z = X @ M
    spread = np.sqrt(np.mean(Z * Z, axis=0))
    return Z / spread, M / spread


class _Profile:
    """Profiled deviance D(psi) and its slope, from sums over the groups of
    each distinct size m: G_m = sum S_g S_g', h_m = sum t_g S_g and
    w_m = sum t_g^2, where S_g and t_g are the group sums of X and y."""

    def __init__(self, y: np.ndarray, X: np.ndarray, codes: np.ndarray, n_groups: int):
        self.n, self.p = X.shape
        self.XtX = X.T @ X
        self.Xty = X.T @ y
        self.yty = float(y @ y)
        self.sizes = np.bincount(codes, minlength=n_groups).astype(float)
        self.t = np.bincount(codes, weights=y, minlength=n_groups)
        self.S = np.zeros((n_groups, self.p))
        np.add.at(self.S, codes, X)
        by_size = np.argsort(self.sizes, kind="stable")
        self.m, self.N = np.unique(self.sizes, return_counts=True)
        blocks = np.split(by_size, np.cumsum(self.N)[:-1])
        self.G = np.array([self.S[b].T @ self.S[b] for b in blocks])
        self.h = np.array([self.t[b] @ self.S[b] for b in blocks])
        self.w = np.array([self.t[b] @ self.t[b] for b in blocks])

    def _gls(self, psi: float) -> tuple[np.ndarray, np.ndarray, float]:
        """(beta, information, weighted residual sum of squares q) at psi."""
        c = psi / (1.0 + psi * self.m)
        A = self.XtX - np.tensordot(c, self.G, 1)
        r = self.Xty - c @ self.h
        beta = np.linalg.solve(A, r)
        return beta, A, self.yty - float(c @ self.w) - float(beta @ r)

    def solve(self, psi: float) -> tuple[float, np.ndarray, float, np.ndarray]:
        """(deviance, beta, sigma2, information) at a given variance ratio."""
        beta, A, q = self._gls(psi)
        if q <= 0:
            return math.inf, beta, 0.0, A
        sigma2 = q / self.n
        deviance = (self.n * math.log(2.0 * math.pi * sigma2)
                    + float(self.N @ np.log1p(psi * self.m)) + self.n)
        return deviance, beta, sigma2, A

    def deviance(self, psi: float) -> float:
        return self.solve(psi)[0]

    def slope(self, psi: float) -> float:
        """dD/dpsi = n q'/q + sum_m N_m m / (1 + psi m), where q' takes
        dc_m/dpsi = 1 / (1 + psi m)^2 through q at the GLS beta."""
        beta, _, q = self._gls(psi)
        if q <= 0:
            raise ValueError(f"no residual variance left at psi = {psi!r}")
        dc = 1.0 / (1.0 + psi * self.m) ** 2
        dq = (-float(dc @ self.w) + 2.0 * float(beta @ (dc @ self.h))
              - float(beta @ np.tensordot(dc, self.G, 1) @ beta))
        return self.n * dq / q + float(self.N @ (self.m / (1.0 + psi * self.m)))


def _profile(y, X, groups) -> tuple[_Profile, np.ndarray, list]:
    """The profile of the centered design in canonical row order, with the
    basis change M and the group labels."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    codes, labels = _group_codes(groups)
    # rows by (group, covariates, response): any permutation of the input
    # yields bit-identical accumulations
    order = np.lexsort([y] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)] + [codes])
    Z, M = _centered(X[order])
    return _Profile(y[order], Z, codes[order], len(labels)), M, labels


def profile_deviance(y, X, groups, psi: float) -> float:
    """Minus twice the profiled log-likelihood at a given variance ratio."""
    return _profile(y, X, groups)[0].deviance(psi)


def _check_rank(X: np.ndarray, names: Sequence[str]) -> None:
    """Reject a rank-deficient design, naming the columns that a QR with
    column pivoting (Businger and Golub 1965; LAPACK dgeqp3) leaves last.

    Each step takes the column with the largest residual norm, the first on
    a tie, and projects it out of the others (Gram-Schmidt, done twice);
    those norms are the |R_kk| of the pivoted QR. A column counts when its
    |R_kk| exceeds max(n, p) * eps times its own norm, not the largest one's.
    """
    tol = max(X.shape) * np.finfo(float).eps * np.linalg.norm(X, axis=0)
    R = np.array(X, dtype=float)
    remaining, kept = list(range(R.shape[1])), []
    while remaining:
        norms = np.linalg.norm(R[:, remaining], axis=0)
        k = int(np.argmax(norms))
        if norms[k] == 0.0:
            break
        j = remaining.pop(k)
        if norms[k] > tol[j]:
            kept.append(j)
        q = R[:, j] / norms[k]
        for _ in range(2):
            R[:, remaining] -= np.outer(q, q @ R[:, remaining])
    if len(kept) < X.shape[1]:
        bad = sorted(names[j] for j in range(X.shape[1]) if j not in kept)
        raise ValueError(f"rank-deficient design: collinear columns {', '.join(bad)}")


def fit_random_intercept(y, X, groups, names: Sequence[str] | None = None) -> LmmFit:
    """Maximum-likelihood fit of the random-intercept model.

    `groups` assigns each row to its random-effect group. A log-spaced grid
    of psi = sigma_u^2/sigma^2 brackets the minimum, and bisection on the
    sign of the exact slope narrows it to 1e-12 relative. psi = 0 is taken
    when the bracket starts at 0 with a slope >= 0 there, or when it fits
    at least as well as the minimum found, so data without group structure
    yield the ordinary least-squares solution exactly.

    A response with no residual variance is a ValueError: its least-squares
    residual sum of squares is at most n eps sum(y^2), or its deviance still
    falls at the grid's last psi, as sigma^2 -> 0.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or y.shape[0] != X.shape[0] or len(groups) != X.shape[0]:
        raise ValueError("y, X, and groups must align on rows")
    n, p = X.shape
    if n < max(5, p + 2):
        raise ValueError(
            f"too few observations: n={n}, need at least {max(5, p + 2)} "
            f"for {p} fixed effects plus 2 variance parameters")
    names = tuple(names) if names is not None else tuple(f"x{j}" for j in range(p))
    _check_rank(X, names)
    prof, M, labels = _profile(y, X, groups)
    if prof._gls(0.0)[2] <= n * np.finfo(float).eps * prof.yty:
        raise ValueError("no residual variance: the fixed effects fit the response exactly")

    if np.all(prof.sizes <= 1):
        warnings.warn("all groups have size 1: the group and residual variances "
                      "are jointly unidentifiable; reporting sigma_u2 = 0")
        psi_hat = 0.0
    else:
        grid = np.concatenate(([0.0], np.logspace(-10, 6, 129)))
        i = int(np.argmin([prof.deviance(g) for g in grid]))
        if i + 1 == len(grid):
            raise ValueError(f"no residual variance within groups: the deviance still "
                             f"falls at psi = {grid[i]:g}")
        lo = float(grid[max(i - 1, 0)])
        hi = float(grid[i + 1])
        if lo == 0.0 and prof.slope(0.0) >= 0:
            hi = 0.0
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if prof.slope(mid) < 0 else (lo, mid)
        psi_hat = hi
        if prof.deviance(0.0) <= prof.deviance(psi_hat):
            psi_hat = 0.0

    deviance, beta_z, sigma2, A = prof.solve(psi_hat)
    loglik = -0.5 * deviance
    k = p + 2
    aic = 2.0 * k - 2.0 * loglik
    cov_beta = sigma2 * M @ np.linalg.inv(A) @ M.T
    se = np.sqrt(np.diag(cov_beta))

    c = psi_hat / (1.0 + psi_hat * prof.sizes)
    u = c * (prof.t - prof.S @ beta_z)
    group_effects = {g: float(u[i]) for i, g in enumerate(labels)}

    return LmmFit(names=names, beta=M @ beta_z, se=se,
                  sigma_u2=psi_hat * sigma2, sigma2=sigma2,
                  loglik=loglik, aic=aic, n=n, n_groups=len(labels),
                  psi=psi_hat, group_effects=group_effects)


def fit(observations: Sequence) -> LmmFit:
    """Fit the paper's model over combination observations: `log_fwci` on
    FIXED_EFFECTS, grouped by `combo_id`, so the same combination in
    different years shares one group."""
    y = [ob.log_fwci for ob in observations]
    X = np.column_stack([np.ones(len(y))] + [[getattr(ob, name) for ob in observations]
                                             for name in FIXED_EFFECTS[1:]])  # no list per row
    groups = [ob.combo_id for ob in observations]
    return fit_random_intercept(y, X, groups, names=FIXED_EFFECTS)


def p_value(estimate: float, se: float) -> float:
    """Two-sided normal-approximation p-value, 2 Phi(-|estimate| / se)."""
    if se <= 0:
        return math.nan
    return math.erfc(abs(estimate) / se / math.sqrt(2.0))


def stars(p: float) -> str:
    for threshold, marker in STAR_LEVELS:
        if p < threshold:
            return marker
    return ""


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def format_cell(estimate: float, se: float) -> str:
    """`estimate<stars> (se)` as used in the regression table."""
    return f"{_fmt(estimate)}{stars(p_value(estimate, se))} ({_fmt(se)})"


def report(fits: Mapping[str, LmmFit]) -> str:
    """Aligned plain-text regression table, one column per fitted model."""
    if not fits:
        raise ValueError("no fits to report")
    labels = list(fits)
    terms = list(dict.fromkeys(name for f in fits.values() for name in f.names))
    rows: list[tuple[str, list[str]]] = []
    for term in terms:
        cells = []
        for f in fits.values():
            if term in f.names:
                cells.append(format_cell(f.coef(term), f.stderr(term)))
            else:
                cells.append("")
        rows.append((DISPLAY_NAMES.get(term, term), cells))
    rows.append(("Random Effect", [_fmt(f.sigma_u2) for f in fits.values()]))
    rows.append(("Residual", [_fmt(f.sigma2) for f in fits.values()]))
    rows.append(("AIC", [f"{f.aic:.1f}" for f in fits.values()]))
    rows.append(("N", [str(f.n) for f in fits.values()]))

    name_w = max(len(r[0]) for r in rows)
    col_w = [max(len(label), max(len(r[1][j]) for r in rows))
             for j, label in enumerate(labels)]
    lines = [" " * name_w + "  " +
             "  ".join(label.rjust(col_w[j]) for j, label in enumerate(labels))]
    for name, cells in rows:
        lines.append(name.ljust(name_w) + "  " +
                     "  ".join(cells[j].rjust(col_w[j]) for j in range(len(labels))))
    lines.append("")
    lines.append("* p<0.05, ** p<0.01, *** p<0.001 (normal approximation)")
    return "\n".join(lines) + "\n"


def report_csv(fits: Mapping[str, LmmFit]) -> str:
    """Long-format CSV: model,term,estimate,se,p,stars plus summary rows."""
    rows = [["model", "term", "estimate", "se", "p", "stars"]]
    for label, f in fits.items():
        for j, term in enumerate(f.names):
            p = p_value(float(f.beta[j]), float(f.se[j]))
            rows.append([label, DISPLAY_NAMES.get(term, term),
                         repr(float(f.beta[j])), repr(float(f.se[j])), repr(p), stars(p)])
        rows += [[label, "Random Effect", repr(f.sigma_u2), "", "", ""],
                 [label, "Residual", repr(f.sigma2), "", "", ""],
                 [label, "AIC", repr(f.aic), "", "", ""],
                 [label, "N", f.n, "", "", ""]]
    return _csv_text(rows)
