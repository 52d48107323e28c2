import math

import numpy as np
import pytest
from scipy.stats import norm

from collabnet import lmm
from collabnet.impact import make_observation
from collabnet.lmm import (
    LmmFit,
    fit,
    fit_random_intercept,
    format_cell,
    p_value,
    profile_deviance,
    report,
    report_csv,
    stars,
)


def simulate(seed: int, n_groups: int = 2000, per_group: int = 2,
             beta=(1.0, 0.2, 0.05, -0.1), sigma_u2: float = 0.5,
             sigma2: float = 1.0):
    rng = np.random.Generator(np.random.Philox(seed))
    n = n_groups * per_group
    beta = np.asarray(beta)
    X = np.column_stack([
        np.ones(n),
        rng.normal(2, 1, n),
        rng.poisson(3, n) + 1,
        rng.normal(0, 1, n),
    ])
    groups = np.repeat(np.arange(n_groups), per_group)
    u = rng.normal(0, math.sqrt(sigma_u2), n_groups)
    y = X @ beta + u[groups] + rng.normal(0, math.sqrt(sigma2), n)
    labels = [f"g{g:05d}" for g in groups]
    return y, X, labels, beta


NAMES = ("intercept", "x1", "x2", "x3")


def test_simulate_and_recover():
    y, X, groups, beta = simulate(seed=7)
    f = fit_random_intercept(y, X, groups, names=NAMES)
    for j in range(4):
        assert abs(f.beta[j] - beta[j]) < 3 * f.se[j]
    assert abs(f.sigma_u2 - 0.5) < 0.05
    assert abs(f.sigma2 - 1.0) < 0.10
    assert f.n == 4000
    assert f.n_groups == 2000


def with_year(X: np.ndarray, first_year: int, seed: int) -> np.ndarray:
    """X with its last column replaced by calendar years first_year or first_year + 5."""
    rng = np.random.Generator(np.random.Philox(seed))
    return np.column_stack([X[:, :-1], first_year + 5.0 * rng.integers(0, 2, len(X))])


def test_profiled_optimum_dominates_grid_oracle():
    y, X, groups, _ = simulate(seed=8, n_groups=400)
    for design in (X, *(with_year(X, first, seed=8) for first in (1990, 2000, 2013))):
        f = fit_random_intercept(y, design, groups, names=NAMES)
        best = -2.0 * f.loglik
        for psi in np.logspace(-8, 4, 200):
            assert best <= profile_deviance(y, design, groups, psi) + 1e-6
        assert best <= profile_deviance(y, design, groups, 0.0) + 1e-6


@pytest.mark.parametrize("shift", [2000, -2008, -10000])
def test_year_shift_moves_only_the_intercept(shift):
    # group sizes 1 to 4; raw calendar years against the same years shifted
    y, X, _, _ = simulate(seed=16, n_groups=3000, per_group=1)
    rng = np.random.Generator(np.random.Philox(17))
    groups = [f"g{g}" for g in np.sort(rng.integers(0, 1200, len(y)))]
    X = with_year(X, 2008, seed=18)
    f = fit_random_intercept(y, X, groups, names=NAMES)
    g = fit_random_intercept(y, X + [0.0, 0.0, 0.0, shift], groups, names=NAMES)
    assert f.psi > 0
    assert g.psi == pytest.approx(f.psi, rel=1e-10, abs=0)
    assert np.allclose(g.beta[1:], f.beta[1:], rtol=1e-10, atol=0)
    assert np.allclose(g.se[1:], f.se[1:], rtol=1e-10, atol=0)
    assert g.coef("intercept") == pytest.approx(f.coef("intercept") - shift * f.coef("x3"),
                                                rel=1e-9)


def test_aic_definitional_identity():
    y, X, groups, _ = simulate(seed=9, n_groups=300)
    f = fit_random_intercept(y, X, groups, names=NAMES)
    k = X.shape[1] + 2
    assert f.aic == pytest.approx(2 * k - 2 * f.loglik, abs=1e-9)


def test_profile_deviance_matches_dense_multivariate_normal():
    # direct dense-covariance evaluation, independent of the sufficient-stat path
    rng = np.random.default_rng(3)
    n, n_groups = 60, 18
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    codes = rng.integers(0, n_groups, n)
    y = X @ np.array([0.5, 1.0]) + rng.normal(0, 0.7, n_groups)[codes] + rng.normal(size=n)
    groups = [str(c) for c in codes]

    def dense(psi):
        Z = np.zeros((n, n_groups))
        Z[np.arange(n), codes] = 1.0
        V = np.eye(n) + psi * Z @ Z.T
        Vi = np.linalg.inv(V)
        A = X.T @ Vi @ X
        b = np.linalg.solve(A, X.T @ Vi @ y)
        r = y - X @ b
        s2 = (r @ Vi @ r) / n
        return n * math.log(2 * math.pi * s2) + np.linalg.slogdet(V)[1] + n

    for psi in (0.0, 0.05, 0.3, 1.7, 9.0):
        assert profile_deviance(y, X, groups, psi) == pytest.approx(dense(psi), abs=1e-8)


def test_collapsed_profile_and_slope_match_dense_multivariate_normal():
    # groups of sizes 1 to 3, each size shared by several groups, and raw years
    rng = np.random.default_rng(19)
    sizes = rng.integers(1, 4, 30)
    codes = np.repeat(np.arange(30), sizes)
    n = len(codes)
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.choice([2008.0, 2013.0], n)])
    y = X @ np.array([60.0, 1.0, -0.03]) + rng.normal(0, 0.7, 30)[codes] + rng.normal(size=n)
    prof = lmm._profile(y, X, [int(c) for c in codes])[0]
    assert len(prof.m) < len(prof.sizes)
    Zg = np.zeros((n, 30))
    Zg[np.arange(n), codes] = 1.0

    def dense(psi):
        # whitened least squares: V = L L', and r' V^-1 r is |L^-1 r|^2
        V = np.eye(n) + psi * Zg @ Zg.T
        L = np.linalg.cholesky(V)
        b = np.linalg.lstsq(np.linalg.solve(L, X), np.linalg.solve(L, y), rcond=None)[0]
        Vr = np.linalg.solve(V, y - X @ b)
        q = (y - X @ b) @ Vr
        deviance = n * math.log(2 * math.pi * q / n) + np.linalg.slogdet(V)[1] + n
        trace = np.trace(np.linalg.solve(V, Zg @ Zg.T))
        return deviance, n * -(Vr @ Zg @ Zg.T @ Vr) / q + trace, trace

    for psi in (0.0, 0.01, 0.2, 1.5, 12.0, 100.0):
        deviance, slope, scale = dense(psi)
        assert prof.deviance(psi) == pytest.approx(deviance, rel=1e-9)
        assert prof.slope(psi) == pytest.approx(slope, rel=1e-9, abs=1e-9 * scale)


def test_no_group_structure_gives_zero_variance_and_ols_beta():
    # residuals +d/-d within every group: group means carry no variance
    rng = np.random.default_rng(4)
    n_groups = 120
    X = np.column_stack([np.ones(2 * n_groups), rng.normal(size=2 * n_groups)])
    beta = np.array([0.3, -1.2])
    e = np.tile([0.8, -0.8], n_groups)
    y = X @ beta + e
    groups = [f"g{i}" for i in np.repeat(np.arange(n_groups), 2)]
    assert lmm._profile(y, X, groups)[0].slope(0.0) >= 0
    f = fit_random_intercept(y, X, groups, names=("intercept", "x1"))
    assert f.psi == 0.0
    assert f.sigma_u2 == 0.0
    ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.allclose(f.beta, ols, atol=1e-10)


def test_mixed_type_group_labels_sort_by_type_then_value():
    assert lmm._group_codes(["b", "a", "b"])[1] == ["a", "b"]
    assert lmm._group_codes([("DE", "US"), ("CN", "US")])[1] == [("CN", "US"), ("DE", "US")]
    codes, labels = lmm._group_codes([2, "a", 1, "a"])
    assert labels == [1, 2, "a"]
    assert codes.tolist() == [1, 2, 0, 2]
    y, X, groups, _ = simulate(seed=20, n_groups=100)
    mixed = [int(g[1:]) if int(g[1:]) % 2 else g for g in groups]
    f = fit_random_intercept(y, X, mixed, names=NAMES)
    assert f.psi == pytest.approx(fit_random_intercept(y, X, groups, names=NAMES).psi, rel=1e-10)
    assert f.n_groups == 100 and 1 in f.group_effects and "g00000" in f.group_effects


def test_statsmodels_ml_cross_check():
    sm = pytest.importorskip("statsmodels.api")
    y, X, groups, _ = simulate(seed=7, n_groups=500)
    f = fit_random_intercept(y, X, groups, names=NAMES)
    m = sm.MixedLM(y, X, groups=np.asarray(groups)).fit(reml=False)
    # the optimizers stop at slightly different psi; ours must be at least
    # as likely, and the estimates agree to optimizer precision
    assert f.loglik >= m.llf - 1e-8
    assert m.llf == pytest.approx(f.loglik, abs=1e-4)
    assert np.allclose(np.asarray(m.params[:4]), f.beta, atol=1e-4)
    assert np.allclose(np.asarray(m.bse[:4]), f.se, rtol=1e-2)
    assert float(np.atleast_2d(np.asarray(m.cov_re))[0, 0]) == pytest.approx(f.sigma_u2, rel=2e-2, abs=1e-3)
    assert m.scale == pytest.approx(f.sigma2, rel=2e-2)


def test_fitted_optimum_matches_a_grid_maximized_woodbury_likelihood():
    # An independent ML fit, run where statsmodels is not installed: for each group g,
    # V_g = sigma2 (I + psi 1 1') has V_g^-1 = (I - c_g 1 1') / sigma2 with
    # c_g = psi / (1 + psi n_g) (Woodbury) and det V_g = sigma2^n_g (1 + psi n_g), so
    # the GLS fit and the profiled log-likelihood at psi need only group sums, here in
    # the raw basis and with residuals, and psi is the best point of nested grids.
    y, X, groups, _ = simulate(seed=7, n_groups=500)
    f = fit_random_intercept(y, X, groups, names=NAMES)
    codes = np.unique(groups, return_inverse=True)[1]
    sizes = np.bincount(codes).astype(float)
    Sx = np.zeros((len(sizes), X.shape[1]))
    np.add.at(Sx, codes, X)
    Sy = np.bincount(codes, weights=y)
    n = len(y)

    def fit_at(psi: float):
        c = psi / (1.0 + psi * sizes)
        A = X.T @ X - (Sx * c[:, None]).T @ Sx  # X' V^-1 X, times sigma2
        beta = np.linalg.solve(A, X.T @ y - (Sx * c[:, None]).T @ Sy)
        e = y - X @ beta
        sigma2 = (e @ e - c @ np.bincount(codes, weights=e) ** 2) / n
        loglik = -0.5 * (n * math.log(2 * math.pi * sigma2) + np.log1p(psi * sizes).sum() + n)
        return loglik, beta, sigma2, A

    grid = np.linspace(0.0, 5.0, 501)
    for _ in range(3):  # each grid 1000 times finer, around the best point of the last
        best = grid[int(np.argmax([fit_at(psi)[0] for psi in grid]))]
        step = grid[1] - grid[0]
        grid = np.linspace(max(best - step, 0.0), best + step, 2001)
    psi = grid[int(np.argmax([fit_at(g)[0] for g in grid]))]
    loglik, beta, sigma2, A = fit_at(psi)
    # within ~1e-7 of the optimum the log-likelihood changes by less than its rounding
    # error (~1e-12 relative), so the grid fixes psi only to about that
    assert 0.3 < psi < 0.7  # sigma_u2 / sigma2 = 0.5 in the simulation
    assert f.loglik >= loglik - 1e-9
    assert f.sigma_u2 / f.sigma2 == pytest.approx(psi, rel=1e-6)
    assert np.allclose(f.beta, beta, rtol=1e-7, atol=0)
    assert np.allclose(f.se, np.sqrt(np.diag(sigma2 * np.linalg.inv(A))), rtol=1e-7, atol=0)
    assert f.sigma2 == pytest.approx(sigma2, rel=1e-7)
    assert f.sigma_u2 == pytest.approx(psi * sigma2, rel=1e-6)


def test_all_singleton_groups_unidentifiable_warns():
    rng = np.random.default_rng(5)
    n = 40
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = X @ np.array([1.0, 0.5]) + rng.normal(size=n)
    groups = [f"g{i}" for i in range(n)]
    with pytest.warns(UserWarning, match="unidentifiable"):
        f = fit_random_intercept(y, X, groups, names=("intercept", "x1"))
    assert f.sigma_u2 == 0.0
    ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.allclose(f.beta, ols, atol=1e-10)


def test_fit_invariant_under_observation_reordering():
    y, X, groups, _ = simulate(seed=10, n_groups=150)
    f1 = fit_random_intercept(y, X, groups, names=NAMES)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(y))
    f2 = fit_random_intercept(y[perm], X[perm], [groups[i] for i in perm], names=NAMES)
    assert np.array_equal(f1.beta, f2.beta)
    assert f1.sigma_u2 == f2.sigma_u2
    assert f1.loglik == f2.loglik


def test_rank_deficient_design_names_columns():
    n = 30
    x = np.linspace(0, 1, n)
    X = np.column_stack([np.ones(n), x, 2 * x])
    with pytest.raises(ValueError, match="collinear") as exc:
        fit_random_intercept(x, X, ["g"] * n, names=("intercept", "a", "b_dup"))
    assert "b_dup" in str(exc.value) or "a" in str(exc.value)


@pytest.mark.parametrize("columns,names", [
    (lambda x, t: [np.ones_like(x), x, 2 * x], ("intercept", "a", "b_dup")),
    (lambda x, t: [np.ones_like(x), x, x], ("intercept", "a", "a_again")),
    (lambda x, t: [np.ones_like(x), x, t, 3 - 2 * x + t], ("intercept", "x", "t", "mix")),
    (lambda x, t: [np.full_like(x, 2013.0), np.ones_like(x), x], ("year", "intercept", "x")),
    (lambda x, t: [x, np.zeros_like(x), t], ("x", "zero", "t")),
    (lambda x, t: [np.zeros_like(x), np.zeros_like(x)], ("z1", "z2")),
    (lambda x, t: [np.ones_like(x), x, t, 2008 + 5 * (t > 0)], ("intercept", "x", "t", "year")),
])
def test_rank_check_names_the_columns_a_pivoted_qr_drops(columns, names):
    from scipy.linalg import qr

    rng = np.random.default_rng(4)
    x, t = rng.normal(size=40), rng.normal(size=40)
    X = np.column_stack(columns(x, t))
    _, R, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > max(X.shape) * np.finfo(float).eps * diag[0]))
    dropped = sorted(names[j] for j in piv[rank:])
    if dropped:
        with pytest.raises(ValueError, match="collinear") as exc:
            lmm._check_rank(X, names)
        assert str(exc.value).endswith(f"collinear columns {', '.join(dropped)}")
    else:
        lmm._check_rank(X, names)


def test_too_few_observations_is_an_error():
    X = np.ones((4, 3))
    with pytest.raises(ValueError, match="too few observations"):
        fit_random_intercept(np.zeros(4), X, list("abcd"))
    with pytest.raises(ValueError, match="too few observations: n=0"):
        fit([])  # the design matrix keeps its four columns with no rows


def test_response_without_residual_variance_is_an_error():
    _, X, labels, beta = simulate(3, n_groups=200)
    with pytest.raises(ValueError, match="^no residual variance: the fixed effects fit"):
        fit_random_intercept(X @ beta, X, labels)
    with pytest.raises(ValueError, match="^no residual variance: the fixed effects fit"):
        fit_random_intercept(np.full(len(labels), math.log(1.1)), X, labels)
    # constant within each group: the deviance falls without bound as sigma^2 -> 0
    level = {g: float(i % 7) for i, g in enumerate(sorted(set(labels)))}
    with pytest.raises(ValueError, match="^no residual variance within groups"):
        fit_random_intercept([level[g] for g in labels], X, labels)


def test_slope_rejects_a_vanished_residual():
    _, X, labels, _ = simulate(3, n_groups=200)
    prof = lmm._profile(np.zeros(len(labels)), X, labels)[0]
    with pytest.raises(ValueError, match="no residual variance left at psi = 1.0"):
        prof.slope(1.0)


def test_raw_year_coding_produces_large_intercept_pattern():
    # E[y | 2008] ~ 0.74 with slope -0.12 forces the intercept near 241.7
    rng = np.random.Generator(np.random.Philox(13))
    n_groups = 800
    years = rng.choice([2008.0, 2013.0], size=2 * n_groups)
    X = np.column_stack([np.ones(2 * n_groups), years])
    beta = np.array([241.66, -0.12])
    groups = np.repeat(np.arange(n_groups), 2)
    y = X @ beta + rng.normal(0, 0.3, n_groups)[groups] + rng.normal(0, 1.0, 2 * n_groups)
    f = fit_random_intercept(y, X, [str(g) for g in groups], names=("intercept", "year"))
    assert abs(f.coef("intercept")) > 50
    assert abs(f.coef("intercept") + 2008 * f.coef("year") - 0.74) < 0.5
    assert abs(f.coef("intercept") - beta[0]) < 3 * f.stderr("intercept")


# ---------------------------------------------------------- group intercepts

def test_predict_without_group_structure_is_fixed_effects_only():
    # +d/-d residuals in every group force the boundary solution exactly
    rng = np.random.default_rng(11)
    n_groups = 80
    X = np.column_stack([np.ones(2 * n_groups), rng.normal(size=2 * n_groups)])
    y = X @ np.array([1.0, 0.5]) + np.tile([0.4, -0.4], n_groups)
    groups = [f"g{i}" for i in np.repeat(np.arange(n_groups), 2)]
    f = fit_random_intercept(y, X, groups, names=("intercept", "combo"))
    assert f.sigma_u2 == 0.0
    assert all(u == 0.0 for u in f.group_effects.values())
    # no group variance: the fixed effects are the least-squares solution
    ols = np.linalg.lstsq(X, y, rcond=None)[0]
    assert f.coef("intercept") == pytest.approx(ols[0], rel=1e-12)
    assert f.coef("combo") == pytest.approx(ols[1], rel=1e-12)


def test_predict_shrinkage_matches_direct_formula():
    y, X, groups, _ = simulate(seed=12, n_groups=200)
    f = fit_random_intercept(y, X, groups, names=NAMES)
    assert f.sigma_u2 > 0
    # recompute one group's intercept from the shrinkage formula
    target = "g00007"
    idx = [i for i, g in enumerate(groups) if g == target]
    resid = y[idx] - X[idx] @ f.beta
    n_g = len(idx)
    shrink = f.sigma_u2 / (f.sigma_u2 + f.sigma2 / n_g)
    assert f.group_effects[target] == pytest.approx(shrink * resid.mean(), rel=1e-10)


def test_predict_approaches_group_mean_for_large_groups():
    rng = np.random.Generator(np.random.Philox(14))
    n_groups, per = 30, 80
    groups = np.repeat(np.arange(n_groups), per)
    X = np.ones((n_groups * per, 1))
    u = rng.normal(0, 3.0, n_groups)  # sigma_u2 >> sigma2 / n_g
    y = 1.0 + u[groups] + rng.normal(0, 0.5, n_groups * per)
    f = fit_random_intercept(y, X, [f"g{g}" for g in groups], names=("intercept",))
    got = f.coef("intercept") + f.group_effects["g3"]
    group_mean = y[groups == 3].mean()
    assert abs(got - group_mean) < 0.05


def test_fit_over_observations_uses_combo_group():
    obs = []
    rng = np.random.default_rng(15)
    combos = [("CN", "US"), ("DE", "US"), ("BR", "CN"), ("DE", "FR", "US")]
    for year in (2008, 2013):
        for i, combo in enumerate(combos):
            values = list(rng.uniform(0.5, 3.0, 2 + i + (year == 2013)))
            obs.append(make_observation(combo, year, values))
    f = fit(obs)
    assert f.names == ("intercept", "country_count", "publication_count", "year")
    assert f.n == 8
    assert f.n_groups == 4  # combos, not combo-years


# ------------------------------------------------------------------- report

def test_format_cell_reference_shape():
    assert format_cell(0.139, 0.003) == "0.139*** (0.003)"


def test_no_stars_for_weak_effects():
    # z ~ 1.28 -> p ~ 0.2
    assert stars(p_value(1.28, 1.0)) == ""


def test_p_value_matches_mpmath_normal_tail():
    mpmath = pytest.importorskip("mpmath")
    # z on both sides of 1, from 1e-12 deep into the tail
    z = np.concatenate([np.geomspace(1e-12, 37.0, 400), np.linspace(0.5, 3.0, 251),
                        [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]])
    with mpmath.workdps(50):
        for se in (1.0, 0.3, 2.5e-3):
            for e in np.concatenate([z * se, -z * se]).tolist():
                exact = mpmath.erfc(mpmath.mpf(abs(e) / se) / mpmath.sqrt(2))
                assert p_value(e, se) == pytest.approx(float(exact), rel=1e-12, abs=0)
    assert p_value(0.0, 1.0) == 1.0
    assert p_value(math.inf, 1.0) == 0.0
    assert math.isnan(p_value(1.0, 0.0))
    assert math.isnan(p_value(1.0, -1.0))


def test_star_thresholds_agree_with_normal_quantile_oracle():
    for p_star, marker in ((0.05, "*"), (0.01, "**"), (0.001, "***")):
        z = norm.isf(p_star / 2)
        assert stars(p_value(z * 1.0001, 1.0)) == marker
        just_below = stars(p_value(z * 0.9999, 1.0))
        assert just_below != marker or marker == "*"  # falls to the weaker tier


def test_report_layout():
    f = LmmFit(names=("intercept", "country_count", "publication_count", "year"),
               beta=np.array([167.48, 0.139, 0.0007, -0.084]),
               se=np.array([2.36, 0.003, 0.00007, 0.0011]),
               sigma_u2=1.140, sigma2=1.239, loglik=-338560.2, aic=677128.4,
               n=202824, n_groups=100000, psi=0.92)
    text = report({"All Fields": f})
    assert "0.139*** (0.003)" in text
    assert "Country Count" in text
    assert "Random Effect" in text
    assert "677128.4" in text
    assert "202824" in text
    csv_text = report_csv({"All Fields": f})
    assert csv_text.splitlines()[0] == "model,term,estimate,se,p,stars"
    assert "All Fields,Country Count," in csv_text
