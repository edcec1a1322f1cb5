import math

import numpy as np
import pytest

from autoduct.hpo.gp import (_JITTERS, GPSurrogate, _ei_arrays, _kernel,
                             _nlml_and_grad, expected_improvement, fit_gp,
                             incumbent_value, posterior, propose_next)
from autoduct.hpo.sobol import sobol_points
from autoduct.hpo.space import (EncodedPoint, TrialConfig, canonicalize,
                                default_space, encode)
from autoduct.neural_net import ActivationKind
from autoduct.rng import derive_seed
from autoduct.stats import normal_cdf, normal_pdf

SPACE = default_space()


def _toy_observations(n=8, seed=0, noise=0.0):
    """Configs on the continuous sub-manifold with a smooth objective."""
    rng = np.random.default_rng(seed)
    obs = []
    for _ in range(n):
        tc = TrialConfig(
            learning_rate=float(10 ** rng.uniform(-4, -2)),
            weight_decay=float(10 ** rng.uniform(-4, -2)),
            dropout_rate=float(rng.uniform(0, 0.3)),
            batch_size=int(rng.choice(SPACE.batch_sizes)),
            hidden_layers=int(rng.choice(SPACE.hidden_layers)),
            hidden_units=int(rng.choice(SPACE.hidden_units)),
            activation=ActivationKind(rng.choice([a.value for a in SPACE.activations])),
        )
        p = encode(tc)
        y = float(np.sin(3 * p.coords[0]) + p.coords[2] ** 2
                  + 0.3 * p.coords[5] + noise * rng.normal())
        obs.append((p, y))
    return obs


# --- marginal likelihood -----------------------------------------------------

def _diff2(x):
    """(d, n, n) squared coordinate differences, one dimension at a time."""
    return np.stack([(x[:, i][:, None] - x[:, i][None, :]) ** 2
                     for i in range(x.shape[1])])


def _nlml(x, z, theta):
    return _nlml_and_grad(_diff2(x), z, theta[None])[0][0]


def _scalar_nlml_and_grad(x, z, theta):
    """Reference: one parameter vector, K^-1 from two general solves, and
    a Python loop over the length-scale dimensions."""
    n, d = x.shape
    ls = np.exp(theta[:d])
    sf2, sn2 = math.exp(theta[d]), math.exp(theta[d + 1])
    r = np.sqrt(np.maximum(sum((x[:, i][:, None] - x[:, i][None, :]) ** 2 / ls[i] ** 2
                               for i in range(d)), 0.0))
    k_signal = sf2 * (1.0 + math.sqrt(5) * r + 5.0 / 3.0 * r**2) * np.exp(-math.sqrt(5) * r)
    chol = np.linalg.cholesky(k_signal + (sn2 + _JITTERS[0]) * np.eye(n))
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, z))
    nlml = 0.5 * z @ alpha + np.log(np.diag(chol)).sum() + 0.5 * n * math.log(2 * math.pi)
    k_inv = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(n)))
    inner = np.outer(alpha, alpha) - k_inv
    common = sf2 * (5.0 / 3.0) * (1.0 + math.sqrt(5) * r) * np.exp(-math.sqrt(5) * r)
    grad = np.empty(d + 2)
    for i in range(d):
        dk = common * (x[:, i][:, None] - x[:, i][None, :]) ** 2 / ls[i] ** 2
        grad[i] = -0.5 * (inner * dk).sum()
    grad[d] = -0.5 * (inner * k_signal).sum()
    grad[d + 1] = -0.5 * sn2 * np.trace(inner)
    return nlml, grad


def test_nlml_value_matches_direct_formula():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(7, 3))
    z = rng.normal(size=7)
    theta = np.array([0.2, -0.1, 0.4, 0.3, -2.0])
    nlml = _nlml(x, z, theta)

    # the factorization ladder adds its smallest rung (1e-10) to the diagonal
    k = _kernel(x, x, theta[:3], theta[3]) \
        + (math.exp(theta[4]) + 1e-10) * np.eye(7)
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    direct = 0.5 * z @ np.linalg.solve(k, z) + 0.5 * logdet \
        + 0.5 * 7 * math.log(2 * math.pi)
    assert nlml == pytest.approx(direct, rel=1e-10)


def test_nlml_gradient_matches_finite_difference():
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(6, 2))
    z = rng.normal(size=6)
    theta = np.array([0.1, -0.3, 0.2, -1.5])
    _, grad = _nlml_and_grad(_diff2(x), z, theta[None])
    h = 1e-6
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd = (_nlml(x, z, up) - _nlml(x, z, down)) / (2 * h)
        assert grad[0, i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_nlml_gradient_matches_finite_difference_full_space():
    # the search space's dimension, with more observations than one fit's
    # warm-up: every length-scale term of the einsum is checked
    rng = np.random.default_rng(21)
    n, d = 20, SPACE.encoded_dim
    x = rng.uniform(size=(n, d))
    z = rng.normal(size=n)
    theta = np.concatenate([rng.uniform(-0.5, 1.0, size=d), [0.2, -2.0]])
    _, grad = _nlml_and_grad(_diff2(x), z, theta[None])
    h = 1e-6
    for i in range(d + 2):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd = (_nlml(x, z, up) - _nlml(x, z, down)) / (2 * h)
        assert grad[0, i] == pytest.approx(fd, rel=1e-5, abs=1e-7), i


def test_stacked_nlml_matches_scalar_reference():
    # rows of a stack are independent and each equals the one-vector
    # computation with a per-dimension loop and solves against eye(n)
    rng = np.random.default_rng(5)
    n, d = 16, SPACE.encoded_dim
    x = canonicalize(sobol_points(d, n, shift_seed=77), SPACE)
    z = rng.normal(size=n)
    thetas = np.array([[math.log(ls0)] * d + [0.0, math.log(sn0)]
                       for ls0 in (0.5, 1.5, 3.0) for sn0 in (1e-4, 1e-2)])
    thetas[:, :d] += rng.normal(0.0, 0.3, size=(len(thetas), d))
    nlml, grad = _nlml_and_grad(_diff2(x), z, thetas)
    for row, theta in enumerate(thetas):
        ref_nlml, ref_grad = _scalar_nlml_and_grad(x, z, theta)
        assert nlml[row] == pytest.approx(ref_nlml, rel=1e-10)
        np.testing.assert_allclose(grad[row], ref_grad, rtol=1e-7, atol=1e-9)
        one_nlml, one_grad = _nlml_and_grad(_diff2(x), z, theta[None])
        assert one_nlml[0] == pytest.approx(nlml[row], rel=1e-12)
        np.testing.assert_allclose(one_grad[0], grad[row], rtol=1e-10, atol=1e-12)


def test_nlml_marks_unfactorizable_rows():
    # two equal inputs under a signal variance of e^60 make a covariance
    # that no jitter rung (at most 1e-4) can lift to positive definite; its
    # row is flagged and the healthy row next to it is unaffected
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(6, 2))
    x[3] = x[1]
    z = rng.normal(size=6)
    good = np.array([0.1, -0.3, 0.2, -1.5])
    bad = np.array([0.1, -0.3, 60.0, -60.0])
    nlml, grad = _nlml_and_grad(_diff2(x), z, np.stack([bad, good]))
    assert nlml[0] == np.inf
    assert np.all(grad[0] == 0.0)
    assert nlml[1] == pytest.approx(_nlml(x, z, good), rel=1e-12)


# --- fitting and posterior -------------------------------------------------------

def test_fit_gp_interpolates_smooth_data():
    obs = _toy_observations(n=10)
    gp = fit_gp(obs)
    x = np.array([p.coords for p, _ in obs])
    y = np.array([v for _, v in obs])
    mu, var = posterior(gp, x)
    spread = y.max() - y.min()
    assert np.max(np.abs(mu - y)) < 0.15 * spread
    assert np.all(var >= 0.0)


def test_fit_gp_deterministic():
    obs = _toy_observations(n=6, seed=4)
    a, b = fit_gp(obs), fit_gp(obs)
    assert np.array_equal(a.log_lengthscales, b.log_lengthscales)
    assert a.log_signal_var == b.log_signal_var
    assert a.log_noise_var == b.log_noise_var
    assert np.array_equal(a.alpha, b.alpha)


def test_fit_gp_validation():
    obs = _toy_observations(n=3)
    with pytest.raises(ValueError):
        fit_gp(obs[:1])
    bad = [(obs[0][0], float("inf")), obs[1]]
    with pytest.raises(ValueError):
        fit_gp(bad)


def test_posterior_uncertainty_grows_away_from_data():
    obs = _toy_observations(n=8, seed=2)
    gp = fit_gp(obs)
    near = obs[0][0].coords[None, :]
    far = np.clip(obs[0][0].coords + 0.9, 0, 1)[None, :]
    _, var_near = posterior(gp, near)
    _, var_far = posterior(gp, far)
    assert var_far[0] > var_near[0]


def test_constant_objective_is_handled():
    obs = [(p, 5.0) for p, _ in _toy_observations(n=5)]
    gp = fit_gp(obs)
    mu, _ = posterior(gp, obs[0][0].coords[None, :])
    assert mu[0] == pytest.approx(5.0, abs=0.2)


# --- expected improvement ----------------------------------------------------------

def test_ei_at_incumbent_with_unit_sigma():
    # mu equals the incumbent: EI reduces to sigma * pdf(0)
    ei = _ei_arrays(np.array([2.0]), np.array([1.0]), incumbent=2.0)
    assert ei[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
    assert ei[0] == pytest.approx(0.39894, abs=1e-5)


def test_ei_zero_sigma_degenerates_to_hinge():
    ei = _ei_arrays(np.array([1.0, 3.0]), np.array([0.0, 0.0]), incumbent=2.0)
    assert ei[0] == 1.0      # improvement of exactly inc - mu
    assert ei[1] == 0.0


def test_ei_matches_monte_carlo():
    rng = np.random.default_rng(17)
    draws = rng.normal(size=1_000_000)
    for _ in range(20):
        mu = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.1, 2.0))
        inc = float(rng.uniform(-2, 2))
        analytic = _ei_arrays(np.array([mu]), np.array([sigma**2]), inc)[0]
        samples = np.maximum(inc - (mu + sigma * draws), 0.0)
        tol = 5.0 * samples.std() / math.sqrt(len(samples)) + 1e-4
        assert analytic == pytest.approx(samples.mean(), abs=tol)


def test_ei_nonnegative_and_monotone_in_sigma():
    mus = np.full(4, 1.0)
    vars_ = np.array([0.01, 0.1, 1.0, 4.0])
    ei = _ei_arrays(mus, vars_, incumbent=0.5)    # mu above incumbent
    assert np.all(ei >= 0.0)
    assert np.all(np.diff(ei) > 0)


def test_expected_improvement_wrapper_and_incumbent():
    obs = _toy_observations(n=8, seed=6)
    gp = fit_gp(obs)
    inc = incumbent_value(gp)
    mu, _ = posterior(gp, gp.x)
    assert inc == pytest.approx(mu.min(), rel=1e-12)
    p = obs[0][0]
    direct = expected_improvement(gp, p, inc)
    mu1, var1 = posterior(gp, p.coords[None, :])
    assert direct == pytest.approx(_ei_arrays(mu1, var1, inc)[0], rel=1e-12)
    assert direct >= 0.0


def test_ei_arrays_match_scalar_formula():
    # the array form against per-element normal_cdf / normal_pdf, over the
    # posterior of real candidates and a z grid reaching far into the tails
    obs = _toy_observations(n=8, seed=6)
    gp = fit_gp(obs)
    raw = sobol_points(SPACE.encoded_dim, 2048, shift_seed=derive_seed(1, "propose-candidates"))
    mu_c, var_c = posterior(gp, canonicalize(raw, SPACE))
    grid = np.linspace(-12.0, 12.0, 4001)
    mu = np.concatenate([mu_c, -0.7 * grid, [1.0, -1.0]])
    var = np.concatenate([var_c, np.full_like(grid, 0.49), [0.0, 0.0]])
    inc = incumbent_value(gp)
    ei = _ei_arrays(mu, var, inc)
    expected = []
    for m, v in zip(mu, var):
        sigma, improve = math.sqrt(v), inc - m
        if sigma > 0.0:
            zz = improve / sigma
            value = improve * normal_cdf(zz) + sigma * normal_pdf(zz, 0.0, 1.0)
        else:
            value = improve
        expected.append(max(value, 0.0))
    np.testing.assert_allclose(ei, expected, rtol=1e-15, atol=0.0)


# --- proposals -------------------------------------------------------------------------

def test_propose_next_deterministic_and_in_domain():
    obs = _toy_observations(n=8, seed=9)
    gp = fit_gp(obs)
    a = propose_next(gp, SPACE, candidate_count=128, seed=3)
    b = propose_next(gp, SPACE, candidate_count=128, seed=3)
    assert a == b
    assert a.origin == "bo"
    assert a.batch_size in SPACE.batch_sizes
    assert a.hidden_units in SPACE.hidden_units
    assert SPACE.learning_rate[0] <= a.learning_rate <= SPACE.learning_rate[1]
    c = propose_next(gp, SPACE, candidate_count=128, seed=4)
    assert isinstance(c, TrialConfig)


def test_propose_next_candidate_validation():
    obs = _toy_observations(n=4)
    gp = fit_gp(obs)
    with pytest.raises(ValueError):
        propose_next(gp, SPACE, candidate_count=0)


def test_propose_next_is_argmax_over_canonical_candidates():
    from autoduct.hpo.sobol import sobol_points
    from autoduct.hpo.space import decode
    from autoduct.rng import derive_seed

    obs = _toy_observations(n=8, seed=12)
    gp = fit_gp(obs)
    count, seed = 64, 1
    chosen = propose_next(gp, SPACE, candidate_count=count, seed=seed)

    raw = sobol_points(SPACE.encoded_dim, count,
                       shift_seed=derive_seed(seed, "propose-candidates"))
    configs = [decode(raw[i], SPACE) for i in range(count)]
    inc = incumbent_value(gp)
    eis = [expected_improvement(gp, encode(c, SPACE), inc) for c in configs]
    assert chosen.assignment() == configs[int(np.argmax(eis))].assignment()
    assert max(eis) >= 0.0
