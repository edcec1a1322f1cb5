import math

import numpy as np
import pytest

from autoduct.errors import SingularCovariance
from autoduct.hpo import optimize
from autoduct.hpo.gp import (_JITTERS, _bordered, _ei_arrays, _factor, _kernel, _likelihood,
                             fit_gp, incumbent_value, posterior, propose_next)
from autoduct.hpo.optimize import TrialResult, run_bo
from autoduct.hpo.sobol import sobol_points
from autoduct.hpo.space import TrialConfig, canonicalize, default_space, encode
from autoduct.neural_net import ActivationKind
from autoduct.rng import derive_seed
from autoduct.stats import normal_cdf, normal_pdf

import reference_gp

SPACE = default_space()


def _toy_observations(n=8, seed=0, noise=0.0):
    """Encoded configs x (n, d) and a smooth objective y (n,) of them."""
    rng = np.random.default_rng(seed)
    x, y = [], []
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
        p = encode(tc, SPACE)
        x.append(p)
        y.append(float(np.sin(3 * p[0]) + p[2] ** 2 + 0.3 * p[5] + noise * rng.normal()))
    return np.array(x), np.array(y)


# --- marginal likelihood -----------------------------------------------------

def _diff2(x):
    """(d, n, n) squared coordinate differences, one dimension at a time."""
    return np.stack([(x[:, i][:, None] - x[:, i][None, :]) ** 2
                     for i in range(x.shape[1])])


def _nlml(x, z, theta):
    return _likelihood(_diff2(x), z)(theta[None])[0][0]


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
    _, grad = _likelihood(_diff2(x), z)(theta[None])[:2]
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
    _, grad = _likelihood(_diff2(x), z)(theta[None])[:2]
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
    nlml, grad = _likelihood(_diff2(x), z)(thetas)[:2]
    for row, theta in enumerate(thetas):
        ref_nlml, ref_grad = _scalar_nlml_and_grad(x, z, theta)
        assert nlml[row] == pytest.approx(ref_nlml, rel=1e-10)
        np.testing.assert_allclose(grad[row], ref_grad, rtol=1e-7, atol=1e-9)
        one_nlml, one_grad = _likelihood(_diff2(x), z)(theta[None])[:2]
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
    nlml, grad = _likelihood(_diff2(x), z)(np.stack([bad, good]))[:2]
    assert nlml[0] == np.inf
    assert np.all(grad[0] == 0.0)
    assert nlml[1] == pytest.approx(_nlml(x, z, good), rel=1e-12)


@pytest.mark.parametrize("n", [16, 24])
def test_nlml_matmul_form_matches_the_einsum_reference(n):
    # the two forms contract diff2 in different orders, so they agree to
    # rounding; thetas span the fit's bounds, and the first row's covariance
    # (two equal inputs, the longest length scales, signal variance e^60)
    # factorizes at no jitter level
    rng = np.random.default_rng(40 + n)
    d = SPACE.encoded_dim
    x = canonicalize(sobol_points(d, n, shift_seed=n), SPACE)
    x[3] = x[1]
    z = rng.normal(size=n)
    thetas = np.column_stack([rng.uniform(math.log(0.05), math.log(20.0), size=(7, d)),
                              rng.uniform(-3.0, 3.0, size=7),
                              rng.uniform(math.log(1e-8), math.log(10.0), size=7)])
    thetas[0] = [math.log(20.0)] * d + [60.0, -60.0]
    nlml, grad = _likelihood(_diff2(x), z)(thetas)[:2]
    ref_nlml, ref_grad = reference_gp.nlml_and_grad(_diff2(x), z, thetas)
    assert nlml[0] == ref_nlml[0] == np.inf
    assert np.all(grad[0] == 0.0) and np.all(ref_grad[0] == 0.0)
    np.testing.assert_allclose(nlml[1:], ref_nlml[1:], rtol=1e-12, atol=0.0)
    # relative to each row's largest component: a component near zero is a
    # cancellation whose own relative error the summation order sets
    scale = np.abs(ref_grad[1:]).max(axis=1, keepdims=True)
    assert np.all(np.abs(grad[1:] - ref_grad[1:]) <= 1e-12 * scale)


def _ladder_thetas(x, d):
    """Thetas for inputs x with x[3] == x[1]: random rows inside the fit's
    bounds, one row that factorizes only at a later jitter rung and one
    that factorizes at none (signal variance e^16 and e^60, noise e^-60)."""
    rng = np.random.default_rng(len(x))
    thetas = np.column_stack([rng.uniform(math.log(0.05), math.log(20.0), size=(5, d)),
                              rng.uniform(-3.0, 3.0, size=5),
                              rng.uniform(math.log(1e-8), math.log(10.0), size=5)])
    ladder = [2.0] * d + [16.0, -60.0]
    dead = [2.0] * d + [60.0, -60.0]
    return thetas, np.vstack([thetas[:2], ladder, thetas[2:], dead])


@pytest.mark.parametrize("n", [6, 24])
def test_likelihood_matches_the_matmul_reference_bit_for_bit(n):
    # the per-fit likelihood forms each float as one matmul-form call does:
    # all rows at the first rung (no `ok` array), and with a ladder row and
    # an unfactorizable row in the stack
    d = SPACE.encoded_dim
    x = canonicalize(sobol_points(d, n, shift_seed=n), SPACE)
    x[3] = x[1]
    z = np.random.default_rng(n).normal(size=n)
    for thetas in _ladder_thetas(x, d):
        nlml, grad = _likelihood(_diff2(x), z)(thetas)[:2]
        ref_nlml, ref_grad = reference_gp.nlml_and_grad(_diff2(x), z, thetas, matmul=True)
        assert nlml.tobytes() == ref_nlml.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        value_only, none = _likelihood(_diff2(x), z)(thetas, grad=False)[:2]
        assert none is None and value_only.tobytes() == nlml.tobytes()


@pytest.mark.parametrize("n", [6, 24])
def test_gradient_only_evaluation_matches_the_full_call(n):
    # what an ascent step reads: the same gradient bits, and rows flagged
    # exactly where the full call's NLML is not finite; no flags at all when
    # every row factorizes at the first rung
    d = SPACE.encoded_dim
    x = canonicalize(sobol_points(d, n, shift_seed=n), SPACE)
    x[3] = x[1]
    z = np.random.default_rng(n).normal(size=n)
    evaluate = _likelihood(_diff2(x), z)
    for thetas in _ladder_thetas(x, d):
        nlml, full_grad, _ = evaluate(thetas)
        none, grad, ok = evaluate(thetas, value=False)
        assert none is None
        assert grad.tobytes() == full_grad.tobytes()
        if ok is None:
            assert np.all(np.isfinite(nlml))
        else:
            assert np.array_equal(~ok, ~np.isfinite(nlml))
    assert ok is not None and ok.tolist() == [True] * 6 + [False]


@pytest.mark.parametrize("n", [6, 16, 24])
def test_bordered_factor_matches_cholesky_and_inverse(n):
    # L and L^-1 from one Cholesky of [[K_r, I], [I, c I]] against
    # np.linalg.cholesky and np.linalg.inv at the same jitter rung. Two
    # backward-stable factorizations differ by rounding that grows with the
    # condition number, so the relative tolerance is n eps cond(L); the same
    # bound holds L^-1 L to I. The first stack factorizes at the first rung
    # in one call; the second is refused (a row that needs a later rung)
    # and climbs the ladder row by row, with one row that no rung
    # factorizes, whose L and L^-1 are I
    d = SPACE.encoded_dim
    x = canonicalize(sobol_points(d, n, shift_seed=n), SPACE)
    x[3] = x[1]
    thetas, with_ladder = _ladder_thetas(x, d)
    for stack in (thetas, with_ladder):
        k_signal = np.stack([_kernel(x, x, t[:d], t[d]) for t in stack])
        noise = np.exp(stack[:, d + 1])
        chol, chol_inv, rungs = _factor(_bordered(len(stack), n), k_signal, noise)
        assert chol_inv.flags.c_contiguous
        want_rungs = []
        for row, k in enumerate(k_signal):
            try:
                want, rung = reference_gp.chol_with_ladder(k + noise[row] * np.eye(n))
            except SingularCovariance:
                want_rungs.append(None)
                assert np.array_equal(chol[row], np.eye(n))
                assert np.array_equal(chol_inv[row], np.eye(n))
                continue
            want_rungs.append(rung)
            tol = n * np.finfo(float).eps * np.linalg.cond(want)
            want_inv = np.linalg.inv(want)
            assert np.abs(chol[row] - want).max() <= tol * np.abs(want).max()
            assert np.abs(chol_inv[row] - want_inv).max() <= tol * np.abs(want_inv).max()
            assert np.abs(chol_inv[row] @ chol[row] - np.eye(n)).max() <= tol
        if stack is thetas:
            assert rungs is None and want_rungs == [_JITTERS[0]] * len(stack)
        else:
            assert [None if np.isnan(r) else r for r in rungs] == want_rungs
            assert want_rungs[2] == _JITTERS[1] and want_rungs[-1] is None


def _recorded_observation_sets():
    """The (x, y) of every fit of one run_bo, 16 Sobol + 9 BO trials on a
    formula objective with trial 3 diverged (n = 16 .. 24, one penalized
    row each), and a 24-row set with two equal inputs."""
    sets = []

    def record(x, y):
        sets.append((x.copy(), y.copy()))
        return fit_gp(x, y)

    def objective(tc):
        if tc.trial_id == 3:
            return TrialResult(tc, None, "diverged")
        return TrialResult(tc, abs(math.log10(tc.learning_rate) + 3.0)
                           + 0.01 * tc.hidden_units + 0.5 * tc.dropout_rate, "ok")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "fit_gp", record)
        run_bo(SPACE, n_sobol=16, n_bo=9, evaluator=objective, seed=3)
    x, y = sets[-1]
    x = x.copy()
    x[3] = x[1]
    return sets + [(x, y)]


def test_fit_gp_matches_the_reference_ascent_bit_for_bit():
    # the gradient-only ascent with its in-place Adam update and per-fit
    # constants gives every field of the reference ascent (the full
    # likelihood at every step, an allocating Adam update), bit for bit
    sets = _recorded_observation_sets()
    assert [len(x) for x, _ in sets] == list(range(16, 25)) + [24]
    assert all(np.count_nonzero(y == y.max()) == 1 and y.max() > 1.9 * np.sort(y)[-2]
               for _, y in sets)
    for x, y in sets:
        got, want = fit_gp(x, y), reference_gp.fit_gp(x, y)
        for field in want.__dataclass_fields__:
            assert np.asarray(getattr(got, field)).tobytes() == \
                np.asarray(getattr(want, field)).tobytes(), field


def test_proposals_match_the_cholesky_inverse_and_solve_reference():
    # the bordered factor moves the fit and the posterior by rounding only:
    # on every recorded set, the fit that ascends on np.linalg.cholesky +
    # np.linalg.inv and whose posterior solves L w = k* by np.linalg.solve
    # proposes the same configuration
    for i, (x, y) in enumerate(_recorded_observation_sets()):
        seed = derive_seed(3, f"propose:{i}")
        got = propose_next(fit_gp(x, y), SPACE, seed=seed)
        want = reference_gp.propose_by_solve(reference_gp.fit_gp(x, y, matmul=False), SPACE,
                                             seed=seed)
        assert got.to_dict() == want.to_dict(), i


# --- fitting and posterior -------------------------------------------------------

def test_fit_gp_interpolates_smooth_data():
    x, y = _toy_observations(n=10)
    gp = fit_gp(x, y)
    mu, var = posterior(gp, x)
    spread = y.max() - y.min()
    assert np.max(np.abs(mu - y)) < 0.15 * spread
    assert np.all(var >= 0.0)


def test_fit_gp_deterministic():
    x, y = _toy_observations(n=6, seed=4)
    a, b = fit_gp(x, y), fit_gp(x, y)
    assert np.array_equal(a.log_lengthscales, b.log_lengthscales)
    assert a.log_signal_var == b.log_signal_var
    assert a.log_noise_var == b.log_noise_var
    assert np.array_equal(a.alpha, b.alpha)


def test_fit_gp_validation():
    x, y = _toy_observations(n=3)
    with pytest.raises(ValueError, match="at least two"):
        fit_gp(x[:1], y[:1])
    with pytest.raises(ValueError):
        fit_gp(x[:2], np.array([float("inf"), y[1]]))
    # shapes: x must be (n, d) and y must hold one objective per row of x
    with pytest.raises(ValueError, match="need inputs"):
        fit_gp(x[0], y)
    with pytest.raises(ValueError, match="need inputs"):
        fit_gp(x[None], y)
    with pytest.raises(ValueError, match="need inputs"):
        fit_gp(x, y[:2])
    with pytest.raises(ValueError, match="need inputs"):
        fit_gp(x[:2], y)
    with pytest.raises(ValueError, match="need inputs"):
        fit_gp(x, y[:, None])


def test_posterior_uncertainty_grows_away_from_data():
    x, y = _toy_observations(n=8, seed=2)
    gp = fit_gp(x, y)
    near = x[:1]
    far = np.clip(x[:1] + 0.9, 0, 1)
    _, var_near = posterior(gp, near)
    _, var_far = posterior(gp, far)
    assert var_far[0] > var_near[0]


def test_constant_objective_is_handled():
    x, _ = _toy_observations(n=5)
    gp = fit_gp(x, np.full(5, 5.0))
    mu, _ = posterior(gp, x[:1])
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
    x, y = _toy_observations(n=8, seed=6)
    gp = fit_gp(x, y)
    inc = incumbent_value(gp)
    mu, _ = posterior(gp, gp.x)
    assert inc == pytest.approx(mu.min(), rel=1e-12)
    # EI at one point agrees with the same point inside a batch
    direct = _ei_arrays(*posterior(gp, x[:1]), inc)[0]
    batch = _ei_arrays(*posterior(gp, x), inc)
    assert direct == pytest.approx(batch[0], rel=1e-12)
    assert direct >= 0.0


def test_ei_arrays_match_scalar_formula():
    # the array form against per-element normal_cdf / normal_pdf, over the
    # posterior of real candidates and a z grid reaching far into the tails
    gp = fit_gp(*_toy_observations(n=8, seed=6))
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
    gp = fit_gp(*_toy_observations(n=8, seed=9))
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
    gp = fit_gp(*_toy_observations(n=4))
    with pytest.raises(ValueError):
        propose_next(gp, SPACE, candidate_count=0)


def test_propose_next_is_argmax_over_canonical_candidates():
    from autoduct.hpo.sobol import sobol_points
    from autoduct.hpo.space import decode
    from autoduct.rng import derive_seed

    gp = fit_gp(*_toy_observations(n=8, seed=12))
    count, seed = 64, 1
    chosen = propose_next(gp, SPACE, candidate_count=count, seed=seed)

    raw = sobol_points(SPACE.encoded_dim, count,
                       shift_seed=derive_seed(seed, "propose-candidates"))
    configs = [decode(raw[i], SPACE) for i in range(count)]
    inc = incumbent_value(gp)
    eis = [_ei_arrays(*posterior(gp, encode(c, SPACE)[None, :]), inc)[0]
           for c in configs]
    assert chosen.assignment() == configs[int(np.argmax(eis))].assignment()
    assert max(eis) >= 0.0
