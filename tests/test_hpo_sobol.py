import numpy as np
import pytest
from scipy.stats import qmc

from autoduct.errors import DimensionOverflow
from autoduct.hpo.sobol import (MAX_DIM, _direction_integers, sample_sobol,
                                sobol_points)
from autoduct.hpo.space import default_space
from autoduct.rng import derive_seed
from reference_rng import ScalarSplitMix64


def _natural_order_point(directions, index):
    """Independent construction: XOR the direction integers selected by
    the binary digits of the index, natural (non-Gray) ordering."""
    word = 0
    k = 0
    while index:
        if index & 1:
            word ^= directions[k]
        index >>= 1
        k += 1
    return word / 2.0**32


def test_first_point_is_half_everywhere():
    pts = sobol_points(MAX_DIM, 1)
    assert np.all(pts[0] == 0.5)


def test_matches_scipy_reference():
    # scipy emits the all-zeros point first; this sequence skips it
    for dim in (1, 2, 5, 13, 21):
        n = 64
        ours = sobol_points(dim, n)
        ref = qmc.Sobol(d=dim, scramble=False).random(128)[1:n + 1]
        assert np.array_equal(ours, ref)


def test_matches_scipy_reference_across_powers_of_two():
    # counts on both sides of 2^0, 2^1 and 2^10, where the Gray-code index
    # first reaches a new direction integer
    ref = qmc.Sobol(d=21, scramble=False).random(2048)
    for n in (1, 2, 3, 1023, 1024, 1025):
        assert np.array_equal(sobol_points(21, n), ref[1:n + 1]), n


def _scalar_sobol(dim, n, shift_seed):
    """Reference: the per-point, per-dimension Gray-code loop on Python
    integers."""
    v = [_direction_integers(j) for j in range(dim)]
    shifts = [0] * dim
    if shift_seed != 0:
        gen = ScalarSplitMix64(shift_seed)
        shifts = [gen.next_u64() >> 32 for _ in range(dim)]
    out = np.empty((n, dim))
    state = [0] * dim
    for i in range(n):
        c = 0
        mask = i
        while mask & 1:
            mask >>= 1
            c += 1
        for j in range(dim):
            state[j] ^= v[j][c]
            out[i, j] = (state[j] ^ shifts[j]) / 2.0**32
    return out


def test_shifted_sequence_matches_scalar_loop():
    for dim, n, shift_seed in ((21, 2048, derive_seed(3, "propose-candidates")),
                               (21, 16, derive_seed(0, "sobol-init")),
                               (7, 1025, 99), (1, 5, 0), (21, 0, 5)):
        assert np.array_equal(sobol_points(dim, n, shift_seed),
                              _scalar_sobol(dim, n, shift_seed)), (dim, n)


def test_gray_order_matches_natural_order_construction():
    # the i-th emitted point must equal the natural-order point at the
    # Gray code of i+1
    dim = 8
    pts = sobol_points(dim, 64)
    tables = [_direction_integers(j) for j in range(dim)]
    for i in range(64):
        g = (i + 1) ^ ((i + 1) >> 1)
        for j in range(dim):
            assert pts[i, j] == _natural_order_point(tables[j], g)


def test_first_block_is_balanced():
    # points 1..2^m-1 plus the skipped zero point tile each axis evenly:
    # every dyadic bin of width 2^-m holds exactly one of them
    m = 5
    pts = sobol_points(10, 2**m - 1)
    for j in range(10):
        bins = np.floor(np.concatenate([[0.0], pts[:, j]]) * 2**m).astype(int)
        assert sorted(bins) == list(range(2**m))


def test_points_live_in_half_open_cube():
    pts = sobol_points(6, 500)
    assert np.all(pts >= 0.0)
    assert np.all(pts < 1.0)
    scrambled = sobol_points(6, 500, shift_seed=123)
    assert np.all(scrambled >= 0.0)
    assert np.all(scrambled < 1.0)


def test_digital_shift_scrambling():
    plain = sobol_points(4, 32)
    assert np.array_equal(sobol_points(4, 32, shift_seed=0), plain)
    s1 = sobol_points(4, 32, shift_seed=7)
    s2 = sobol_points(4, 32, shift_seed=7)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, plain)
    assert not np.array_equal(s1, sobol_points(4, 32, shift_seed=8))


def test_shift_is_xor_on_integer_lattice():
    # shifting twice with the same word must cancel: verify by checking
    # the scrambled and plain integers differ by a constant XOR per dim
    plain = sobol_points(3, 16)
    shifted = sobol_points(3, 16, shift_seed=99)
    plain_ints = np.round(plain * 2.0**32).astype(np.uint64)
    shifted_ints = np.round(shifted * 2.0**32).astype(np.uint64)
    words = plain_ints ^ shifted_ints
    for j in range(3):
        assert len(set(words[:, j].tolist())) == 1


def test_dimension_limits():
    with pytest.raises(DimensionOverflow):
        sobol_points(0, 4)
    with pytest.raises(DimensionOverflow):
        sobol_points(MAX_DIM + 1, 4)
    with pytest.raises(DimensionOverflow):
        sobol_points(3, -1)
    assert sobol_points(3, 0).shape == (0, 3)


def test_max_dim_covers_default_space():
    assert MAX_DIM >= default_space().encoded_dim


def test_sample_sobol_configs():
    space = default_space()
    configs = sample_sobol(space, 12, shift_seed=5)
    assert len(configs) == 12
    assert [c.trial_id for c in configs] == list(range(12))
    assert all(c.origin == "sobol" for c in configs)
    for c in configs:
        assert space.learning_rate[0] <= c.learning_rate <= space.learning_rate[1]
        assert c.batch_size in space.batch_sizes
        assert c.hidden_layers in space.hidden_layers
        assert c.hidden_units in space.hidden_units
        assert c.activation in space.activations
    # quasi-random coverage: a dozen points should not collapse
    assert len({c.assignment() for c in configs}) > 1
    with pytest.raises(ValueError):
        sample_sobol(space, 0)
