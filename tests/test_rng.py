import numpy as np
import pytest
from hypothesis import given, strategies as st

from autoduct.rng import STREAM_VERSION, SplitMix64, derive_seed
from reference_rng import ScalarSplitMix64

# published reference outputs for splitmix64 seeded with 0
_REFERENCE_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

_seeds = st.integers(min_value=0, max_value=2**64 - 1)


def _reference_splitmix64(seed):
    """Independent transcription of the published algorithm."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        yield z ^ (z >> 31)


def test_matches_published_reference_stream():
    assert tuple(SplitMix64(0).block(3).tolist()) == _REFERENCE_SEED0


@given(_seeds)
def test_matches_independent_implementation(seed):
    ref = _reference_splitmix64(seed)
    assert SplitMix64(seed).block(8).tolist() == [next(ref) for _ in range(8)]


@given(_seeds, st.lists(st.integers(min_value=0, max_value=12), max_size=6))
def test_blocks_continue_one_stream(seed, sizes):
    # blocks of any sizes, empty ones included, read the stream in order
    gen = SplitMix64(seed)
    ref = _reference_splitmix64(seed)
    for k in sizes:
        z = gen.block(k)
        assert z.dtype == np.uint64 and z.shape == (k,)
        assert z.tolist() == [next(ref) for _ in range(k)]
    assert gen.block(1).tolist() == [next(ref)]


def test_stream_version_pinned():
    assert STREAM_VERSION == 1


def test_same_seed_same_stream():
    assert SplitMix64(987654321).block(50).tolist() == SplitMix64(987654321).block(50).tolist()


@given(_seeds)
def test_next_u64_in_range(seed):
    # the state wraps at 2^64 as the scalar form's masking does
    gen = SplitMix64(seed)
    gen.block(3)
    assert gen.state == (seed + 3 * 0x9E3779B97F4A7C15) % 2**64
    assert 0 <= int(gen.block(1)[0]) < 2**64


@given(st.integers(min_value=0, max_value=2**32))
def test_random_unit_interval(seed):
    x = SplitMix64(seed).uniforms(20)
    assert x.dtype == np.float64
    assert np.all((0.0 <= x) & (x < 1.0))


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=1000))
def test_below_bound(seed, bound):
    draws = SplitMix64(seed).below(np.full(20, bound, np.uint64))
    assert np.all(draws < bound)


def test_below_refuses_a_zero_bound():
    with pytest.raises(ValueError):
        SplitMix64(1).below([3, 0])


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=40))
def test_shuffle_is_permutation(seed, n):
    order = SplitMix64(seed).permutation(n)
    assert order.dtype == np.intp
    assert sorted(order.tolist()) == list(range(n))


def test_shuffle_deterministic():
    a = SplitMix64(5).permutation(100)
    assert np.array_equal(a, SplitMix64(5).permutation(100))
    assert not np.array_equal(SplitMix64(6).permutation(100), a)


def test_normal_moments():
    draws = SplitMix64(77).normals(20000)
    assert abs(draws.mean()) < 0.03
    assert abs(draws.var() - 1.0) < 0.05
    assert np.all(np.isfinite(draws))


# --- the array draws against the scalar ones they replace -------------------------

def _same_floats(array, scalars):
    return array.tobytes() == np.array(scalars, dtype=np.float64).tobytes()


@given(_seeds, st.integers(min_value=0, max_value=40))
def test_uniforms_equal_the_scalar_draws(seed, k):
    gen, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    assert _same_floats(gen.uniforms(k), [ref.random() for _ in range(k)])
    assert gen.state == ref.state


@given(_seeds, st.integers(min_value=0, max_value=40))
def test_normals_equal_the_scalar_draws(seed, k):
    gen, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    assert _same_floats(gen.normals(k), [ref.normal() for _ in range(k)])
    assert gen.state == ref.state


# a bound above 2^63 rejects up to half of all draws; a power of two
# rejects none
_bounds = st.one_of(st.integers(min_value=1, max_value=50),
                    st.integers(min_value=2**63 + 1, max_value=2**64 - 1),
                    st.sampled_from([2**63, 3 * 2**62, 2**64 - 1]),
                    st.integers(min_value=1, max_value=2**64 - 1))


@given(_seeds, st.lists(_bounds, max_size=12))
def test_below_equals_the_scalar_draws(seed, bounds):
    gen, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    drawn = gen.below(np.array(bounds, dtype=np.uint64))
    assert drawn.dtype == np.uint64
    assert drawn.tolist() == [ref.below(b) for b in bounds]
    assert gen.state == ref.state


def test_below_redraws_after_each_rejection():
    # 2^63 + 1 rejects about half of all draws: after each rejection the
    # stream resumes just after the rejected draw, as the scalar loop does
    for seed in range(20):
        bounds = [2**63 + 1] * 30
        gen, ref = SplitMix64(seed), ScalarSplitMix64(seed)
        assert gen.below(bounds).tolist() == [ref.below(b) for b in bounds]
        assert gen.state == ref.state
        assert gen.state != (seed + 30 * 0x9E3779B97F4A7C15) % 2**64


def _seed_whose_first_draw_is(z):
    """Invert SplitMix64's output mix: the seed whose first output is z."""
    def unshift(y, s):          # inverse of x ^= x >> s
        x, t = y, y >> s
        while t:
            x, t = x ^ t, t >> s
        return x
    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return (unshift(z, 30) - 0x9E3779B97F4A7C15) % 2**64


@pytest.mark.parametrize("bound", [3, 10**18 + 7, 2**63 + 1, 3 * 2**62 - 1, 2**64 - 1])
def test_below_accepts_up_to_the_limit_and_rejects_from_it(bound):
    # the largest multiple of the bound that fits in 64 bits, 2^64 - r, is
    # the first rejected draw; random seeds almost never reach this edge
    limit = 2**64 - 2**64 % bound
    for z in (limit - 2, limit - 1, limit, 2**64 - 1):
        seed = _seed_whose_first_draw_is(z)
        assert next(_reference_splitmix64(seed)) == z
        gen, ref = SplitMix64(seed), ScalarSplitMix64(seed)
        assert gen.below([bound, bound]).tolist() == [ref.below(bound), ref.below(bound)]
        assert gen.state == ref.state


@given(_seeds, st.integers(min_value=0, max_value=300))
def test_permutation_equals_the_scalar_shuffle(seed, n):
    gen, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    items = list(range(n))
    ref.shuffle(items)
    assert gen.permutation(n).tolist() == items
    assert gen.state == ref.state


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, "split") == derive_seed(0, "split")
    assert derive_seed(0, "split") != derive_seed(0, "synthetic")
    assert derive_seed(0, "split") != derive_seed(1, "split")
    assert 0 <= derive_seed(12345, "anything") < 2**64


@given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=30))
def test_derive_seed_range(root, label):
    assert 0 <= derive_seed(root, label) < 2**64


def test_derive_seed_label_separator_not_ambiguous():
    # ("a", "bc") and ("ab", "c") style collisions must not happen
    assert derive_seed(1, "a:b") != derive_seed(1, "a")
    assert derive_seed(10, "xy") != derive_seed(10, "x")
