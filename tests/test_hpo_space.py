import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autoduct.errors import OutOfDomain
from autoduct.hpo.sobol import sobol_points
from autoduct.hpo.space import (SearchSpace, TrialConfig, canonicalize, decode,
                                default_space, encode)
from autoduct.neural_net import ActivationKind
from autoduct.rng import derive_seed

SPACE = default_space()


def _configs():
    return st.builds(
        TrialConfig,
        learning_rate=st.floats(1e-4, 1e-2),
        weight_decay=st.floats(1e-4, 1e-2),
        dropout_rate=st.floats(0.0, 0.3),
        batch_size=st.sampled_from(SPACE.batch_sizes),
        hidden_layers=st.sampled_from(SPACE.hidden_layers),
        hidden_units=st.sampled_from(SPACE.hidden_units),
        activation=st.sampled_from(SPACE.activations),
    )


def test_default_space_dimensions():
    assert SPACE.encoded_dim == 21
    assert len(SPACE.batch_sizes) == 3
    assert len(SPACE.hidden_layers) == 2
    assert len(SPACE.hidden_units) == 7
    assert len(SPACE.activations) == 6


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(learning_rate=(1e-2, 1e-4))
    with pytest.raises(ValueError):
        SearchSpace(learning_rate=(0.0, 1e-2))
    with pytest.raises(ValueError):
        SearchSpace(batch_sizes=())


def test_encode_midpoint_worked_example():
    # log-scale midpoint of [1e-4, 1e-2] is 1e-3
    tc = TrialConfig(1e-3, 1e-3, 0.15, 128, 6, 8, ActivationKind.RELU)
    point = encode(tc, SPACE)
    assert point.shape == (SPACE.encoded_dim,)
    assert point[0] == pytest.approx(0.5, abs=1e-12)
    assert point[1] == pytest.approx(0.5, abs=1e-12)
    assert point[2] == pytest.approx(0.5, abs=1e-12)
    back = decode(point, SPACE)
    assert back.learning_rate == pytest.approx(1e-3, rel=1e-12)


def test_encode_one_hot_blocks():
    tc = TrialConfig(1e-3, 1e-3, 0.0, 256, 7, 24, ActivationKind.GELU)
    coords = encode(tc, SPACE)
    assert coords[3:6].tolist() == [0.0, 1.0, 0.0]        # batch 256
    assert coords[6:8].tolist() == [0.0, 1.0]             # 7 layers
    assert coords[8:15].tolist() == [0, 0, 1, 0, 0, 0, 0]  # 24 units
    assert coords[15:21].tolist() == [0, 0, 1, 0, 0, 0]   # gelu
    assert coords.sum() == pytest.approx(4.0 + coords[:3].sum())


@given(_configs())
@settings(max_examples=80, deadline=None)
def test_encode_decode_round_trip(tc):
    # the row lies in the cube and each categorical block is exactly one-hot
    row = encode(tc, SPACE)
    assert np.all((row >= 0.0) & (row <= 1.0))
    for offset, choices in SPACE._blocks():
        block = sorted(row[offset:offset + len(choices)])
        assert block == [0.0] * (len(choices) - 1) + [1.0]
    back = decode(row, SPACE)
    assert back.batch_size == tc.batch_size
    assert back.hidden_layers == tc.hidden_layers
    assert back.hidden_units == tc.hidden_units
    assert back.activation == tc.activation
    assert back.learning_rate == pytest.approx(tc.learning_rate, rel=1e-9)
    assert back.weight_decay == pytest.approx(tc.weight_decay, rel=1e-9)
    assert back.dropout_rate == pytest.approx(tc.dropout_rate, abs=1e-12)


def test_decode_raw_point_argmax_tie_goes_low():
    coords = np.zeros(21)
    coords[0:3] = 0.5
    coords[3:6] = 0.4          # batch block all equal -> first choice
    coords[6:8] = [0.3, 0.3]
    coords[8:15] = 1.0 / 7
    coords[15:21] = [0.1, 0.9, 0.1, 0.9, 0.1, 0.1]   # tie between 1 and 3
    tc = decode(coords, SPACE)
    assert tc.batch_size == SPACE.batch_sizes[0]
    assert tc.hidden_layers == SPACE.hidden_layers[0]
    assert tc.hidden_units == SPACE.hidden_units[0]
    assert tc.activation == SPACE.activations[1]


def test_encode_out_of_domain():
    good = dict(weight_decay=1e-3, dropout_rate=0.1, batch_size=128,
                hidden_layers=6, hidden_units=16, activation=ActivationKind.RELU)
    with pytest.raises(OutOfDomain):
        encode(TrialConfig(learning_rate=2e-2, **good), SPACE)
    with pytest.raises(OutOfDomain):
        encode(TrialConfig(learning_rate=1e-3, **{**good, "batch_size": 100}), SPACE)
    with pytest.raises(OutOfDomain):
        encode(TrialConfig(learning_rate=1e-3, **{**good, "hidden_units": 5}), SPACE)


def test_decode_rejects_bad_points():
    with pytest.raises(OutOfDomain):
        decode(np.zeros(20), SPACE)
    bad = np.zeros(21)
    bad[0] = 1.5
    with pytest.raises(OutOfDomain):
        decode(bad, SPACE)


def test_trial_config_origin_gate():
    with pytest.raises(ValueError):
        TrialConfig(1e-3, 1e-3, 0.1, 128, 6, 16, ActivationKind.RELU,
                    origin="random")


def test_trial_config_dict_round_trip():
    tc = TrialConfig(2e-3, 5e-4, 0.2, 512, 7, 96, ActivationKind.SELU,
                     trial_id=4, run_id=2, origin="bo")
    assert TrialConfig.from_dict(tc.to_dict()) == tc


def test_assignment_drops_bookkeeping():
    a = TrialConfig(1e-3, 1e-3, 0.1, 128, 6, 16, ActivationKind.RELU,
                    trial_id=1, run_id=0)
    b = TrialConfig(1e-3, 1e-3, 0.1, 128, 6, 16, ActivationKind.RELU,
                    trial_id=9, run_id=3, origin="bo")
    assert a.assignment() == b.assignment()
    assert len(a.assignment()) == 7


def _row_wise_canonical(raw, space):
    return np.array([encode(decode(row, space), space) for row in raw])


def test_canonicalize_matches_row_wise_round_trip():
    raw = sobol_points(SPACE.encoded_dim, 2048,
                       shift_seed=derive_seed(4, "propose-candidates"))
    # hand-made rows: u = 0 everywhere, all-equal weights (every block a
    # tie), a tie between two later choices, and u just below 1
    tied = np.full(SPACE.encoded_dim, 0.5)
    late_tie = np.zeros(SPACE.encoded_dim)
    late_tie[[4, 5, 9, 10, 17, 18]] = 0.75
    raw = np.vstack([raw, np.zeros(SPACE.encoded_dim), tied, late_tie,
                     np.full(SPACE.encoded_dim, 1.0 - 2.0**-32)])
    got = canonicalize(raw, SPACE)
    want = _row_wise_canonical(raw, SPACE)
    # one-hot columns are exact; the continuous round trip runs through
    # numpy's pow/log instead of the C library's, each within an ulp or so
    np.testing.assert_array_equal(got[:, 3:], want[:, 3:])
    np.testing.assert_allclose(got[:, :3], want[:, :3], rtol=0.0,
                               atol=4 * np.finfo(np.float64).eps)
    assert np.all(got[-4, :3] == 0.0)
    assert got[-3, [3, 6, 8, 15]].tolist() == [1.0, 1.0, 1.0, 1.0]
    assert got[-2, [4, 6, 9, 17]].tolist() == [1.0, 1.0, 1.0, 1.0]


def test_canonicalize_other_space():
    space = SearchSpace(batch_sizes=(64,), hidden_units=(8, 16))
    raw = sobol_points(space.encoded_dim, 64, shift_seed=11)
    got = canonicalize(raw, space)
    want = _row_wise_canonical(raw, space)
    np.testing.assert_array_equal(got[:, 3:], want[:, 3:])
    np.testing.assert_allclose(got[:, :3], want[:, :3], rtol=0.0,
                               atol=4 * np.finfo(np.float64).eps)


def test_canonicalize_rejects_bad_points():
    good = np.full((2, SPACE.encoded_dim), 0.5)
    assert canonicalize(good, SPACE).shape == good.shape
    with pytest.raises(OutOfDomain):
        canonicalize(good[0], SPACE)                  # one row, not a matrix
    with pytest.raises(OutOfDomain):
        canonicalize(good[:, :-1], SPACE)
    for value in (-0.1, 1.5, np.nan):
        bad = good.copy()
        bad[1, 7] = value
        with pytest.raises(OutOfDomain):
            canonicalize(bad, SPACE)
