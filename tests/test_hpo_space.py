from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autoduct.errors import OutOfDomain
from autoduct.hpo.sobol import sobol_points
from autoduct.hpo.space import (ACTIVATIONS, BATCH_SIZES, ENCODED_DIM, HIDDEN_LAYERS,
                                HIDDEN_UNITS, TrialConfig, canonicalize, decode, encode)
from autoduct.neural_net import ActivationKind
from autoduct.rng import derive_seed

CATEGORICAL = (BATCH_SIZES, HIDDEN_LAYERS, HIDDEN_UNITS, ACTIVATIONS)
BLOCK_OFFSETS = (3, 6, 8, 15)


def _configs():
    return st.builds(
        TrialConfig,
        learning_rate=st.floats(1e-4, 1e-2),
        weight_decay=st.floats(1e-4, 1e-2),
        dropout_rate=st.floats(0.0, 0.3),
        batch_size=st.sampled_from(BATCH_SIZES),
        hidden_layers=st.sampled_from(HIDDEN_LAYERS),
        hidden_units=st.sampled_from(HIDDEN_UNITS),
        activation=st.sampled_from(ACTIVATIONS),
    )


def test_every_categorical_corner():
    # all 3 x 2 x 7 x 6 = 252 corners: each is one-hot at the pinned block
    # offsets, canonical already, and decodes to the same assignment
    assert ENCODED_DIM == 21
    corners = list(product(*CATEGORICAL))
    assert len(corners) == 252
    for corner in corners:
        tc = TrialConfig(1e-3, 1e-3, 0.15, *corner)
        row = encode(tc)
        hot = [offset + choices.index(value)
               for offset, choices, value in zip(BLOCK_OFFSETS, CATEGORICAL, corner)]
        want = np.zeros(ENCODED_DIM)
        want[:3] = row[:3]
        want[hot] = 1.0
        assert np.array_equal(row, want)
        assert np.array_equal(canonicalize(row[None]), row[None])
        assert decode(row).assignment() == tc.assignment()


def test_encode_midpoint_worked_example():
    # log-scale midpoint of [1e-4, 1e-2] is 1e-3
    tc = TrialConfig(1e-3, 1e-3, 0.15, 128, 6, 8, ActivationKind.RELU)
    point = encode(tc)
    assert point.shape == (ENCODED_DIM,)
    assert point[0] == pytest.approx(0.5, abs=1e-12)
    assert point[1] == pytest.approx(0.5, abs=1e-12)
    assert point[2] == pytest.approx(0.5, abs=1e-12)
    back = decode(point)
    assert back.learning_rate == pytest.approx(1e-3, rel=1e-12)


def test_encode_one_hot_blocks():
    tc = TrialConfig(1e-3, 1e-3, 0.0, 256, 7, 24, ActivationKind.GELU)
    coords = encode(tc)
    assert coords[3:6].tolist() == [0.0, 1.0, 0.0]        # batch 256
    assert coords[6:8].tolist() == [0.0, 1.0]             # 7 layers
    assert coords[8:15].tolist() == [0, 0, 1, 0, 0, 0, 0]  # 24 units
    assert coords[15:21].tolist() == [0, 0, 1, 0, 0, 0]   # gelu
    assert coords.sum() == pytest.approx(4.0 + coords[:3].sum())


@given(_configs())
@settings(max_examples=80, deadline=None)
def test_encode_decode_round_trip(tc):
    # the row lies in the cube and each categorical block is exactly one-hot
    row = encode(tc)
    assert np.all((row >= 0.0) & (row <= 1.0))
    for offset, choices in zip(BLOCK_OFFSETS, CATEGORICAL):
        block = sorted(row[offset:offset + len(choices)])
        assert block == [0.0] * (len(choices) - 1) + [1.0]
    back = decode(row)
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
    tc = decode(coords)
    assert tc.batch_size == BATCH_SIZES[0]
    assert tc.hidden_layers == HIDDEN_LAYERS[0]
    assert tc.hidden_units == HIDDEN_UNITS[0]
    assert tc.activation == ACTIVATIONS[1]


def test_encode_out_of_domain():
    good = dict(weight_decay=1e-3, dropout_rate=0.1, batch_size=128,
                hidden_layers=6, hidden_units=16, activation=ActivationKind.RELU)
    with pytest.raises(OutOfDomain):
        encode(TrialConfig(learning_rate=2e-2, **good))
    with pytest.raises(OutOfDomain):
        encode(TrialConfig(learning_rate=1e-3, **{**good, "batch_size": 100}))
    with pytest.raises(OutOfDomain):
        encode(TrialConfig(learning_rate=1e-3, **{**good, "hidden_units": 5}))


def test_decode_rejects_bad_points():
    with pytest.raises(OutOfDomain):
        decode(np.zeros(20))
    bad = np.zeros(21)
    bad[0] = 1.5
    with pytest.raises(OutOfDomain):
        decode(bad)


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


def _row_wise_canonical(raw):
    return np.array([encode(decode(row)) for row in raw])


def test_canonicalize_matches_row_wise_round_trip():
    raw = sobol_points(ENCODED_DIM, 2048,
                       shift_seed=derive_seed(4, "propose-candidates"))
    # hand-made rows: u = 0 everywhere, all-equal weights (every block a
    # tie), a tie between two later choices, and u just below 1
    tied = np.full(ENCODED_DIM, 0.5)
    late_tie = np.zeros(ENCODED_DIM)
    late_tie[[4, 5, 9, 10, 17, 18]] = 0.75
    raw = np.vstack([raw, np.zeros(ENCODED_DIM), tied, late_tie,
                     np.full(ENCODED_DIM, 1.0 - 2.0**-32)])
    got = canonicalize(raw)
    want = _row_wise_canonical(raw)
    # one-hot columns are exact; the continuous round trip runs through
    # numpy's pow/log instead of the C library's, each within an ulp or so
    np.testing.assert_array_equal(got[:, 3:], want[:, 3:])
    np.testing.assert_allclose(got[:, :3], want[:, :3], rtol=0.0,
                               atol=4 * np.finfo(np.float64).eps)
    assert np.all(got[-4, :3] == 0.0)
    assert got[-3, [3, 6, 8, 15]].tolist() == [1.0, 1.0, 1.0, 1.0]
    assert got[-2, [4, 6, 9, 17]].tolist() == [1.0, 1.0, 1.0, 1.0]


def test_canonicalize_rejects_bad_points():
    good = np.full((2, ENCODED_DIM), 0.5)
    assert canonicalize(good).shape == good.shape
    with pytest.raises(OutOfDomain):
        canonicalize(good[0])                         # one row, not a matrix
    with pytest.raises(OutOfDomain):
        canonicalize(good[:, :-1])
    for value in (-0.1, 1.5, np.nan):
        bad = good.copy()
        bad[1, 7] = value
        with pytest.raises(OutOfDomain):
            canonicalize(bad)
