import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risloc import ArraySpec, beamform, matched_weight, steering_vector

angles = st.floats(min_value=-89.9, max_value=89.9,
                   allow_nan=False, allow_infinity=False)


def test_matched_weight_is_scaled_steering_vector():
    pr = ArraySpec(8)
    w = matched_weight(pr, -40.0)
    np.testing.assert_allclose(w, steering_vector(pr, -40.0) / 8.0, atol=1e-12)


def test_matched_weight_single_element():
    np.testing.assert_allclose(matched_weight(ArraySpec(1), 12.0), [1.0 + 0j])


@given(theta=angles, n=st.integers(min_value=1, max_value=16))
@settings(max_examples=50, deadline=None)
def test_matched_weight_distortionless(theta, n):
    pr = ArraySpec(n)
    w = matched_weight(pr, theta)
    assert abs(np.vdot(w, steering_vector(pr, theta)) - 1.0) < 1e-10


def test_matched_weight_attenuates_other_directions():
    pr = ArraySpec(8)
    w = matched_weight(pr, 0.0)
    for theta in (-60.0, -25.0, 10.0, 45.0):
        assert abs(np.vdot(w, steering_vector(pr, theta))) < 1.0


def test_beamform_passes_look_direction_through(rng):
    pr = ArraySpec(8)
    theta = -40.0
    w = matched_weight(pr, theta)
    a = steering_vector(pr, theta)
    rows = [rng.standard_normal(10) + 1j * rng.standard_normal(10) for _ in range(3)]
    data = beamform(np.stack([np.outer(a, x) for x in rows]), w)
    assert data.n_epoch == 3 and data.n_samples == 10
    np.testing.assert_allclose(data.z, np.stack(rows), atol=1e-10)


def test_beamform_is_linear(rng):
    pr = ArraySpec(4)
    w = matched_weight(pr, 5.0)
    y = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    np.testing.assert_allclose(beamform((2.0 - 1.0j) * y[None], w).z,
                               (2.0 - 1.0j) * beamform(y[None], w).z, atol=1e-12)


def test_beamform_validates_input(rng):
    w = matched_weight(ArraySpec(4), 0.0)
    with pytest.raises(ValueError):
        beamform(np.zeros((0, 4, 5), dtype=complex), w)
    with pytest.raises(ValueError):
        beamform(np.zeros((4, 5), dtype=complex), w)  # one epoch needs y[None]
    with pytest.raises(ValueError):
        beamform(np.zeros((1, 6, 5), dtype=complex), w)
