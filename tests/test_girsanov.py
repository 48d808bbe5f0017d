from dataclasses import replace

import numpy as np
import pytest

from bsvie import (
    DriftError,
    DriftSpec,
    Driver,
    PathEnsemble,
    build_grid,
    girsanov_selftest,
    sample_ensemble,
    tilt,
)


@pytest.fixture(scope="module")
def ensemble():
    return sample_ensemble(build_grid(1.0, 16), 20000, seed=13)


def test_zero_drift_is_the_identity(ensemble):
    tilted = tilt(ensemble, DriftSpec())
    np.testing.assert_array_equal(tilted.state, ensemble.values)
    np.testing.assert_array_equal(tilted.increments, ensemble.increments)
    np.testing.assert_array_equal(tilted.weights, 1.0)


def test_constant_drift_shifts_values_by_time(ensemble):
    tilted = tilt(ensemble, DriftSpec(r1=1.0))
    nodes = ensemble.grid.nodes
    np.testing.assert_allclose(
        tilted.state - ensemble.values,
        np.broadcast_to(nodes, (ensemble.n_paths, len(nodes))),
        rtol=0,
        atol=1e-14,
    )
    np.testing.assert_allclose(
        tilted.increments - ensemble.increments,
        ensemble.grid.dt,
        rtol=0,
        atol=1e-15,
    )


def test_rate_split_is_bitwise_irrelevant(ensemble):
    combined = tilt(ensemble, DriftSpec(r1=1.0))
    split = tilt(ensemble, DriftSpec(r1=0.25, r2=0.75))
    np.testing.assert_array_equal(combined.weights, split.weights)
    np.testing.assert_array_equal(combined.state, split.state)


def test_negated_rate_values(ensemble):
    spec = DriftSpec(r1="s^2", r2=0.3)
    grid = ensemble.grid
    np.testing.assert_array_equal(
        spec.negated().rate_values(grid), -spec.rate_values(grid)
    )


def test_drift_integral_uses_trapezoid_rule(ensemble):
    # the shift of the driver is the cumulative drift integral, which the
    # trapezoid rule takes exactly for a linear rate
    tilted = tilt(ensemble, DriftSpec(r1="s"))
    nodes = ensemble.grid.nodes
    np.testing.assert_allclose(
        tilted.state - ensemble.values,
        np.broadcast_to(nodes**2 / 2.0, (ensemble.n_paths, len(nodes))),
        rtol=0,
        atol=1e-15,
    )


def test_rate_expression_validation(ensemble):
    with pytest.raises(DriftError):
        DriftSpec(r1="y").rate_values(ensemble.grid)
    with pytest.raises(DriftError):
        DriftSpec(r1="1/s").rate_values(ensemble.grid)  # diverges at s = 0
    with pytest.raises(DriftError, match="non-finite at node 0"):
        DriftSpec(r1="T/T1").rate_values(ensemble.grid)  # T1 = 0: inf, not ZeroDivisionError


def test_selftest_passes_for_correct_density(ensemble):
    tilted = tilt(ensemble, DriftSpec(r1=1.0))
    report = girsanov_selftest(tilted)
    assert report.passed
    assert report.max_score <= report.threshold == 4.0
    assert report.mean_scores.shape == (ensemble.grid.steps,)
    assert abs(np.mean(tilted.weights) - 1.0) < 0.05


def test_selftest_catches_flipped_density_sign(ensemble):
    good = tilt(ensemble, DriftSpec(r1=1.0))
    flipped = tilt(ensemble, DriftSpec(r1=-1.0))
    report = girsanov_selftest(replace(good, weights=flipped.weights))
    assert not report.passed
    assert report.max_score > 10.0


def test_weighted_mean_of_tilted_terminal_vanishes(ensemble):
    # the whole point of the density: under the weights, the shifted
    # path is again centred
    tilted = tilt(ensemble, DriftSpec(r1=1.0))
    w = tilted.weights / np.mean(tilted.weights)
    terminal = tilted.state[:, -1]
    mean = float(np.mean(w * terminal))
    stderr = float(np.std(w * terminal) / np.sqrt(ensemble.n_paths))
    assert abs(mean) < 4.0 * stderr
    # while the unweighted mean sits a full unit away
    assert abs(float(np.mean(terminal)) - 1.0) < 4.0 * stderr * 3.0


def test_driver_carries_tilted_arrays(ensemble):
    # the tilt is itself the sweep driver, over the ensemble it tilts
    tilted = tilt(ensemble, DriftSpec(r1=0.5))
    assert isinstance(tilted, Driver)
    assert tilted.ensemble is ensemble
    assert tilted.grid is ensemble.grid
    assert tilted.state.shape == ensemble.values.shape
    assert tilted.increments.shape == ensemble.increments.shape
    assert tilted.weights.shape == (ensemble.n_paths,)


def test_selftest_rejects_an_unweighted_driver(ensemble):
    with pytest.raises(ValueError, match="no weights"):
        girsanov_selftest(Driver.from_ensemble(ensemble))


def test_tilted_arrays_read_only(ensemble):
    tilted = tilt(ensemble, DriftSpec(r1=0.5))
    with pytest.raises(ValueError):
        tilted.weights[0] = 2.0
    with pytest.raises(ValueError):
        tilted.state[0, 0] = 2.0


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1.0])
def test_selftest_rejects_a_threshold_not_positive_and_finite(ensemble, threshold):
    tilted = tilt(ensemble, DriftSpec(r1=0.5))
    with pytest.raises(ValueError, match=f"threshold must be positive and finite, got {threshold}"):
        girsanov_selftest(tilted, threshold=threshold)


def test_weights_and_scores_keep_their_bits_on_a_path_major_copy(ensemble):
    # BLAS rounds the tilt's and the self-test's matrix-vector products by
    # the operand's layout; both run path-major, so the node-major
    # ensemble and a path-major copy of it give the same bytes
    increments = ensemble.increments.copy(order="C")
    values = ensemble.values.copy(order="C")
    path_major = PathEnsemble(ensemble.grid, ensemble.n_paths, ensemble.seed,
                              increments, values)
    drift = DriftSpec(r1=0.4, r2="s^2")
    node_tilt, path_tilt = tilt(ensemble, drift), tilt(path_major, drift)
    assert node_tilt.weights.tobytes() == path_tilt.weights.tobytes()
    node_test, path_test = girsanov_selftest(node_tilt), girsanov_selftest(path_tilt)
    assert node_test.mean_scores.tobytes() == path_test.mean_scores.tobytes()
    assert node_test.var_scores.tobytes() == path_test.var_scores.tobytes()
    assert node_test.weight_mean_score == path_test.weight_mean_score
    # neither product wrote into the caller's arrays
    assert np.array_equal(increments, ensemble.increments)
    assert np.array_equal(values, ensemble.values)
