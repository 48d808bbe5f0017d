import numpy as np
import pytest

from bsvie import sample_ensemble
from bsvie.ensemble import _path_normals


def _fresh_stream_normals(seed, first, count, n):
    """Reference sampler: a new Philox and Generator for every path."""
    out = np.empty((count, n))
    hi = (int(seed) & ((1 << 64) - 1)) << 64
    for p in range(count):
        out[p] = np.random.Generator(np.random.Philox(key=hi + first + p)).standard_normal(n)
    return out


def test_values_are_cumulative_increments(unit_ensemble):
    ens = unit_ensemble
    assert ens.values.shape == (ens.n_paths, len(ens.grid))
    np.testing.assert_array_equal(ens.values[:, 0], 0.0)
    np.testing.assert_allclose(
        ens.values[:, 1:], np.cumsum(ens.increments, axis=1), rtol=0, atol=1e-15
    )


def test_same_seed_reproduces_bitwise(unit_grid):
    a = sample_ensemble(unit_grid, 256, seed=9)
    b = sample_ensemble(unit_grid, 256, seed=9)
    np.testing.assert_array_equal(a.increments, b.increments)
    np.testing.assert_array_equal(a.values, b.values)


def test_different_seed_differs(unit_grid):
    a = sample_ensemble(unit_grid, 256, seed=9)
    b = sample_ensemble(unit_grid, 256, seed=10)
    assert not np.array_equal(a.increments, b.increments)


def test_growing_path_count_preserves_existing_paths(unit_grid):
    small = sample_ensemble(unit_grid, 128, seed=3)
    large = sample_ensemble(unit_grid, 512, seed=3)
    np.testing.assert_array_equal(large.increments[:128], small.increments)


@pytest.mark.parametrize(
    "seed, first, count, n",
    [
        (1, 0, 200, 64),
        (2**63 + 7, 0, 50, 16),  # the key's high word has its top bit set
        (2**64 + 3, 0, 50, 16),  # masked to 3
        (12345678901, 5, 40, 16),
        (1, 9, 1, 16),
        (1, 0, 30, 1),
    ],
)
def test_reused_stream_draws_the_bytes_of_fresh_streams(seed, first, count, n):
    assert np.array_equal(
        _path_normals(seed, first, count, n), _fresh_stream_normals(seed, first, count, n)
    )


def test_growing_path_count_keeps_the_reference_paths():
    small = _path_normals(1, 0, 64, 16)
    large = _path_normals(1, 0, 256, 16)
    assert np.array_equal(large[:64], small)
    assert np.array_equal(large, _fresh_stream_normals(1, 0, 256, 16))


def test_terminal_statistics(unit_grid):
    ens = sample_ensemble(unit_grid, 65536, seed=7)
    terminal = ens.values[:, -1]
    span = unit_grid.horizon - unit_grid.start
    sigma = np.sqrt(span / ens.n_paths)
    assert abs(terminal.mean()) < 4.0 * sigma
    assert terminal.var() == pytest.approx(span, rel=0.05)


def test_increment_variance_matches_step(unit_ensemble):
    ens = unit_ensemble
    var = ens.increments.var(axis=0)
    np.testing.assert_allclose(var, ens.grid.dt, rtol=0.15)


def test_path_count_validation(unit_grid):
    with pytest.raises(ValueError):
        sample_ensemble(unit_grid, 0, seed=1)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_the_key_word_are_rejected(unit_grid, seed):
    # masked into the key, -1 would draw the paths of 2^64 - 1 and 2^64 those of 0
    with pytest.raises(ValueError, match="seed"):
        sample_ensemble(unit_grid, 4, seed=seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_the_edges_of_the_key_word_sample(unit_grid, seed):
    ens = sample_ensemble(unit_grid, 4, seed=seed)
    normals = _fresh_stream_normals(seed, 0, 4, unit_grid.steps)
    assert ens.seed == seed
    assert np.array_equal(ens.increments, normals * np.sqrt(unit_grid.dt))


def test_arrays_read_only(unit_ensemble):
    with pytest.raises(ValueError):
        unit_ensemble.increments[0, 0] = 1.0
    with pytest.raises(ValueError):
        unit_ensemble.values[0, 0] = 1.0


def test_ito_sum_constant_integrand_telescopes(unit_ensemble):
    # c dW summed from node i is c (W_N - W_i); summation order costs a
    # few ulps against the cumulative values
    ens = unit_ensemble
    c, first = 2.5, 4
    lhs = np.sum(c * ens.increments[:, first:], axis=1)
    rhs = c * (ens.values[:, -1] - ens.values[:, first])
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13)


def test_ito_sum_of_the_path_is_half_square_rule(unit_ensemble):
    ens = unit_ensemble
    lhs = np.sum(ens.values[:, :-1] * ens.increments, axis=1)
    rhs = 0.5 * (ens.values[:, -1] ** 2 - np.sum(ens.increments**2, axis=1))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13)
