import math

import numpy as np
import pytest

from rulemix import FitnessParams, combine, fit_submodel, pseudo_accuracy, solution_objectives
from rulemix.errors import ConfigError


class TestPseudoAccuracy:
    def test_zero_error_gives_one(self):
        assert pseudo_accuracy(0.0, beta=2.0) == 1.0

    def test_default_beta_half_point(self):
        # exp(-2 * ln(2)/2) = 1/2, exact in binary floating point
        mse = math.log(2.0) / 2.0
        assert pseudo_accuracy(mse, beta=2.0) == 0.5

    def test_beta_one(self):
        # frozen: exp(-1)
        assert pseudo_accuracy(1.0, beta=1.0) == 0.36787944117144233

    def test_monotone_decreasing_in_mse(self):
        values = [pseudo_accuracy(m, beta=2.0) for m in (0.0, 0.1, 0.5, 1.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_mse_rejected(self):
        with pytest.raises(ValueError):
            pseudo_accuracy(-0.25, beta=2.0)


class TestVolumeShare:
    """The share of the scaled box a rule covers, its second fitness
    objective, as fit_submodel stamps it on the rule."""

    @staticmethod
    def volume_share(lower, upper, point):
        return fit_submodel(np.array(lower), np.array(upper), np.array([point]), np.array([1.0])).volume

    def test_full_cube_is_one(self):
        assert self.volume_share([-1.0] * 3, [1.0] * 3, [0.0] * 3) == 1.0

    def test_half_width_cube(self):
        # per-dim share 0.25, three dims: 0.25**3
        assert self.volume_share([-0.25] * 3, [0.25] * 3, [0.0] * 3) == 0.015625

    def test_point_interval_is_zero(self):
        assert self.volume_share([0.3, -0.2], [0.3, 0.5], [0.3, 0.0]) == 0.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            self.volume_share([0.5], [-0.5], [0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self.volume_share([], [], [0.0])


class TestCombine:
    def test_frozen_value(self):
        # frozen: (1 + 0.05**2) * 0.8 * 0.2 / (0.05**2 * 0.8 + 0.2)
        assert combine(0.8, 0.2, alpha=0.05) == 0.7940594059405941

    def test_both_zero_defined_as_zero(self):
        assert combine(0.0, 0.0, alpha=0.05) == 0.0

    def test_perfect_objectives(self):
        assert combine(1.0, 1.0, alpha=0.05) == pytest.approx(1.0, abs=1e-12)

    def test_small_alpha_tracks_first_objective(self):
        # as alpha -> 0 the blend approaches o1 (for o2 > 0)
        assert combine(0.9, 0.3, alpha=1e-8) == pytest.approx(0.9, abs=1e-6)

    def test_alpha_one_is_harmonic_like_symmetry(self):
        assert combine(0.4, 0.7, alpha=1.0) == pytest.approx(combine(0.7, 0.4, alpha=1.0), abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            combine(1.2, 0.5, alpha=0.05)
        with pytest.raises(ValueError):
            combine(0.5, -0.1, alpha=0.05)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            combine(0.5, 0.5, alpha=0.0)

    def test_bounded_by_unit_interval(self):
        gen = np.random.default_rng(99)
        for _ in range(200):
            o1, o2 = gen.random(2)
            v = combine(float(o1), float(o2), alpha=0.05)
            assert 0.0 <= v <= 1.0


class TestSolutionObjectives:
    def test_values(self):
        pacc, share = solution_objectives(in_sample_mse=0.1338, complexity=3, pool_size=128, beta=1.0)
        # frozen: exp(-0.1338), 1 - 3/128
        assert pacc == 0.8747650001092222
        assert share == 0.9765625

    def test_full_genome_share_zero(self):
        _, share = solution_objectives(in_sample_mse=0.0, complexity=16, pool_size=16, beta=2.0)
        assert share == 0.0

    def test_complexity_bounds(self):
        with pytest.raises(ValueError):
            solution_objectives(in_sample_mse=0.0, complexity=5, pool_size=4, beta=2.0)
        with pytest.raises(ValueError):
            solution_objectives(in_sample_mse=0.0, complexity=-1, pool_size=4, beta=2.0)


class TestFitnessParams:
    def test_defaults(self):
        params = FitnessParams()
        assert params.alpha == 0.05
        assert params.beta == 2.0

    def test_invalid_alpha(self):
        with pytest.raises(ConfigError):
            FitnessParams(alpha=0.0)
        for bad in (True, "0.05", math.inf, math.nan):
            with pytest.raises(ConfigError, match="^alpha must be a finite positive number"):
                FitnessParams(alpha=bad)

    def test_invalid_beta(self):
        with pytest.raises(ConfigError):
            FitnessParams(beta=-1.0)
