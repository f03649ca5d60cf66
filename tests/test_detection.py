import math

import numpy as np
import pytest

from cogsep import (
    ConstellationSpec,
    Occupancy,
    detect_threshold,
    map_detect_numeric,
)
from cogsep.detection import DeepFadeError

MODULATIONS = [(2, 1), (4, 1), (8, 1), (2, 2), (8, 2)]


class TestThresholdDetector:
    def test_exact_points_zero_noise(self):
        for mi, mq in MODULATIONS:
            spec = ConstellationSpec(mi, mq, 1.0)
            for n_sent, s_n in enumerate(spec.inphase_levels()):
                for q_sent, s_q in enumerate(spec.quadrature_levels()):
                    for mag in (0.3, 1.0, 2.5):
                        n, q = detect_threshold(spec, complex(s_n, s_q) * mag, mag)
                        assert (n, q) == (n_sent, q_sent)

    def test_two_pam_sign_threshold(self):
        spec = ConstellationSpec(2, 1, 1.0)
        assert detect_threshold(spec, -0.01 + 0j, 0.5) == (0, 0)
        assert detect_threshold(spec, +0.01 + 0j, 0.5) == (1, 0)

    def test_midpoint_tie_goes_to_lower_index(self):
        for mi, mq in MODULATIONS:
            spec = ConstellationSpec(mi, mq, 1.0)
            d = spec.min_distance()
            levels = spec.inphase_levels()
            for n in range(mi - 1):
                boundary = complex(levels[n] + d / 2.0, levels[0] if mq == 1 else 0.0)
                got_n, _ = detect_threshold(spec, boundary, 1.0)
                assert got_n == n

    def test_far_samples_clamp_to_extremes(self):
        spec = ConstellationSpec(8, 2, 1.0)
        n, q = detect_threshold(spec, complex(1e6, -1e6), 1.0)
        assert (n, q) == (7, 0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        spec = ConstellationSpec(8, 2, 1.0)
        for _ in range(200):
            z = complex(rng.normal(0, 2), rng.normal(0, 2))
            mag = rng.uniform(0.05, 3.0)
            c = rng.uniform(0.01, 50.0)
            assert detect_threshold(spec, z, mag) == detect_threshold(spec, c * z, c * mag)

    def test_partition_every_sample_maps_once(self):
        rng = np.random.default_rng(6)
        spec = ConstellationSpec(4, 2, 1.0)
        z = rng.normal(0, 5, 1000) + 1j * rng.normal(0, 5, 1000)
        sent = z.copy()
        n, q = detect_threshold(spec, z, 1.0)
        assert n.shape == (1000,) and q.shape == (1000,)
        assert np.all((0 <= n) & (n < 4)) and np.all((0 <= q) & (q < 2))
        assert np.array_equal(z, sent)  # the in-place axis rule works on a copy

    def test_deep_fade_raises(self):
        with pytest.raises(DeepFadeError):
            detect_threshold(ConstellationSpec(2, 2, 1.0), 1 + 1j, 0.0)

    @pytest.mark.parametrize("sample,magnitude", [
        (0.3 + 0.2j, math.nan),
        (0.3 + 0.2j, math.inf),
        (complex(0.3, math.nan), 1.0),
        (complex(math.inf, 0.2), 1.0),
        (np.array([0.3 + 0.2j, complex(math.nan, 0.0)]), np.array([1.0, 1.0])),
    ], ids=["nan-magnitude", "inf-magnitude", "nan-sample", "inf-sample", "nan-in-array"])
    def test_nonfinite_input_rejected(self, sample, magnitude):
        # a NaN axis used to come back as index -2**63
        with pytest.raises(ValueError, match="requires finite samples and magnitudes"):
            detect_threshold(ConstellationSpec(2, 2, 1.0), sample, magnitude)


class TestMapDetector:
    def test_perfect_sensing_idle_is_nearest_neighbor(self, mixture):
        from cogsep import SensingModel
        model = SensingModel(1.0, 0.0, 0.4)
        spec = ConstellationSpec(4, 2, 1.0)
        rng = np.random.default_rng(7)
        z = rng.normal(0, 1.5, 3000) + 1j * rng.normal(0, 1.5, 3000)
        mag = rng.uniform(0.2, 2.0, 3000)
        n1, q1 = detect_threshold(spec, z, mag)
        n2, q2 = map_detect_numeric(spec, spec, z, mag, Occupancy.IDLE, model,
                                    0.01, mixture)
        assert np.array_equal(n1, n2) and np.array_equal(q1, q2)

    @pytest.mark.parametrize("mi,mq", MODULATIONS)
    @pytest.mark.parametrize("decision", [Occupancy.IDLE, Occupancy.BUSY])
    def test_equivalence_random_sweep(self, mi, mq, decision, sensing, mixture):
        spec_idle = ConstellationSpec(mi, mq, 1.2)
        spec_busy = ConstellationSpec(mi, mq, 0.3)
        spec = spec_busy if decision == Occupancy.BUSY else spec_idle
        rng = np.random.default_rng(mi * 100 + mq * 10 + decision)
        n_samples = 20_000
        z = rng.normal(0, 1.5, n_samples) + 1j * rng.normal(0, 1.5, n_samples)
        mag = rng.rayleigh(math.sqrt(0.5), n_samples) + 1e-6
        n1, q1 = detect_threshold(spec, z, mag)
        n2, q2 = map_detect_numeric(spec_idle, spec_busy, z, mag, decision,
                                    sensing, 0.01, mixture)
        assert np.array_equal(n1, n2)
        assert np.array_equal(q1, q2)

    @pytest.mark.parametrize("noise_variance", [0.0, -0.01, math.nan, math.inf])
    def test_noise_variance_positive_and_finite(self, sensing, mixture, noise_variance):
        spec = ConstellationSpec(2, 2, 1.0)
        with pytest.raises(ValueError, match="noise_variance must be positive and finite"):
            map_detect_numeric(spec, spec, 0.3 + 0.2j, 1.0, Occupancy.IDLE,
                               sensing, noise_variance, mixture)

    @pytest.mark.parametrize("sample,magnitude,error,message", [
        (0.3 + 0.2j, math.nan, ValueError, "finite"),
        (0.3 + 0.2j, math.inf, ValueError, "finite"),
        (complex(math.nan, 0.2), 1.0, ValueError, "finite"),
        (0.3 + 0.2j, 0.0, DeepFadeError, "magnitude > 0"),
        (0.3 + 0.2j, -1.0, DeepFadeError, "magnitude > 0"),
    ], ids=["nan-magnitude", "inf-magnitude", "nan-sample", "zero-magnitude",
            "negative-magnitude"])
    def test_invalid_sample_rejected(self, sensing, mixture, sample, magnitude, error, message):
        spec = ConstellationSpec(2, 2, 1.0)
        with pytest.raises(error, match=message):
            map_detect_numeric(spec, spec, sample, magnitude, Occupancy.IDLE,
                               sensing, 0.01, mixture)

    def test_midpoint_tie_lexicographic(self, sensing, mixture):
        spec = ConstellationSpec(2, 1, 1.0)
        n, q = map_detect_numeric(spec, spec, 0j, 1.0, Occupancy.IDLE,
                                  sensing, 0.01, mixture)
        assert (n, q) == (0, 0)
