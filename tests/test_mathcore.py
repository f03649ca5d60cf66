import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from cogsep import GaussianMixture, craig_q_numeric, gaussian_q
from cogsep.mathcore import QuadratureError, integrate


class TestGaussianQ:
    def test_symmetry_point(self):
        assert gaussian_q(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_deep_tail_effectively_zero(self):
        assert gaussian_q(40.0) < 1e-300

    def test_reference_value(self):
        # frozen from the Craig-integral oracle
        assert gaussian_q(1.0) == pytest.approx(0.158655253931457, abs=1e-12)

    def test_reflection_identity(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-6, 6, 200):
            assert gaussian_q(-x) == pytest.approx(1.0 - gaussian_q(x), abs=1e-14)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 8.0, 801)
        values = gaussian_q(grid)
        assert np.all(np.diff(values) < 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            gaussian_q(float("nan"))
        with pytest.raises(ValueError):
            gaussian_q(np.array([0.0, np.inf]))

    def test_array_shape(self):
        out = gaussian_q(np.zeros((3, 2)))
        assert out.shape == (3, 2)
        assert np.all(out == 0.5)


class TestCraigQNumeric:
    def test_zero(self):
        assert craig_q_numeric(0.0) == pytest.approx(0.5, abs=1e-12)
        assert craig_q_numeric(0.0, squared=True) == pytest.approx(0.25, abs=1e-12)

    def test_square_cross_check(self):
        assert craig_q_numeric(1.0, squared=True) == pytest.approx(
            gaussian_q(1.0) ** 2, abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            craig_q_numeric(-0.5)

    def test_grid_agreement_with_erfc_form(self):
        for x in np.arange(0.0, 8.0 + 1e-9, 0.01):
            q = gaussian_q(float(x))
            assert abs(q - craig_q_numeric(float(x))) < 1e-9
            assert abs(q * q - craig_q_numeric(float(x), squared=True)) < 1e-9


class TestIntegrate:
    @staticmethod
    def counted(f):
        calls = []

        def wrapped(x):
            calls.append(len(x))
            return f(x)

        return wrapped, calls

    @pytest.mark.parametrize("degree", range(23))
    def test_exact_for_polynomials_up_to_degree_22(self, degree):
        """One panel, one call: K15 integrates x^k exactly for k <= 22."""
        a, b = 0.25, 1.5
        f, calls = self.counted(lambda x: x**degree)
        value, error = integrate(f, (a, b), rtol=1.0)
        assert calls == [15]
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        assert value == pytest.approx(exact, rel=2e-15, abs=0.0)
        if degree <= 13:  # G7 is exact too, so the estimate is rounding only
            assert error <= 1e-15 * exact

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_gaussian_tails_match_erfc(self, x):
        """int_x^inf e^{-t^2} dt = e^{-x^2} int_0^inf e^{-u (2x + u)} du equals
        (sqrt(pi) / 2) erfc(x) to 1e-14 relative; x^2 is exact for these x."""
        step = 1.0 / max(x, 1.0)
        breaks = np.concatenate(([0.0], step * 2.0 ** np.arange(6), [30.0]))
        value, error = integrate(lambda u: np.exp(-u * (2.0 * x + u)), breaks, rtol=1e-14)
        expected = 0.5 * math.sqrt(math.pi) * math.erfc(x)
        assert abs(math.exp(-x * x) * value - expected) <= 1e-14 * expected
        assert error <= 1e-14 * value

    def test_stops_at_absolute_tolerance(self):
        f, calls = self.counted(lambda x: 1e-20 * np.exp(-x))
        value, error = integrate(f, (0.0, 50.0), rtol=1e-12, atol=1e-12)
        assert calls == [15]
        assert error <= 1e-12

    def test_refines_only_where_needed(self):
        """A narrow peak in one of two panels: each round is one call, and
        the flat panel [1, 2] is evaluated in the first round only."""
        beyond = []

        def f(x):
            beyond.append(int(np.count_nonzero(x > 1.0)))
            return np.exp(-((x - 0.3) / 1e-3) ** 2)

        value, _ = integrate(f, (0.0, 1.0, 2.0), rtol=1e-12)
        assert value == pytest.approx(math.sqrt(math.pi) * 1e-3, rel=1e-12)
        assert len(beyond) > 1 and beyond == [15] + [0] * (len(beyond) - 1)

    def test_raises_on_nan_integrand(self):
        with pytest.raises(QuadratureError, match="not finite"):
            integrate(lambda x: np.where(x > 0.7, np.nan, 1.0), (0.0, 1.0), rtol=1e-12)

    def test_raises_when_panels_run_out(self):
        """An oscillation far finer than the double-precision rule can afford."""
        with pytest.raises(QuadratureError, match="panels"):
            integrate(lambda x: 1.0 + np.sin(1e7 * x), (0.0, 1.0), rtol=1e-12)


class TestGaussianMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            GaussianMixture.from_lists([0.5, 0.4], [0.1, 0.2])

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GaussianMixture.from_lists([1.5, -0.5], [0.1, 0.2])

    def test_nonpositive_variance(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianMixture.from_lists([1.0], [0.0])

    @pytest.mark.parametrize("weights,variances", [
        ([0.5, math.nan], [0.1, 0.2]),
        ([0.5, 0.5], [0.1, math.nan]),
        ([0.5, 0.5], [0.1, math.inf]),
    ], ids=["nan-weight", "nan-variance", "inf-variance"])
    def test_nonfinite_values_rejected(self, weights, variances):
        with pytest.raises(ValueError, match="mixture"):
            GaussianMixture.from_lists(weights, variances)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            GaussianMixture.from_lists([0.5, 0.5], [0.1])


class TestConvolution:
    def test_single_component(self):
        out = GaussianMixture.from_lists([1.0], [0.5]).convolve_with_gaussian(0.01)
        assert out.components == ((1.0, 0.51),)

    def test_default_mixture_shift(self, mixture):
        out = mixture.convolve_with_gaussian(0.01)
        assert np.allclose(out.weights, mixture.weights)
        assert np.allclose(out.variances, mixture.variances + 0.01)

    def test_total_variance_additivity(self, mixture):
        out = mixture.convolve_with_gaussian(0.3)
        assert total_variance(out) == pytest.approx(
            total_variance(mixture) + 0.3, rel=1e-14)

    def test_repeated_convolution_associative(self, mixture):
        once = mixture.convolve_with_gaussian(0.2).convolve_with_gaussian(0.05)
        direct = mixture.convolve_with_gaussian(0.25)
        assert np.allclose(once.variances, direct.variances, rtol=1e-12)
        assert np.allclose(once.weights, direct.weights)

    def test_rejects_nonpositive_noise(self, mixture):
        with pytest.raises(ValueError):
            mixture.convolve_with_gaussian(0.0)

    @pytest.mark.parametrize("noise_variance", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_noise(self, mixture, noise_variance):
        # names the noise, not the mixture it would have built
        with pytest.raises(ValueError, match="noise_variance must be positive and finite"):
            mixture.convolve_with_gaussian(noise_variance)


class TestMixturePdf:
    def test_single_peak(self):
        assert GaussianMixture.from_lists([1.0], [0.5]).pdf(0j) == pytest.approx(
            1.0 / (2 * math.pi * 0.5), rel=1e-12)

    def test_default_mixture_peak(self, mixture):
        expected = sum(w / (2 * math.pi * v) for w, v in mixture.components)
        assert mixture.pdf(0j) == pytest.approx(expected, rel=1e-12)

    def test_strictly_positive(self, mixture):
        rng = np.random.default_rng(2)
        z = rng.normal(0, 3, 50) + 1j * rng.normal(0, 3, 50)
        assert np.all(mixture.pdf(z) > 0)

    def test_normalization_quadrature(self, mixture):
        span = 8.0 * math.sqrt(float(mixture.variances.max()))
        mass, _ = dblquad(
            lambda yi, yr: mixture.pdf(complex(yr, yi)),
            -span, span, -span, span, epsabs=1e-9, epsrel=1e-8)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_single_component_matches_gaussian_pdf(self):
        mix = GaussianMixture.from_lists([1.0], [0.37])
        rng = np.random.default_rng(3)
        for z in rng.normal(0, 1, 25) + 1j * rng.normal(0, 1, 25):
            expected = math.exp(-abs(z) ** 2 / (2 * 0.37)) / (2 * math.pi * 0.37)
            assert mix.pdf(complex(z)) == pytest.approx(expected, rel=1e-13)


def total_variance(mix):
    """Weight-averaged per-axis variance, sum_l lambda_l * sigma_l^2."""
    return float(np.dot(mix.weights, mix.variances))


class TestMixtureTotalVariance:
    def test_single(self):
        assert total_variance(GaussianMixture.from_lists([1.0], [0.5])) == 0.5

    def test_equal_weight_mean(self, mixture):
        # the total the presets' docstring states
        assert total_variance(mixture) == pytest.approx(0.5, rel=1e-14)


class TestMixtureSampling:
    N = 1_000_000

    def test_moments(self, mixture):
        rng = np.random.default_rng(12345)
        z = mixture.sample(rng, size=self.N)
        # per-axis variance: estimator std from the fourth moment
        fourth = 3.0 * float(np.dot(mixture.weights, mixture.variances**2))
        var_sigma = math.sqrt((fourth - 0.25) / self.N)
        assert abs(z.real.var() - 0.5) < 3 * var_sigma
        assert abs(z.imag.var() - 0.5) < 3 * var_sigma
        mean_sigma = math.sqrt(0.5 / self.N)
        assert abs(z.real.mean()) < 3 * mean_sigma
        assert abs(z.imag.mean()) < 3 * mean_sigma

    def test_component_frequencies(self):
        # components 1e6 apart in variance: the bin of |z|^2 between the
        # geometric midpoints 2 sqrt(v_l v_l+1) names the component of a draw
        # but for a share ~1e-3 of it, so the bins' exact masses, from the
        # mixture's |z|^2 distribution, are the weights to within 1e-3
        weights, variances = np.array([0.1, 0.2, 0.3, 0.4]), np.array([1e-9, 1e-3, 1e3, 1e9])
        mixture = GaussianMixture.from_lists(weights, variances)
        power = np.abs(mixture.sample(np.random.default_rng(999), size=self.N)) ** 2
        edges = np.concatenate(([0.0], 2 * np.sqrt(variances[:-1] * variances[1:]), [np.inf]))
        cdf = [float(np.dot(weights, -np.expm1(-t / (2 * variances)))) for t in edges]
        observed = np.histogram(power, edges)[0] / self.N
        for share, weight, lo, hi in zip(observed, weights, cdf, cdf[1:]):
            expected = hi - lo
            assert abs(expected - weight) < 1e-3
            sigma = math.sqrt(expected * (1 - expected) / self.N)
            assert abs(share - expected) < 3 * sigma

    def test_contiguous_batches_iid(self, mixture):
        # the block sampler groups draws by component; sample must not
        fourth = 3.0 * float(np.dot(mixture.weights, mixture.variances**2))
        batches = 10
        var_sigma = math.sqrt((fourth - 0.25) / (self.N / batches))
        z = mixture.sample(np.random.default_rng(4321), size=self.N).reshape(batches, -1)
        for axis in (z.real, z.imag):
            assert np.all(np.abs(axis.var(axis=1) - 0.5) < 4 * var_sigma)

    def test_axes_uncorrelated_but_dependent(self, mixture):
        rng = np.random.default_rng(777)
        z = mixture.sample(rng, size=self.N)
        zr, zi = z.real, z.imag
        batches = 50
        zr_b = zr.reshape(batches, -1)
        zi_b = zi.reshape(batches, -1)

        cov_b = (zr_b * zi_b).mean(axis=1)
        cov_sigma = cov_b.std(ddof=1) / math.sqrt(batches)
        assert abs(cov_b.mean()) < 5 * cov_sigma

        dep_b = (zr_b**2 * zi_b**2).mean(axis=1) - zr_b.var(axis=1) * zi_b.var(axis=1)
        dep_sigma = dep_b.std(ddof=1) / math.sqrt(batches)
        # theoretical gap: sum(w v^2) - (sum(w v))^2 = 0.05 for the preset
        assert dep_b.mean() > 5 * dep_sigma

    def test_disc_probabilities_match_pdf(self, mixture):
        # pdf is the reference density for the Monte Carlo interference draw
        radius = np.abs(mixture.sample(np.random.default_rng(2024), size=self.N))
        for r in (0.3, 0.7, 1.2, 2.0):
            expected, _ = quad(
                lambda rho: 2 * math.pi * rho * mixture.pdf(complex(rho, 0.0)), 0.0, r)
            sigma = math.sqrt(expected * (1 - expected) / self.N)
            assert abs(np.mean(radius <= r) - expected) < 4 * sigma

    def test_equals_raw_generator_draws(self, mixture):
        # component counts, one (2, count) normal block per component, then a
        # shuffle, bit for bit
        z = mixture.sample(np.random.default_rng(31), size=1_000)
        rng = np.random.default_rng(31)
        counts = rng.multinomial(1_000, mixture.weights)
        blocks = [math.sqrt(v) * rng.standard_normal((2, c))
                  for c, v in zip(counts, mixture.variances)]
        expected = np.concatenate([block[0] + 1j * block[1] for block in blocks])
        rng.shuffle(expected)
        assert z.tobytes() == expected.tobytes()

    def test_weights_summing_above_one_within_tolerance(self):
        # the constructor allows a sum of 1 + 1e-12; numpy's multinomial
        # rejects any probability above 1
        mixture = GaussianMixture.from_lists([1.0 + 5e-13], [0.5])
        assert mixture.sample(np.random.default_rng(3), size=4).shape == (4,)

    def test_scalar_draw(self, mixture):
        value = mixture.sample(np.random.default_rng(0))
        assert isinstance(value, complex)
