"""Scalar special functions, Gaussian-mixture algebra, and quadrature oracles.

Everything downstream (detection, closed-form error rates, the Monte Carlo
engine) is built on the primitives in this module: the Gaussian Q-function,
its finite-integral (Craig) counterpart used as a numerical authority, and a
zero-mean circularly-symmetric complex Gaussian mixture with per-axis
component variances.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

__all__ = [
    "GaussianMixture",
    "gaussian_q",
    "craig_q_numeric",
    "QuadratureError",
]

# Tolerances for the adaptive (Gauss-Kronrod) quadrature oracles. Error
# probabilities span ~1e-13..1, hence the tight absolute floor.
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10

_SQRT2 = math.sqrt(2.0)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def gaussian_q(x):
    """Gaussian tail probability Q(x) = P{N(0,1) > x}.

    Accepts a scalar or array; returns the same shape. Computed through the
    complementary error function, Q(x) = erfc(x / sqrt(2)) / 2. The Craig
    integral form (``craig_q_numeric``) is the authority in disputes.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("gaussian_q requires finite input")
    out = 0.5 * erfc(arr / _SQRT2)
    if np.ndim(x) == 0:
        return float(out)
    return out


def craig_q_numeric(x: float, squared: bool = False) -> float:
    """Evaluate Q(x) (or Q^2(x)) from its finite-limit integral form.

    (1/pi) * int_0^{pi/2} exp(-x^2 / (2 sin^2 phi)) dphi, with upper limit
    pi/4 for the squared variant. Valid for x >= 0 only. Serves as the
    independent oracle for ``gaussian_q``.
    """
    if not math.isfinite(x):
        raise ValueError("craig_q_numeric requires finite input")
    if x < 0:
        raise ValueError("craig_q_numeric requires x >= 0")
    upper = math.pi / 4 if squared else math.pi / 2
    xsq = x * x

    def integrand(phi: float) -> float:
        s = math.sin(phi)
        if s == 0.0:
            return 0.0 if xsq > 0 else 1.0
        return math.exp(-xsq / (2.0 * s * s))

    value, abserr = quad(integrand, 0.0, upper, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL)
    value /= math.pi
    if abserr / math.pi > max(QUAD_ABS_TOL * 10, abs(value) * QUAD_REL_TOL * 10):
        raise QuadratureError(
            f"craig_q_numeric reached abs error {abserr / math.pi:.3e} "
            f"(requested {QUAD_ABS_TOL:.0e} abs / {QUAD_REL_TOL:.0e} rel)"
        )
    return value


@dataclass
class GaussianMixture:
    """Weighted sum of zero-mean circularly-symmetric complex Gaussians.

    Each component has pdf lambda / (2 pi s2) * exp(-|w|^2 / (2 s2)) where
    ``s2`` is the per-axis variance, so E{|w|^2} of a component is 2*s2.

    Parameters
    ----------
    components : tuple of (weight, per-axis variance) pairs
        Weights must be nonnegative and sum to 1 within 1e-12; variances
        must be positive and finite.
    """

    components: tuple[tuple[float, float], ...]
    _weights: np.ndarray = field(init=False, repr=False)
    _variances: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        comps = tuple((float(w), float(v)) for w, v in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        weights = np.array([w for w, _ in comps])
        variances = np.array([v for _, v in comps])
        # written so that NaN fails every check
        if not np.all(weights >= 0):
            raise ValueError("mixture weights must be nonnegative")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ValueError(f"mixture weights must sum to 1 (got {float(weights.sum())!r})")
        if not np.all((variances > 0) & (variances < np.inf)):
            raise ValueError("mixture component variances must be positive and finite")
        self.components = comps
        self._weights = weights
        self._variances = variances

    @classmethod
    def from_lists(cls, weights, variances) -> "GaussianMixture":
        if len(weights) != len(variances):
            raise ValueError("weights and variances must have equal length")
        return cls(tuple(zip(weights, variances)))

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def variances(self) -> np.ndarray:
        return self._variances

    def convolve_with_gaussian(self, noise_variance: float) -> "GaussianMixture":
        """Distribution of (mixture sample + independent complex Gaussian noise).

        Convolution keeps the weights and shifts every per-axis component
        variance by ``noise_variance``, which must be positive and finite.
        """
        if not 0 < noise_variance < math.inf:
            raise ValueError(f"noise_variance must be positive and finite, got {noise_variance!r}")
        return GaussianMixture(
            tuple((w, v + noise_variance) for w, v in self.components)
        )

    def pdf(self, sample):
        """Joint density of (real, imag) at a complex sample (scalar or array).

        Oracle: the reference density that certifies ``sample``, the Monte
        Carlo engine's interference draw.
        """
        z = np.asarray(sample, dtype=complex)
        if not np.all(np.isfinite(z)):
            raise ValueError("pdf requires finite sample")
        mag2 = z.real**2 + z.imag**2
        dens = np.zeros_like(mag2, dtype=float)
        for w, v in self.components:
            dens += w / (2.0 * math.pi * v) * np.exp(-mag2 / (2.0 * v))
        if np.ndim(sample) == 0:
            return float(dens)
        return dens

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw iid complex samples: component by weight, then circular Gaussian.

        Returns a complex scalar when ``size`` is None, else an array. The
        draws are those ``_add_sample`` adds, which lays them out grouped by
        component; a shuffle with the same ``rng`` then puts them in
        uniformly random order. A multiset of n iid draws in uniformly random
        order is n iid draws in order, so one sampler serves this method and
        the Monte Carlo engine.
        """
        n = 1 if size is None else int(size)
        draws = np.zeros(n, dtype=complex)
        self._add_sample(rng, draws.real, draws.imag, np.empty(2 * n))
        rng.shuffle(draws)
        if size is None:
            return complex(draws[0])
        return draws

    def _add_sample(self, rng: np.random.Generator, real: np.ndarray, imag: np.ndarray,
                    scratch: np.ndarray) -> None:
        """Add n = len(real) draws to the in-phase ``real`` and quadrature
        ``imag`` arrays, in place, grouped by component.

        Draws the component counts as ``multinomial(n, weights)``; then, for
        each component l with count c > 0 in turn, one (2, c) block of
        standard normals into the flat float buffer ``scratch`` (at least 2n
        elements), scaled by sqrt(s_l) and added to the next c positions.
        The multiset of draws is that of n iid mixture draws, but the
        positions are not exchangeable: a caller that needs iid order
        shuffles (``sample``), and the Monte Carlo engine calls this once per
        cell, inside which the order of draws does not matter. The draw
        order is part of the engine's reproducibility contract.
        """
        # weights may sum to 1 only within 1e-12; multinomial rejects a
        # probability above 1
        counts = rng.multinomial(len(real), self._weights / self._weights.sum())
        start = 0
        for c, (_, variance) in zip(counts.tolist(), self.components):
            if c:
                block = scratch[:2 * c].reshape(2, c)
                rng.standard_normal(out=block)
                block *= math.sqrt(variance)
                real[start:start + c] += block[0]
                imag[start:start + c] += block[1]
                start += c
