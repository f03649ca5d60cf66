"""Scalar special functions, Gaussian-mixture algebra, and the quadrature rule.

Everything downstream (detection, closed-form error rates, the Monte Carlo
engine) is built on the primitives in this module: the Gaussian Q-function,
its finite-integral (Craig) counterpart used as a numerical authority, a
zero-mean circularly-symmetric complex Gaussian mixture with per-axis
component variances, and ``integrate``, the adaptive Gauss-Kronrod rule that
every quadrature oracle runs on.

``integrate`` evaluates its integrand once per refinement round, on a 1-D
array holding the nodes of every panel still open, so an oracle written over
numpy arrays costs one call per round rather than one per node.

This is the one module that touches scipy. It imports only ``scipy.special``,
and only on first use: it is a large part of the time of ``import cogsep``,
and no closed-form or Monte Carlo engine but the peak-policy bound needs it.
"""

import functools
import importlib
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GaussianMixture",
    "gaussian_q",
    "craig_q_numeric",
    "integrate",
    "QuadratureError",
]

# Tolerances of ``craig_q_numeric``. Error probabilities span ~1e-13..1,
# hence the tight absolute floor.
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10

# The Gauss-Kronrod 7-15 pair on [-1, 1] (QUADPACK's qk15, Piessens et al.,
# 1983): the Kronrod nodes from the outermost inward, their weights, and the
# Gauss weights of every second node, the seven the pair shares. K15 is exact
# for polynomials of degree <= 22, G7 for degree <= 13; |K15 - G7| is the
# error estimate of a panel.
_KRONROD_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
              0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
              0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
              0.207784955007898467600689403773245, 0.0)
_KRONROD_W = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
              0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
              0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
              0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GAUSS_W = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
            0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)


def _mirrored(half) -> np.ndarray:
    """The 15 entries of a symmetric rule from its outer half and center."""
    half = np.array(half)
    return np.concatenate((half[:-1], half[::-1]))


_GK15_NODES = _mirrored(_KRONROD_X) * np.repeat([-1.0, 1.0], [7, 8])
# columns: K15, and K15 - G7
_GK15_WEIGHTS = np.stack((_mirrored(_KRONROD_W),
                         _mirrored(_KRONROD_W) - _mirrored(_GAUSS_W)), axis=1)
# Most panels ``integrate`` holds at once; an integrand that needs more is
# not resolved at double precision.
_MAX_PANELS = 2000

_SQRT2 = math.sqrt(2.0)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@functools.cache
def _scipy(name: str):
    """The module ``scipy.<name>``, imported on the first call only."""
    return importlib.import_module(f"scipy.{name}")


def _panels(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15 estimate and |K15 - G7| of each panel [lo, hi], by one call of ``f``."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = center[:, None] + half[:, None] * _GK15_NODES
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"the integrand is not finite on [{lo.min()!r}, {hi.max()!r}]")
    sums = (values @ _GK15_WEIGHTS) * half[:, None]
    return sums[:, 0], np.abs(sums[:, 1])


def integrate(f, breaks, rtol: float, atol: float = 0.0) -> tuple[float, float]:
    """Adaptive G7-K15 quadrature of ``f`` from ``breaks[0]`` to ``breaks[-1]``.

    ``breaks`` is an increasing sequence of finite points that start the
    panels: put one wherever the integrand changes scale. ``f`` maps a 1-D
    array of abscissae to the integrand's values there. Each round calls it
    once, on the 15 nodes of every new panel, and then, while the summed
    error estimate exceeds tol = max(atol, rtol |value|), bisects every panel
    whose |K15 - G7| exceeds its share tol / (panel count). Returns the sum
    of the panels' K15 values and of their error estimates, the latter at
    most tol.

    Raises QuadratureError if ``f`` returns a non-finite value or if more
    than ``_MAX_PANELS`` panels would be needed.
    """
    edges = np.asarray(breaks, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    value, error = _panels(f, lo, hi)
    while True:
        total = float(value.sum())
        tol = max(atol, rtol * abs(total))
        if error.sum() <= tol:
            return total, float(error.sum())
        split = error > tol / len(error)
        if len(error) + np.count_nonzero(split) > _MAX_PANELS:
            raise QuadratureError(
                f"quadrature needs more than {_MAX_PANELS} panels: error "
                f"{error.sum():.3e} against the tolerance {tol:.3e}")
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_value, new_error = _panels(f, new_lo, new_hi)
        keep = ~split
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        value = np.concatenate((value[keep], new_value))
        error = np.concatenate((error[keep], new_error))


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x) (``scipy.special.erfcx``)."""
    return _scipy("special").erfcx(x)


def gaussian_q(x):
    """Gaussian tail probability Q(x) = P{N(0,1) > x}.

    Accepts a scalar or array; returns the same shape. Computed through the
    complementary error function, Q(x) = erfc(x / sqrt(2)) / 2. The Craig
    integral form (``craig_q_numeric``) is the authority in disputes.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("gaussian_q requires finite input")
    out = 0.5 * _scipy("special").erfc(arr / _SQRT2)
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
    # the rule's nodes are interior to their panel, so sin(phi) > 0 at each
    value, abserr = integrate(lambda phi: np.exp(-xsq / (2.0 * np.sin(phi) ** 2)),
                              (0.0, upper), rtol=QUAD_REL_TOL, atol=QUAD_ABS_TOL)
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
