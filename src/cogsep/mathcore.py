"""Scalar special functions, Gaussian-mixture algebra, and the quadrature rule.

Everything downstream (detection, closed-form error rates, the Monte Carlo
engine) is built on the primitives in this module: the Gaussian Q-function,
its finite-integral (Craig) counterpart used as a numerical authority, a
zero-mean circularly-symmetric complex Gaussian mixture with per-axis
component variances, and ``integrate_family``, the adaptive Gauss-Kronrod
rule that every quadrature oracle runs on.

It evaluates a family of integrands once per refinement round, on a 1-D
array holding the nodes of every open panel of all of them, so an oracle
written over numpy arrays costs one call per round, not one per node.

It is also the one home of the model-input rules, each with its one message:
the ``_check_*`` functions, which every model class and entry point calls,
the span of a config's powers, limits and variances around its noise
variance (``_in_noise_span``), and the range of the noise variance itself
(``_noise_in_range``), which ``experiment`` applies.

This is the one module that touches scipy. It imports only ``scipy.special``,
and only on first use: it is a large part of the time of ``import cogsep``,
and no closed-form or Monte Carlo engine but the peak-policy bound needs it.
Annotations are not evaluated at import, so the samplers' ``np.random``
parameter types do not load ``numpy.random``.
"""

from __future__ import annotations

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
    "integrate_family",
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


def _check_positive(name: str, value) -> float:
    """``value`` as a positive, finite Python float; text and bools are refused."""
    if isinstance(value, (str, bool, np.bool_)) or not 0 < float(value) < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _check_nonnegative(name: str, value) -> float:
    """``value`` as a nonnegative, finite Python float, -0.0 as +0.0; text and
    bools are refused."""
    if isinstance(value, (str, bool, np.bool_)) or not 0 <= float(value) < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
    return float(value) + 0.0  # -0.0 + 0.0 is +0.0: equal inputs keep equal bits


def _check_prob(name: str, value) -> float:
    """``value`` as a Python float in [0, 1], -0.0 as +0.0; text and bools are refused."""
    if isinstance(value, (str, bool, np.bool_)) or not 0.0 <= float(value) <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value) + 0.0


def _check_integer(name: str, value, minimum: int) -> int:
    """``value`` as a Python int >= ``minimum``; non-integers and bools are refused."""
    # bool is an int subclass, but True is not a count
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


# How far a power, a limit or a mixture variance may lie from the noise
# variance, as a factor either way (``_in_noise_span``). The model reads them
# only through their ratios, and within 10^+-100 the kernels' largest ratios
# stay finite for any grid with K = M_I^2 + M_Q^2 - 2 < 1e96: the Rayleigh
# term's x = 2 K v / (3 P) at the optimizer's floor P = 1e-12 P_pk is at most
# (2/3) K 1e212, the peak policy's b1 = Q_pk / P_pk at most 1e200, and its
# gamma = 3 Q_pk / (2 K v) at most 1.5e100. A span of 10^+-150 overflows x.
#
# The kernels also form products before they divide, so the noise variance
# itself lies within the same factor of 1 (``_noise_in_range``). Then every
# power, limit and variance lies within 10^+-200, and every product stays
# finite and normal: 3 Q_pk <= 3e200; 2 K v < 2e296, since v <= s0 + max s_l
# <= 1e100 + 1e200; at the optimizer's floor 3 P >= 3e-212, so x is finite;
# and gamma >= 3e-100 / (2 K (1 + 1e100)) > 1.4e-296, above the normal
# float minimum of 2.2e-308.
_NOISE_SPAN = 1e100


def _in_noise_span(value: float, noise_variance: float) -> bool:
    """Whether ``value`` lies within a factor ``_NOISE_SPAN`` of the positive,
    finite ``noise_variance``, either way; 0, inf and NaN do not."""
    return 1.0 / _NOISE_SPAN <= value / noise_variance <= _NOISE_SPAN


def _noise_in_range(noise_variance: float) -> bool:
    """Whether the positive, finite ``noise_variance`` lies within a factor
    ``_NOISE_SPAN`` of 1, either way."""
    return _in_noise_span(noise_variance, 1.0)


@functools.cache
def _scipy(name: str):
    """The module ``scipy.<name>``, imported on the first call only."""
    return importlib.import_module(f"scipy.{name}")


def _panels(f, lo, hi, member) -> tuple[np.ndarray, np.ndarray]:
    """K15 estimate and |K15 - G7| of each panel [lo, hi] of integrand
    ``member``, by one call of ``f``. A non-finite value is an error naming
    the lowest-numbered integrand that has one and its smallest such node."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = center[:, None] + half[:, None] * _GK15_NODES
    values = np.asarray(f(nodes.ravel(), np.repeat(member, len(_GK15_NODES))),
                        dtype=float).reshape(nodes.shape)
    finite = np.isfinite(values)
    if not finite.all():
        k = member[~finite.all(axis=1)].min()
        x = nodes[~finite & (member == k)[:, None]].min()
        raise QuadratureError(f"integrand {int(k)} is not finite at x = {float(x)!r}")
    sums = (values @ _GK15_WEIGHTS) * half[:, None]
    return sums[:, 0], np.abs(sums[:, 1])


def integrate_family(f, breaks, rtol: float, atol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive G7-K15 quadrature of a family of integrands in one loop.

    Integrand k runs from ``breaks[k][0]`` to ``breaks[k][-1]``, an
    increasing sequence of finite points that start its panels: put one
    wherever it changes scale. ``f(x, k)`` maps 1-D arrays of abscissae x
    and of the index k of each one's integrand to the values there. Each
    round calls it once, on the 15 nodes of every new panel of every open
    integrand. An integrand is done, and never evaluated
    again, once its summed error estimate is at most its own tolerance
    tol_k = max(atol, rtol |value_k|); until then each round bisects every
    one of its panels whose |K15 - G7| exceeds its share tol_k / (its panel
    count). Returns two arrays: the sums of each integrand's panel K15
    values and of their error estimates, the latter at most tol_k.

    Raises QuadratureError if ``f`` returns a non-finite value or if an
    integrand would need more than ``_MAX_PANELS`` panels.
    """
    edges = [np.asarray(b, dtype=float) for b in breaks]
    size = len(edges)
    count = np.array([len(e) - 1 for e in edges])
    member = np.repeat(np.arange(size), count)
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    value, error = _panels(f, lo, hi, member)
    while True:
        # a done integrand's panels stay, in order: its sums are a family of one's
        total = np.bincount(member, value, size)
        summed = np.bincount(member, error, size)
        tol = np.maximum(atol, rtol * np.abs(total))
        open_ = summed > tol
        if not open_.any():
            return total, summed
        split = error > np.where(open_, tol / count, np.inf)[member]
        count += np.bincount(member[split], minlength=size)
        if count.max() > _MAX_PANELS:
            k = int(count.argmax())
            raise QuadratureError(
                f"quadrature needs more than {_MAX_PANELS} panels: error "
                f"{summed[k]:.3e} against the tolerance {tol[k]:.3e}")
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_member = np.concatenate((member[split], member[split]))
        new_value, new_error = _panels(f, new_lo, new_hi, new_member)
        keep = ~split
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        value = np.concatenate((value[keep], new_value))
        error = np.concatenate((error[keep], new_error))
        member = np.concatenate((member[keep], new_member))


def integrate(f, breaks, rtol: float, atol: float = 0.0) -> tuple[float, float]:
    """Value and error estimate of ``integrate_family`` of the one integrand
    ``f``, which maps a 1-D array of abscissae to its values there."""
    values, errors = integrate_family(lambda x, _: f(x), (breaks,), rtol, atol)
    return float(values[0]), float(errors[0])


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
    x = _check_nonnegative("x", x)
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


@dataclass(frozen=True)
class GaussianMixture:
    """Weighted sum of zero-mean circularly-symmetric complex Gaussians.

    Each component has pdf lambda / (2 pi s2) * exp(-|w|^2 / (2 s2)) where
    ``s2`` is the per-axis variance, so E{|w|^2} of a component is 2*s2.

    Parameters
    ----------
    components : tuple of (weight, per-axis variance) pairs
        Weights must be nonnegative and sum to 1 within 1e-12; variances
        must be positive and finite. ``weights`` and ``variances`` hold them
        as arrays.
    """

    components: tuple[tuple[float, float], ...]
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    variances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        components = tuple(self.components)
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = np.array([float(w) for w, _ in components]) + 0.0  # -0.0 as +0.0
        # written so that NaN fails every check
        if not np.all(weights >= 0):
            raise ValueError("mixture weights must be nonnegative")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ValueError(f"mixture weights must sum to 1 (got {float(weights.sum())!r})")
        variances = [_check_positive("mixture variance", v) for _, v in components]
        object.__setattr__(self, "components", tuple(zip(weights.tolist(), variances)))
        for name, values in (("weights", weights), ("variances", np.array(variances))):
            values.flags.writeable = False  # frozen, as the components are
            object.__setattr__(self, name, values)

    @classmethod
    def from_lists(cls, weights, variances) -> "GaussianMixture":
        if len(weights) != len(variances):
            raise ValueError("weights and variances must have equal length")
        return cls(tuple(zip(weights, variances)))

    def convolve_with_gaussian(self, noise_variance: float) -> "GaussianMixture":
        """Distribution of (mixture sample + independent complex Gaussian noise).

        Convolution keeps the weights and shifts every per-axis component
        variance by ``noise_variance``, which must be positive and finite.
        """
        noise_variance = _check_positive("noise_variance", noise_variance)
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
        counts = rng.multinomial(len(real), self.weights / self.weights.sum())
        start = 0
        for c, (_, variance) in zip(counts.tolist(), self.components):
            if c:
                block = scratch[:2 * c].reshape(2, c)
                rng.standard_normal(out=block)
                block *= math.sqrt(variance)
                real[start:start + c] += block[0]
                imag[start:start + c] += block[1]
                start += c
