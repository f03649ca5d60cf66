"""Symbol detection under sensing uncertainty.

Two detectors are provided: the fast per-axis midpoint-threshold rule (optimal
for equiprobable rectangular grids regardless of the sensing decision), and a
brute-force numeric MAP detector that evaluates the full posterior-weighted
likelihood of every constellation point. The second is slow and exists to
certify the first; both apply the identical deterministic tie rule (smallest
(n, q) lexicographically) at exact decision boundaries.

Both detectors accept scalars or 1-D arrays of received samples.
"""

import math

import numpy as np

from .mathcore import GaussianMixture
from .modulation import ConstellationSpec
from .sensing import Occupancy, SensingModel

__all__ = [
    "DeepFadeError",
    "detect_threshold",
    "map_detect_numeric",
]


class DeepFadeError(ValueError):
    """Detection attempted with zero channel magnitude."""


def _axis_index(u: np.ndarray, levels: int) -> np.ndarray:
    """Nearest-level index on one axis with midpoint thresholds, in place.

    ``u`` is a float array of coordinates in units of the faded minimum
    distance, which ``detect_threshold`` gets by multiplying the sample by
    1/(|h| d). With v = u + levels/2, level n sits at v = n + 1/2 and the
    thresholds at the integers; ceil(v) - 1 puts a coordinate exactly on a
    threshold in the smaller index. ``u`` is overwritten with the indices,
    as floats, and returned.
    """
    u += levels / 2.0
    np.ceil(u, out=u)
    u -= 1.0
    return np.clip(u, 0.0, levels - 1.0, out=u)


def _finite_samples(caller: str, derotated, magnitude):
    """The samples and magnitudes as arrays.

    Raises ValueError if any is not finite and DeepFadeError if a magnitude
    is not positive.
    """
    z = np.asarray(derotated, dtype=complex)
    mag = np.asarray(magnitude, dtype=float)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(mag))):
        raise ValueError(f"{caller} requires finite samples and magnitudes")
    if not np.all(mag > 0):
        raise DeepFadeError(f"{caller} requires magnitude > 0")
    return z, mag


def detect_threshold(spec: ConstellationSpec, derotated, magnitude):
    """Midpoint-threshold detection of a derotated sample.

    Returns the (n, q) indices of the decided constellation point; arrays in,
    arrays out. The rule is identical under both sensing decisions (only the
    power carried by ``spec`` differs). Samples must be finite and
    magnitudes positive and finite.
    """
    z, mag = _finite_samples("detect_threshold", derotated, magnitude)
    inv = 1.0 / (mag * spec.min_distance())
    # each product is a new array, which _axis_index overwrites
    n = _axis_index(np.atleast_1d(z.real * inv), spec.m_inphase).astype(np.int64)
    q = _axis_index(np.atleast_1d(z.imag * inv), spec.m_quadrature).astype(np.int64)
    if np.ndim(derotated) == 0 and np.ndim(magnitude) == 0:
        return int(n[0]), int(q[0])
    return n, q


def map_detect_numeric(
    spec_idle: ConstellationSpec,
    spec_busy: ConstellationSpec,
    derotated,
    magnitude,
    decision: Occupancy,
    model: SensingModel,
    noise_variance: float,
    mix: GaussianMixture,
):
    """Brute-force MAP detection over all constellation points.

    Scores every point with the sensing-posterior mixture of the idle-channel
    Gaussian density and the busy-channel (noise + interference) mixture
    density, then takes the argmax; ties go to the smallest (n, q) pair.
    Samples must be finite, magnitudes positive and finite, and
    ``noise_variance`` positive and finite (checked by the convolution).
    """
    convolved = mix.convolve_with_gaussian(noise_variance)
    z, mag = _finite_samples("map_detect_numeric", derotated, magnitude)
    spec = spec_busy if decision == Occupancy.BUSY else spec_idle
    _, post_idle, post_busy = model.posteriors(decision)

    z = np.atleast_1d(z)
    mag = np.broadcast_to(mag, z.shape)

    # residual magnitude^2 for every point: shape (M_I, M_Q, N)
    s_n = spec.inphase_levels()[:, None, None] * mag[None, None, :]
    s_q = spec.quadrature_levels()[None, :, None] * mag[None, None, :]
    mag2 = (z.real[None, None, :] - s_n) ** 2 + (z.imag[None, None, :] - s_q) ** 2

    # log domain: linear densities underflow for samples many noise
    # deviations out, which would erase the argmax ordering
    def log_term(coef: float, variance: float):
        return (math.log(coef) - math.log(2.0 * math.pi * variance)
                - mag2 / (2.0 * variance))

    score = (np.full(mag2.shape, -np.inf) if post_idle == 0.0
             else log_term(post_idle, noise_variance))
    for w, v in convolved.components:
        if post_busy * w == 0.0:
            continue
        score = np.logaddexp(score, log_term(post_busy * w, v))

    flat = score.reshape(spec.size, -1)  # C order: flat index = n * M_Q + q
    best = np.argmax(flat, axis=0)  # first max -> lexicographically smallest
    n_idx = best // spec.m_quadrature
    q_idx = best % spec.m_quadrature
    if np.ndim(derotated) == 0 and np.ndim(magnitude) == 0:
        return int(n_idx[0]), int(q_idx[0])
    return n_idx, q_idx
