import itertools
import math

import numpy as np
import pytest

from cogsep import ConstellationSpec, PointClass
from cogsep.modulation import DegenerateConstellationError


class TestMinDistance:
    def test_four_qam(self):
        assert ConstellationSpec(2, 2, 1.0).min_distance() == pytest.approx(
            math.sqrt(2.0), rel=1e-15)

    def test_two_pam(self):
        assert ConstellationSpec(2, 1, 1.0).min_distance() == pytest.approx(2.0)

    def test_power_scaling(self):
        base = ConstellationSpec(8, 2, 1.0).min_distance()
        assert ConstellationSpec(8, 2, 4.0).min_distance() == pytest.approx(
            2 * base, rel=1e-14)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateConstellationError):
            ConstellationSpec(1, 1, 1.0)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            ConstellationSpec(2, 2, 0.0)

    @pytest.mark.parametrize("power", [math.inf, math.nan])
    def test_nonfinite_power_rejected(self, power):
        with pytest.raises(ValueError, match="power must be positive and finite"):
            ConstellationSpec(2, 2, power)


def grid(spec):
    """All M points as a flat array, n varying fastest."""
    return (spec.inphase_levels()[None, :]
            + 1j * spec.quadrature_levels()[:, None]).ravel()


class TestBuildConstellation:
    def test_two_pam_amplitudes(self):
        amps = sorted(grid(ConstellationSpec(2, 1, 1.0)).real)
        assert amps == pytest.approx([-1.0, 1.0])

    def test_four_qam_grid(self):
        amps = grid(ConstellationSpec(2, 2, 1.0))
        r = math.sqrt(2.0) / 2.0
        expected = {complex(sr, si) for sr in (-r, r) for si in (-r, r)}
        assert all(any(abs(a - e) < 1e-15 for e in expected) for a in amps)
        assert np.mean(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_four_pam_levels(self):
        spec = ConstellationSpec(4, 1, 1.0)
        d = math.sqrt(12.0 / 15.0)
        levels = sorted(grid(spec).real)
        assert levels == pytest.approx([-1.5 * d, -0.5 * d, 0.5 * d, 1.5 * d])
        assert 5.0 / 4.0 * d**2 == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("mi,mq,power", [
        (2, 1, 1.0), (4, 1, 2.5), (8, 1, 0.3), (2, 2, 1.0), (8, 2, 2.5119),
        (4, 4, 7.0), (16, 4, 0.05),
    ])
    def test_mean_power_and_zero_mean(self, mi, mq, power):
        amps = grid(ConstellationSpec(mi, mq, power))
        assert len(amps) == mi * mq
        assert np.mean(np.abs(amps) ** 2) == pytest.approx(power, abs=1e-12 * power)
        assert abs(amps.mean()) < 1e-12

    @pytest.mark.parametrize("mi,mq", [(2, 2), (8, 2), (4, 4), (8, 1)])
    def test_nearest_neighbor_distance_is_min_distance(self, mi, mq):
        spec = ConstellationSpec(mi, mq, 1.7)
        amps = grid(spec)
        nearest = min(abs(a - b) for a, b in itertools.combinations(amps, 2))
        assert math.isclose(nearest, spec.min_distance(), rel_tol=1e-12)

    @pytest.mark.parametrize("mi,mq", [(2, 2), (8, 2), (4, 1)])
    def test_axis_negation_symmetry(self, mi, mq):
        amps = grid(ConstellationSpec(mi, mq, 1.0))

        def contains(z):
            return any(abs(z - a) < 1e-12 for a in amps)

        assert all(contains(complex(-a.real, a.imag)) for a in amps)
        assert all(contains(complex(a.real, -a.imag)) for a in amps)


class TestClassifyPoint:
    def test_corner(self):
        assert ConstellationSpec(4, 2, 1.0).classify_point(0, 0) is PointClass.CORNER

    def test_counts_8x2(self):
        counts = ConstellationSpec(8, 2, 1.0).class_counts()
        assert counts[PointClass.CORNER] == 4
        assert counts[PointClass.EDGE] == 12
        assert counts[PointClass.INNER] == 0

    def test_pam_endpoints_are_corners(self):
        spec = ConstellationSpec(2, 1, 1.0)
        assert spec.classify_point(0, 0) is PointClass.CORNER
        assert spec.classify_point(1, 0) is PointClass.CORNER

    def test_pam_interior_is_edge(self):
        spec = ConstellationSpec(8, 1, 1.0)
        assert spec.classify_point(3, 0) is PointClass.EDGE

    @pytest.mark.parametrize("mi,mq", [(2, 2), (4, 2), (8, 2), (4, 4), (8, 4)])
    def test_count_formulas(self, mi, mq):
        counts = ConstellationSpec(mi, mq, 1.0).class_counts()
        m = mi * mq
        assert counts[PointClass.CORNER] == 4
        assert counts[PointClass.EDGE] == 2 * (mi + mq - 4)
        assert counts[PointClass.INNER] == m - 2 * (mi + mq) + 4
        assert sum(counts.values()) == m

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ConstellationSpec(4, 2, 1.0).classify_point(4, 0)
        with pytest.raises(ValueError):
            ConstellationSpec(4, 2, 1.0).classify_point(0, -1)
