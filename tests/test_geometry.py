import math

import numpy as np
import pytest

from crossrisk.errors import DegenerateCalibration, PointAtInfinity
from crossrisk.geometry import Calibration, fit_homography

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def _reprojection_error(h, pairs):
    """Largest distance between a pair's world point and its pixel point
    projected through `h`."""
    world = Calibration(h).to_world_many([px for px, _ in pairs])
    return max(math.dist(w, expected) for w, (_, expected) in zip(world, pairs))


def test_fit_identity_on_unit_square():
    pairs = [(p, p) for p in UNIT_SQUARE]
    h = fit_homography(pairs)
    assert _reprojection_error(h, pairs) < 1e-9
    assert np.allclose(h / h[2, 2], np.eye(3), atol=1e-9)


def test_fit_pure_translation():
    pairs = [(p, (p[0] + 5.0, p[1])) for p in UNIT_SQUARE]
    h = fit_homography(pairs)
    assert _reprojection_error(h, pairs) < 1e-9
    expected = np.array([[1, 0, 5], [0, 1, 0], [0, 0, 1]], dtype=float)
    assert np.allclose(h / h[2, 2], expected, atol=1e-9)


def test_fit_three_collinear_world_points_degenerate():
    pairs = [((0, 0), (0, 0)), ((1, 0), (1, 0)),
             ((1, 1), (2, 0)), ((0, 1), (0, 1))]
    with pytest.raises(DegenerateCalibration):
        fit_homography(pairs)


@pytest.mark.parametrize("side, value", [
    (0, math.nan), (0, math.inf), (1, math.nan), (1, -math.inf)])
def test_fit_rejects_non_finite_correspondences(side, value):
    pairs = [[p, (p[0] * 3.0, p[1] * 2.0)] for p in UNIT_SQUARE]
    pairs.append([(0.5, 0.25), (1.5, 0.5)])
    pairs[2][side] = (value, 1.0)
    with pytest.raises(DegenerateCalibration):
        fit_homography(pairs)


def test_fit_needs_four_pairs():
    with pytest.raises(DegenerateCalibration):
        fit_homography([(p, p) for p in UNIT_SQUARE[:3]])


def test_project_identity():
    calib = Calibration(np.eye(3))
    assert calib.to_world_many([(3.0, 4.0)])[0] == pytest.approx((3.0, 4.0))


def test_project_translation():
    calib = Calibration(fit_homography(
        [(p, (p[0] + 5.0, p[1])) for p in UNIT_SQUARE]))
    assert calib.to_world_many([(1.0, 1.0)])[0] == pytest.approx((6.0, 1.0))


def test_project_vanishing_line_point_at_infinity():
    h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(PointAtInfinity):
        Calibration(h).to_world_many([(-1.0, 0.5)])


def _oblique_pairs():
    # A road-like trapezoid: near edge wide, far edge narrow.
    return [((140.0, 1000.0), (-30.0, -11.0)),
            ((1780.0, 1000.0), (30.0, -11.0)),
            ((1280.0, 260.0), (30.0, 11.0)),
            ((640.0, 260.0), (-30.0, 11.0))]


def test_round_trip_identity_within_1e9():
    h = fit_homography(_oblique_pairs())
    rng = np.random.default_rng(5)
    px = np.column_stack([rng.uniform(200, 1700, 200), rng.uniform(300, 990, 200)])
    world = Calibration(h).to_world_many(px)
    back = Calibration(np.linalg.inv(h)).to_world_many(world)
    assert np.hypot(*(px - back).T).max() < 1e-9


def test_exact_fit_reproduces_correspondences():
    pairs = _oblique_pairs()
    assert _reprojection_error(fit_homography(pairs), pairs) < 1e-9


def test_fronto_parallel_scalar_and_homography_agree():
    # A pure-scale camera: 64 px per meter. Distances through the fitted
    # homography must match the scalar conversion to 1e-9 relative.
    scale = 64.0
    pairs = [((x * scale, y * scale), (x, y))
             for x, y in [(0, 0), (10, 0), (10, 6), (0, 6), (4, 2)]]
    calib = Calibration(fit_homography(pairs))
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rng.uniform(0, 600, 2)
        b = rng.uniform(0, 380, 2)
        via_h = math.dist(*calib.to_world_many([a, b]))
        via_p = math.dist(a, b) / scale
        assert via_h == pytest.approx(via_p, rel=1e-9)


def test_calibration_requires_invertible_homography():
    with pytest.raises(DegenerateCalibration):
        Calibration(np.zeros((3, 3)))
