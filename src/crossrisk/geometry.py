"""Camera-to-ground calibration: pixel to ground-plane meter conversion.

The oblique camera view is rectified with a planar homography fitted from
pixel<->world point correspondences (crosswalk corners measured in the
field). Every spot is calibrated this way; time comes from frame indices
and the spot's fps, not from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCalibration, PointAtInfinity

# Relative tolerance on the homogeneous divide term before a point counts
# as being on the vanishing line.
_W_EPS = 1e-12
# Relative doubled area below which three points count as collinear.
_COLLINEAR_TOL = 1e-9


@dataclass(frozen=True)
class Calibration:
    """Immutable pixel->world conversion for one camera spot.

    homography maps pixel coordinates to world meters on the ground plane.
    """

    homography: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.homography, dtype=float)
        if h.shape != (3, 3) or abs(np.linalg.det(h)) < 1e-15:
            raise DegenerateCalibration("homography must be an invertible 3x3 matrix")
        object.__setattr__(self, "homography", h)

    def to_world_many(self, points_px: np.ndarray) -> np.ndarray:
        """Vectorized pixel->world conversion for an (n, 2) array."""
        pts = np.asarray(points_px, dtype=float)
        ones = np.ones((pts.shape[0], 1))
        homog = np.hstack([pts, ones]) @ self.homography.T
        w = homog[:, 2]
        if np.any(np.abs(w) < _W_EPS * np.abs(homog[:, :2]).max(initial=1.0)):
            raise PointAtInfinity("a point lies on the vanishing line")
        return homog[:, :2] / w[:, None]


def _normalize_points(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hartley normalization: centroid at origin, mean distance sqrt(2)."""
    centroid = pts.mean(axis=0)
    d = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
    if d < 1e-12:
        raise DegenerateCalibration("correspondence points are coincident")
    s = math.sqrt(2.0) / d
    t = np.array([[s, 0.0, -s * centroid[0]],
                  [0.0, s, -s * centroid[1]],
                  [0.0, 0.0, 1.0]])
    ones = np.ones((pts.shape[0], 1))
    normed = (np.hstack([pts, ones]) @ t.T)[:, :2]
    return normed, t


def _collinear(a, b, c) -> bool:
    """True when the triangle abc has (relative) zero area."""
    area2 = abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))
    scale = max(abs(b[0] - a[0]), abs(b[1] - a[1]),
                abs(c[0] - a[0]), abs(c[1] - a[1]), 1.0)
    return area2 <= _COLLINEAR_TOL * scale * scale


def has_collinear_triple(points) -> bool:
    """Check every triple of a small point set for collinearity."""
    pts = [tuple(map(float, p)) for p in points]
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if _collinear(pts[i], pts[j], pts[k]):
                    return True
    return False


def fit_homography(correspondences) -> np.ndarray:
    """Least-squares projective fit from pixel->world correspondences.

    correspondences: sequence of ((px, py), (wx, wy)) pairs, at least 4.
    Returns the 3x3 matrix normalized to h22 = 1. Raises
    DegenerateCalibration when the configuration
    cannot pin down a homography (e.g. a coordinate that is not finite, or
    3 collinear world points among a minimal set of 4).
    """
    pairs = list(correspondences)
    if len(pairs) < 4:
        raise DegenerateCalibration(
            f"need at least 4 correspondences, got {len(pairs)}")
    src = np.array([p[0] for p in pairs], dtype=float)
    dst = np.array([p[1] for p in pairs], dtype=float)
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise DegenerateCalibration("correspondences must be finite")
    if len(pairs) == 4 and (has_collinear_triple(dst) or has_collinear_triple(src)):
        raise DegenerateCalibration("3 collinear points among a minimal set of 4")

    src_n, t_src = _normalize_points(src)
    dst_n, t_dst = _normalize_points(dst)

    a = np.zeros((2 * len(pairs), 9))
    for i, ((x, y), (u, v)) in enumerate(zip(src_n, dst_n)):
        a[2 * i] = [-x, -y, -1, 0, 0, 0, u * x, u * y, u]
        a[2 * i + 1] = [0, 0, 0, -x, -y, -1, v * x, v * y, v]
    _, sing, vt = np.linalg.svd(a)
    # Rank < 8 means the correspondences leave the fit underdetermined.
    if sing[7] < 1e-9 * sing[0]:
        raise DegenerateCalibration("correspondences are rank deficient")
    h_n = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_n @ t_src
    if abs(h[2, 2]) < 1e-12:
        raise DegenerateCalibration("fit produced a singular homography")
    return h / h[2, 2]
