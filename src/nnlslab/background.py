"""Background-dependent analytic machinery.

Branch-fixed square roots f(k) and w(k) with a single cut on the segment
[-iA, iA] of the imaginary axis, the diagonalizing matrix E(k), the ray
phase function, stationary points, and ray classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ray",
    "RayRegion",
    "classify_ray",
    "f_branch",
    "w_branch",
    "E_matrix",
    "theta_phase",
    "stationary_points",
]

class RayRegion(enum.Enum):
    PLANE_WAVE = "plane_wave"
    ELLIPTIC_WAVE = "elliptic_wave"
    TRANSITION = "transition"


@dataclass(frozen=True)
class Ray:
    xi: float
    region: RayRegion

    def __post_init__(self):
        object.__setattr__(self, "xi", float(self.xi))


def classify_ray(xi, A):
    """Classify a ray xi = x/(4t): plane wave for |xi| > sqrt(2)A, elliptic
    for 0 < |xi| < sqrt(2)A, transition exactly at |xi| in {0, sqrt(2)A}."""
    xi = float(xi)
    edge = np.sqrt(2.0) * A
    if xi == 0.0 or abs(xi) == edge:
        region = RayRegion.TRANSITION
    elif abs(xi) > edge:
        region = RayRegion.PLANE_WAVE
    else:
        region = RayRegion.ELLIPTIC_WAVE
    return Ray(xi, region)


def _angle_cut_down(z):
    """arg(z) in [-pi/2, 3pi/2): branch cut along the negative imaginary ray."""
    a = np.angle(z)
    return a + 2.0 * np.pi * (a < -np.pi / 2)


def _check_endpoints(k, A):
    k = np.asarray(k, dtype=complex)
    if np.any(k == 1j * A) or np.any(k == -1j * A):
        raise ValueError("evaluation at the branch points +-iA")


def _vertical_root(k, p):
    """((k - p)(k - conj p))^(1/2) cut on the vertical segment [conj p, p],
    ~ k at infinity; plain evaluation on the cut gives its right side."""
    k = np.asarray(k, dtype=complex)
    pc = np.conj(p)
    phi = _angle_cut_down(k - p) + _angle_cut_down(k - pc)
    mod = np.sqrt(np.abs(k - p) * np.abs(k - pc))
    out = mod * np.exp(0.5j * phi)
    return out if out.ndim else complex(out)


def f_branch(k, A):
    """f(k) = (k^2 + A^2)^(1/2), analytic off [-iA, iA], f(k) ~ k at infinity.

    On the cut the stored convention is the right-side (minus) limit, which
    equals +sqrt(k^2 + A^2) > 0 there; plain evaluation on the cut gives it,
    by the angle ranges of ``_angle_cut_down``.
    """
    _check_endpoints(k, A)
    return _vertical_root(k, 1j * A)


def w_branch(k, A):
    """w(k) = ((k - iA)/(k + iA))^(1/4), analytic off [-iA, iA], w -> 1 at oo.

    On the cut, plain evaluation gives the right-side (minus) limit, as for
    ``f_branch``."""
    _check_endpoints(k, A)
    k = np.asarray(k, dtype=complex)
    phi = _angle_cut_down(k - 1j * A) - _angle_cut_down(k + 1j * A)
    mod = (np.abs(k - 1j * A) / np.abs(k + 1j * A)) ** 0.25
    out = mod * np.exp(0.25j * phi)
    return out if out.ndim else complex(out)


def E_matrix(k, A):
    """The diagonalizer of the background Lax matrix, built from w(k).

    For array input of shape (...) the result has shape (..., 2, 2).
    det E(k) = 1 identically.
    """
    w = np.asarray(w_branch(k, A))
    p = 0.5 * (w + 1.0 / w)
    m = 0.5 * (w - 1.0 / w)
    out = np.empty(w.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = p
    out[..., 0, 1] = m
    out[..., 1, 0] = m
    out[..., 1, 1] = p
    return out


def theta_phase(k, xi, A):
    """Ray phase theta(k, xi) = (2k + 4*xi) * f(k)."""
    k = np.asarray(k, dtype=complex)
    out = (2.0 * k + 4.0 * xi) * f_branch(k, A)
    return out if out.ndim else complex(out)


def stationary_points(xi, A):
    """Stationary points of the ray phase for xi >= 0.

    Real pair for xi >= sqrt(2)A, complex-conjugate pair otherwise
    (first entry in the upper half plane).
    """
    xi = float(xi)
    if xi < 0:
        raise ValueError("stationary_points expects xi >= 0")
    disc = xi * xi - 2.0 * A * A
    if disc >= 0:
        r = np.sqrt(disc)
        return 0.5 * (-xi - r) + 0j, 0.5 * (-xi + r) + 0j
    r = np.sqrt(-disc)
    return 0.5 * (-xi + 1j * r), 0.5 * (-xi - 1j * r)
