"""Triangle meshes of profile surfaces, as (verts, faces) arrays.

verts is (k, 3) float, faces (m, 3) zero-based vertex indices.  Vertex
lattices are stored row by row; the quad at a = (i, j), b = (i + 1, j)
splits into (a, b, b+1) and (a, b+1, a+1), quad by quad in row order.
"""

from __future__ import annotations

import math

import numpy as np


def _quad_faces(rows: int, cols: int, closed: bool) -> np.ndarray:
    """Triangles of a rows x cols lattice; closed joins the last row to the first."""
    i = np.arange(rows if closed else rows - 1)[:, None]
    j = np.arange(cols - 1)[None, :]
    a, b = i * cols + j, (i + 1) % rows * cols + j
    return np.stack([a, b, b + 1, a, b + 1, a + 1], axis=-1).reshape(-1, 3)


def _sweep(s, z, angles, fx, fy, closed: bool):
    """One lattice row (s*fx(t), s*fy(t), z) per angle t, with its faces."""
    verts = np.empty((len(angles), len(s), 3))
    verts[..., 0] = np.array([fx(t) for t in angles])[:, None] * s
    verts[..., 1] = np.array([fy(t) for t in angles])[:, None] * s
    verts[..., 2] = z
    return verts.reshape(-1, 3), _quad_faces(len(angles), len(s), closed)


def revolve(s: np.ndarray, z: np.ndarray, n_theta: int):
    """Surface of revolution of the profile z(s) about the vertical axis."""
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    return _sweep(s, z, theta, math.cos, math.sin, closed=True)


def boost_sweep(s: np.ndarray, z: np.ndarray, n_theta: int, theta_max: float,
                timelike: bool):
    """Boost orbits of the profile z(s) over hyperbolic angles within
    theta_max: (s cosh t, s sinh t), or (s sinh t, s cosh t) when timelike.
    theta_max must be positive and finite, and every vertex finite."""
    if not 0.0 < theta_max < math.inf:
        raise ValueError(f"theta_max must be positive and finite, got {theta_max}")
    theta = np.linspace(-theta_max, theta_max, n_theta)
    fx, fy = (math.sinh, math.cosh) if timelike else (math.cosh, math.sinh)
    try:
        with np.errstate(over="raise"):
            verts, faces = _sweep(s, z, theta, fx, fy, closed=False)
        finite = np.isfinite(verts).all()
    except (OverflowError, FloatingPointError):
        finite = False
    if not finite:
        raise ValueError(f"theta_max = {theta_max} gives vertices that are not finite")
    return verts, faces


def cap_ends(surface, n_theta: int, z_ends):
    """Close a revolve() surface with triangle fans to the axis at z_ends."""
    verts, faces = surface
    n = len(verts) // n_theta
    i = np.arange(n_theta)
    i2 = (i + 1) % n_theta
    left, right = np.full(n_theta, len(verts)), np.full(n_theta, len(verts) + 1)
    fans = np.stack([left, i2 * n, i * n, right, i * n + n - 1, i2 * n + n - 1],
                    axis=-1).reshape(-1, 3)
    axis = [[0.0, 0.0, z_ends[0]], [0.0, 0.0, z_ends[1]]]
    return np.vstack([verts, axis]), np.concatenate([faces, fans])


def height_field(x: np.ndarray, y: np.ndarray, u: np.ndarray):
    """Graph of u[i, j] over (x[i], y[j]); non-finite heights become 0 and
    quads with a non-finite corner are left out."""
    ok = np.isfinite(u)
    verts = np.empty((len(x), len(y), 3))
    verts[..., 0] = x[:, None]
    verts[..., 1] = y
    verts[..., 2] = np.where(ok, u, 0.0)
    keep = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    faces = _quad_faces(len(x), len(y), closed=False)
    return verts.reshape(-1, 3), faces[np.repeat(keep.ravel(), 2)]


def diagonals(n: int):
    """Zero-based vertices on the two diagonals of an n x n height_field
    lattice: (x[i], y[i]) and (x[i], y[n - 1 - i]), in order of i."""
    i = np.arange(n)
    return i * n + i, i * n + (n - 1 - i)
