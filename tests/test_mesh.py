import numpy as np

from solitonlab import mesh


def _loop_faces(rows, cols, closed, ok=None):
    """Quad-split triangles of a lattice, quad by quad, as nested loops."""
    faces = []
    for i in range(rows if closed else rows - 1):
        i2 = (i + 1) % rows
        for j in range(cols - 1):
            if ok is not None and not (ok[i, j] and ok[i2, j]
                                       and ok[i2, j + 1] and ok[i, j + 1]):
                continue
            a, b = i * cols + j, i2 * cols + j
            faces += [[a, b, b + 1], [a, b + 1, a + 1]]
    return faces


def test_revolve_closed_lattice():
    s = np.linspace(0.1, 1.0, 5)
    z = s ** 2
    verts, faces = mesh.revolve(s, z, 6)
    assert verts.shape == (30, 3)
    assert faces.tolist() == _loop_faces(6, 5, closed=True)
    np.testing.assert_allclose(np.hypot(verts[:, 0], verts[:, 1]), np.tile(s, 6))
    np.testing.assert_array_equal(verts[:, 2], np.tile(z, 6))


def test_boost_sweep_open_lattice():
    s = np.linspace(0.5, 2.0, 4)
    for timelike, sign in ((False, 1.0), (True, -1.0)):
        verts, faces = mesh.boost_sweep(s, -s, 5, 1.0, timelike)
        assert faces.tolist() == _loop_faces(5, 4, closed=False)
        # orbits are hyperbolas x^2 - y^2 = +-s^2
        np.testing.assert_allclose(verts[:, 0] ** 2 - verts[:, 1] ** 2,
                                   sign * np.tile(s, 5) ** 2)


def test_cap_ends_adds_axis_fans():
    verts, faces = mesh.cap_ends(mesh.revolve(np.linspace(0.1, 1.0, 4),
                                              np.zeros(4), 3), 3, (-2.0, 2.0))
    assert verts.shape == (14, 3)
    np.testing.assert_array_equal(verts[-2:], [[0, 0, -2.0], [0, 0, 2.0]])
    assert faces[-6:].tolist() == [[12, 4, 0], [13, 3, 7], [12, 8, 4],
                                   [13, 7, 11], [12, 0, 8], [13, 11, 3]]


def test_height_field_skips_nonfinite_quads():
    x = np.linspace(-1.0, 1.0, 4)
    y = np.linspace(-1.0, 1.0, 5)
    u = np.add.outer(x, y)
    u[1, 2] = np.nan
    verts, faces = mesh.height_field(x, y, u)
    assert faces.tolist() == _loop_faces(4, 5, closed=False, ok=np.isfinite(u))
    assert verts[1 * 5 + 2, 2] == 0.0
    assert verts[3 * 5 + 4].tolist() == [1.0, 1.0, 2.0]


def test_diagonals_are_the_height_field_diagonals():
    """diagonals(n) are the height_field vertices at (x[i], y[i]) and
    (x[i], y[n - 1 - i]): on a symmetric square grid, where y = x and
    y = -x."""
    for n in (2, 5, 6):
        ax = np.linspace(-1.0, 1.0, n) ** 3
        ax = (ax - ax[::-1]) / 2    # exactly odd, so -x is on the grid
        verts, _ = mesh.height_field(ax, ax, np.zeros((n, n)))
        main, anti = mesh.diagonals(n)
        np.testing.assert_array_equal(verts[main, :2], np.column_stack([ax, ax]))
        np.testing.assert_array_equal(verts[anti, :2], np.column_stack([ax, ax[::-1]]))
        on_main = np.flatnonzero(verts[:, 0] == verts[:, 1])
        on_anti = np.flatnonzero(verts[:, 0] == -verts[:, 1])
        assert main.tolist() == on_main.tolist()
        assert sorted(anti.tolist()) == on_anti.tolist()
