"""Second-order finite differences for a 1D slice: an independent oracle.

The slice operator -d/dx(p dPhi/dx) + w V Phi = omega^2 w Phi, with
w = sqrt(h_xx) and p = 1/w, in flux form on ``points`` uniform cells:
p at the cell midpoints, a diagonal mass matrix of trapezoid weights times
w at the nodes.  Dirichlet grids keep the interior nodes; Neumann grids
keep both ends; Robin walls add gamma to the two end entries of K; a torus
closes the band.  Its eigenvalues converge to the slice's at O(dx^2),
which is what the Galerkin solver is checked against.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import eigsh


def fd_operator(op, st, t, points):
    """(x, main, off, mass): K = tridiag(off, main, off), plus the corner
    entry off[-1] = K[n-1, 0] on a torus, and M = diag(mass)."""
    L = st.domain.lengths[0]
    periodic = st.domain.periodic[0]
    dx = L / points
    p = 1.0 / st.sqrt_det_h(t, ((np.arange(points) + 0.5) * dx)[:, None])
    x = np.arange(points if periodic else points + 1) * dx
    lump = np.full(len(x), dx)
    if periodic:
        main, off = (p + np.roll(p, 1)) / dx, -p / dx
    else:
        lump[[0, -1]] = 0.5 * dx
        if op.boundary.kind == "dirichlet":
            x, lump = x[1:-1], lump[1:-1]
            main, off = (p[:-1] + p[1:]) / dx, -p[1:-1] / dx
        else:
            main = np.zeros(len(x))
            main[:-1] += p / dx
            main[1:] += p / dx
            off = -p / dx
    w = st.sqrt_det_h(t, x[:, None])
    main = main + w * op.potential(st, t, x[:, None]) * lump
    if op.boundary.kind == "robin":
        main[0] += op.boundary.gamma_at(np.array([0.0]))
        main[-1] += op.boundary.gamma_at(np.array([L]))
    return x, main, off, w * lump


def fd_omegas(op, st, t, n_modes, points):
    """The lowest ``n_modes`` frequencies of the FD problem, ascending."""
    x, main, off, mass = fd_operator(op, st, t, points)
    # the symmetric D K D, D = mass^(-1/2)
    d = 1.0 / np.sqrt(mass)
    main = main * d * d
    off = off * d[:len(off)] * np.roll(d, -1)[:len(off)]
    if st.domain.periodic[0]:
        n = len(x)
        rows = np.arange(n)
        link = coo_matrix((off, (rows, (rows + 1) % n)), shape=(n, n))
        T = (diags(main) + link + link.T).tocsc()
        # shift-invert just below the spectrum, which starts above min V
        vmin = float(np.min(op.potential(st, t, x[:, None])))
        sigma = min(0.0, vmin) - max(1e-8, 1e-3 * max(abs(vmin), 1.0))
        v0 = np.random.default_rng(0).standard_normal(n)
        vals = np.sort(eigsh(T, k=n_modes, sigma=sigma, which="LM", v0=v0)[0])
    else:
        vals = eigh_tridiagonal(main, off, eigvals_only=True, select="i",
                                select_range=(0, n_modes - 1))
    return np.sqrt(vals)
