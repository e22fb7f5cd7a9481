"""Synchronous-gauge spatial geometries and the scalar factors they induce.

A spacetime is described by its spatial metric ``h(t, x)`` on a coordinate
box or torus (lapse 1, no shift).  The two scalar factors entering the
reduced field equation are

    q(t)    = d/dt log sqrt(det h)            (metric change rate)
    rbar(t) = 2 dq/dt + q^2 - (1/4) (d_t h^{ij}) (d_t h_{ij})

both evaluated pointwise on a slice.  Metric callables are vectorized: for
points of shape (npts, dim) they return (npts, dim, dim) arrays.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidArgument, SingularMetric

#: Relative step for central time differences of metric-derived scalars.
FD_REL_STEP = 1e-5
#: Allowed mismatch, relative to the metric's scale, between ``dh_dt`` and
#: central differences of ``h`` at the construction self-check.
DERIV_CHECK_TOL = 1e-6

_BOUNDARY_KINDS = ("none", "dirichlet", "neumann", "robin")


def time_step(t: float) -> float:
    return FD_REL_STEP * max(1.0, abs(t))


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary condition on the (static) spatial boundary.

    ``robin_gamma`` is a function of the boundary point only; it must be
    nowhere zero and carries no time argument by construction.
    """

    kind: str = "none"
    robin_gamma: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        if self.kind not in _BOUNDARY_KINDS:
            raise InvalidArgument(f"unknown boundary kind {self.kind!r}")
        if self.kind == "robin" and self.robin_gamma is None:
            raise InvalidArgument("robin boundary requires robin_gamma")
        if self.kind != "robin" and self.robin_gamma is not None:
            raise InvalidArgument("robin_gamma only applies to robin boundaries")

    def gamma_at(self, x) -> float:
        g = float(self.robin_gamma(np.asarray(x, dtype=float)))
        if g == 0.0:
            raise InvalidArgument("robin_gamma must be nowhere zero")
        return g


@dataclass(frozen=True)
class Domain:
    """Coordinate-aligned box, with per-axis periodic (torus) flags."""

    lengths: tuple
    periodic: tuple

    def __post_init__(self):
        if len(self.lengths) != len(self.periodic):
            raise InvalidArgument("lengths and periodic flags differ in rank")
        if any(L <= 0 for L in self.lengths):
            raise InvalidArgument("domain lengths must be positive")

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def bounds(self):
        return tuple((0.0, L) for L in self.lengths)

    def sample_points(self, n_per_axis: int = 3) -> np.ndarray:
        """Deterministic interior points used for construction self-checks."""
        axes = [np.linspace(0.21 * L, 0.83 * L, n_per_axis) for L in self.lengths]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


def _as_points(x, dim):
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[-1] != dim:
        raise InvalidArgument(f"points have dimension {pts.shape[-1]}, expected {dim}")
    return pts, single


@dataclass(frozen=True)
class SyncSpacetime:
    """Spatial metric history plus field parameters on a box/torus domain.

    ``diag_scales`` marks the analytic family of spatially constant diagonal
    metrics h = diag(s_1(t), ..., s_dim(t)); eigenbases for it are known in
    closed form and solvers take the fast path when it is present.
    """

    domain: Domain
    h: Callable
    dh_dt: Callable
    mass: float = 0.0
    coupling: float = 0.0
    spatial_curvature: Optional[Callable] = None
    boundary: BoundarySpec = field(default_factory=BoundarySpec)
    diag_scales: Optional[Callable] = None
    diag_scales_dt: Optional[Callable] = None
    check_times: Sequence[float] = (0.0,)

    def __post_init__(self):
        if self.mass < 0:
            raise InvalidArgument("mass must be non-negative")
        if self.boundary.kind == "none" and not all(self.domain.periodic):
            raise InvalidArgument(
                "a boundary-free slice must be fully periodic")
        if self.boundary.kind != "none" and all(self.domain.periodic):
            raise InvalidArgument("torus domains carry no boundary condition")
        self._self_check()

    @property
    def dim(self) -> int:
        return self.domain.dim

    def curvature_at(self, t, x):
        if self.spatial_curvature is None:
            return np.zeros(np.shape(np.asarray(x))[:-1] or ())
        pts, single = _as_points(x, self.dim)
        v = np.asarray(self.spatial_curvature(t, pts), dtype=float)
        return v[0] if single else v

    def sqrt_det_h(self, t, x) -> np.ndarray:
        pts, single = _as_points(x, self.dim)
        hm = np.asarray(self.h(t, pts), dtype=float)
        det = hm[:, 0, 0] if self.dim == 1 else np.linalg.det(hm)
        if np.any(det <= 0):
            raise SingularMetric(f"det h <= 0 at t={t}")
        root = np.sqrt(det)
        return root[0] if single else root

    def _self_check(self):
        pts = self.domain.sample_points()
        for t in self.check_times:
            m = np.asarray(self.h(t, pts), dtype=float)
            eig = np.linalg.eigvalsh(m)
            if np.any(eig <= 0):
                raise SingularMetric(
                    f"h(t={t}) is not positive definite at a sample point")
            dt = time_step(t)
            fd = (np.asarray(self.h(t + dt, pts), dtype=float)
                  - np.asarray(self.h(t - dt, pts), dtype=float)) / (2 * dt)
            given = np.asarray(self.dh_dt(t, pts), dtype=float)
            scale = max(float(np.max(np.abs(given))), float(np.max(np.abs(m))), 1.0)
            if np.max(np.abs(fd - given)) > DERIV_CHECK_TOL * scale:
                raise InvalidArgument(
                    "dh_dt is inconsistent with central differences of h")


def diagonal_spacetime(domain: Domain, scales: Callable, scales_dt: Optional[Callable] = None,
                       mass: float = 0.0, coupling: float = 0.0,
                       boundary: Optional[BoundarySpec] = None,
                       **kwargs) -> SyncSpacetime:
    """Spacetime with spatially constant diagonal metric h = diag(scales(t))."""
    dim = domain.dim
    if boundary is None:
        boundary = BoundarySpec("none" if all(domain.periodic) else "dirichlet")
    if scales_dt is None:
        def scales_dt(t, _s=scales):
            dt = time_step(t)
            return (np.asarray(_s(t + dt), dtype=float)
                    - np.asarray(_s(t - dt), dtype=float)) / (2 * dt)

    def h(t, pts):
        s = np.asarray(scales(t), dtype=float)
        return np.broadcast_to(np.diag(s), (len(pts), dim, dim)).copy()

    def dh_dt(t, pts):
        ds = np.asarray(scales_dt(t), dtype=float)
        return np.broadcast_to(np.diag(ds), (len(pts), dim, dim)).copy()

    return SyncSpacetime(domain=domain, h=h, dh_dt=dh_dt, mass=mass,
                         coupling=coupling, boundary=boundary,
                         diag_scales=scales, diag_scales_dt=scales_dt, **kwargs)


def flrw_torus(a: Callable, a_dot: Optional[Callable] = None, length: float = 1.0,
               mass: float = 0.0, coupling: float = 0.0, **kwargs) -> SyncSpacetime:
    """1-torus with scale factor a(t), i.e. h_xx = a(t)^2."""
    domain = Domain((length,), (True,))
    if a_dot is None:
        def scales_dt(t):
            dt = time_step(t)
            return np.array([(a(t + dt) ** 2 - a(t - dt) ** 2) / (2 * dt)])
    else:
        def scales_dt(t):
            return np.array([2.0 * a(t) * a_dot(t)])
    return diagonal_spacetime(domain, lambda t: np.array([a(t) ** 2]),
                              scales_dt, mass=mass, coupling=coupling, **kwargs)


def static_spacetime(domain: Domain, metric: Optional[np.ndarray] = None,
                     mass: float = 0.0, coupling: float = 0.0,
                     boundary: Optional[BoundarySpec] = None) -> SyncSpacetime:
    """Time-independent diagonal metric (identity by default)."""
    g = np.ones(domain.dim) if metric is None else np.asarray(metric, dtype=float)
    return diagonal_spacetime(domain, lambda t: g, lambda t: np.zeros_like(g),
                              mass=mass, coupling=coupling, boundary=boundary)


def _metric_rate(st: SyncSpacetime, t: float, pts) -> np.ndarray:
    """h^{-1} d_t h at each point, shape (npts, dim, dim); in 1D dh/h."""
    hm = np.asarray(st.h(t, pts), dtype=float)
    hd = np.asarray(st.dh_dt(t, pts), dtype=float)
    det = hm[:, 0, 0] if st.dim == 1 else np.linalg.det(hm)
    if np.any(np.abs(det) < 1e-300):
        raise SingularMetric(f"h(t={t}) is numerically singular")
    return hd / hm if st.dim == 1 else np.linalg.solve(hm, hd)


def q_factor(st: SyncSpacetime, t: float, x) -> float:
    """Metric change rate (1/2) tr(h^{-1} d_t h) at (t, x)."""
    pts, single = _as_points(x, st.dim)
    q = 0.5 * np.trace(_metric_rate(st, t, pts), axis1=-2, axis2=-1)
    return float(q[0]) if single else q


def rbar_factor(st: SyncSpacetime, t: float, x) -> float:
    """Time-derivative part of the scalar curvature of the full metric.

    Uses (d_t h^{ij})(d_t h_{ij}) = -tr[(h^{-1} d_t h)^2] and a central
    difference for dq/dt.
    """
    pts, single = _as_points(x, st.dim)
    rate = _metric_rate(st, t, pts)
    q = 0.5 * np.trace(rate, axis1=-2, axis2=-1)
    tr_sq = np.trace(rate @ rate, axis1=-2, axis2=-1)
    dt = time_step(t)
    dq = (q_factor(st, t + dt, pts) - q_factor(st, t - dt, pts)) / (2 * dt)
    rbar = 2.0 * dq + q ** 2 + 0.25 * tr_sq
    return float(rbar[0]) if single else rbar
