"""1+1 cosmological particle creation on a torus with a tanh expansion law.

The scale factor is a(eta) = sqrt(A + B tanh(rho eta)) in conformal time;
coordinate time t = int a d(eta) has an elementary antiderivative, and its
inverse follows by Newton's method since dt/deta = a > 0.  Each mode pair
(n, -n) decouples into one small phase-stripped ODE system; the scenario
kernel integrates all pairs of a run, and the same pairs at half the
tolerance for its convergence check, as the rows of one solve.  The
analytic asymptotic pair-creation formula for this profile serves as the
oracle for the plateau values.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..coupling import DiagonalFamilyDriver
from ..errors import AsymptoteNotReached, InvalidArgument
from ..evolution import LastCall, evolve_Q
from ..geometry import Domain, diagonal_spacetime
from ..kernels import _flrw_a2
from ..spectral import OperatorSpec

#: tanh saturates to ~1e-7 at |rho eta| = 8; initial data further in is unsafe
MIN_SATURATION = 8.0
#: Newton converges in 2-4 steps; a bound keeps the loop finite regardless
_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class FlrwConfig:
    A: float
    B: float
    rho: float
    m: float
    L: float
    n_max: int = 5
    eta_span: tuple = (-10.0, 10.0)
    tol: float = 1e-10

    def __post_init__(self):
        if not self.A > abs(self.B):
            raise InvalidArgument(
                "need A > |B| >= 0 so a(eta)^2 = A + B tanh stays positive")
        if self.m < 0:
            raise InvalidArgument("mass must be non-negative")
        if self.L <= 0:
            raise InvalidArgument("torus length must be positive")
        if self.n_max < 1:
            raise InvalidArgument("n_max must be at least 1")
        if not (np.isfinite(self.eta_span[0]) and np.isfinite(self.eta_span[1])
                and self.eta_span[0] < self.eta_span[1]):
            raise InvalidArgument("eta_span must be a finite increasing pair")
        if self.tol <= 0:
            raise InvalidArgument("tolerance must be positive")

    def k_n(self, n: int) -> float:
        return 2.0 * np.pi * n / self.L

    def scale_factor_eta(self, eta):
        return np.sqrt(_flrw_a2(self.A, self.B, self.rho, np.asarray(eta))[0])

    def _time_antiderivative(self, eta):
        """T(eta) with dT/deta = a(eta), and a(eta).  With c+- = sqrt(A +- B)
        and sp(y) = log(1 + e^y),
        2 rho T = 2 c+ log(c+ + a) - 2 c- log(a + c-) - (c+ - c-) log(2|B|)
                  + c+ sp(2 rho eta) - c- sp(-2 rho eta)."""
        A, B, rho = self.A, self.B, self.rho
        eta = np.asarray(eta, dtype=float)
        a = self.scale_factor_eta(eta)
        if B == 0 or rho == 0:
            return a * eta, a
        cp, cm = np.sqrt(A + B), np.sqrt(A - B)
        y = 2.0 * rho * eta
        tail = np.log1p(np.exp(-np.abs(y)))     # sp(+-y) = max(+-y, 0) + tail
        return (2.0 * cp * np.log(cp + a) - 2.0 * cm * np.log(a + cm)
                - (cp - cm) * np.log(2.0 * abs(B))
                + cp * (np.maximum(y, 0.0) + tail)
                - cm * (np.maximum(-y, 0.0) + tail)) / (2.0 * rho), a

    def _t_anchor(self) -> float:
        """eta where t = 0: eta = 0 if the span holds it, else its start."""
        lo, hi = self.eta_span
        return 0.0 if lo < 0.0 < hi else float(lo)

    def eta_to_t(self, eta):
        """Coordinate time t(eta) = int a d(eta) from the anchor eta."""
        return (self._time_antiderivative(eta)[0]
                - self._time_antiderivative(self._t_anchor())[0])

    def t_to_eta(self, t: float) -> float:
        """Conformal time at coordinate time ``t`` (a scalar), inverting
        :meth:`eta_to_t` by Newton's method.  T is monotone and convex or
        concave throughout, so Newton converges from any start."""
        anchor = self._t_anchor()
        target = float(t) + float(self._time_antiderivative(anchor)[0])
        eta = anchor + float(t) / np.sqrt(self.A)
        for _ in range(_NEWTON_MAX_ITER):
            big_t, a = self._time_antiderivative(eta)
            step = (float(big_t) - target) / float(a)
            eta -= step
            # quadratic convergence: what is left after such a step is
            # below rounding
            if abs(step) <= 1e-12 * (1.0 + abs(eta)):
                break
        return eta

    def saturated(self) -> bool:
        r = abs(self.rho)
        return (r * abs(self.eta_span[0]) >= MIN_SATURATION
                and r * abs(self.eta_span[1]) >= MIN_SATURATION)


def asymptotic_beta_squared(cfg: FlrwConfig, k: float) -> float:
    """Closed-form |beta|^2 between the asymptotic regions for wavenumber k."""
    w_in = np.sqrt(k * k + cfg.m ** 2 * (cfg.A - cfg.B))
    w_out = np.sqrt(k * k + cfg.m ** 2 * (cfg.A + cfg.B))
    w_minus = 0.5 * (w_out - w_in)
    r = cfg.rho
    return float(np.sinh(np.pi * w_minus / r) ** 2
                 / (np.sinh(np.pi * w_in / r) * np.sinh(np.pi * w_out / r)))


@dataclass(eq=False)
class FlrwResult:
    config: FlrwConfig
    labels: tuple                     # mode numbers n
    eta: np.ndarray
    t: np.ndarray
    alpha: np.ndarray                 # (n_labels, n_samples) alpha_nn(t, t0)
    beta: np.ndarray                  # beta_(-n)n(t, t0)
    oracle_beta2: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def beta2(self) -> np.ndarray:
        return np.abs(self.beta) ** 2

    @property
    def alpha2(self) -> np.ndarray:
        return np.abs(self.alpha) ** 2

    @property
    def beta2_final(self) -> np.ndarray:
        return self.beta2[:, -1]

    def pair_identity_residual(self) -> float:
        """Max |(|alpha|^2 - 1) - |beta|^2| along the whole trajectory."""
        return float(np.max(np.abs(self.alpha2 - 1.0 - self.beta2)))


def _run_pairs(cfg: FlrwConfig, ks, eta_samples, tol):
    """(qa, qb, phase, solve, seconds of the solve) of the pairs with
    wavenumbers ks, one solve row each, at ``tol``: one value, or one value
    per pair."""
    params = [[cfg.A, cfg.B, cfg.rho, k, cfg.m] for k in ks]
    tol = np.asarray(tol, dtype=float)
    start = time.perf_counter()
    out = kernels.pair_evolution(
        kernels.FLRW_TANH, params, float(eta_samples[0]), eta_samples,
        rtol=tol, atol=tol, ident_cap=100.0 * tol)
    return (*out, time.perf_counter() - start)


def _to_u(qa, qb, phase):
    """(alpha, beta) = Theta (qa, qb): the pair shares one accumulated
    phase."""
    rot = np.exp(1j * phase)
    return rot * qa, rot * qb


def flrw_run(cfg: FlrwConfig, n_samples: int = 600,
             include_zero_mode: bool = True) -> FlrwResult:
    """Per-pair evolution curves |alpha_nn|^2 and |beta_(-n)n|^2 over time.

    Initial data alpha = 1, beta = 0 is imposed at the left end of the
    grid; the span should satisfy |rho eta| >= 8 at both ends for that to
    approximate the asymptotic past (warned otherwise).  The massless field
    is exactly trivial: the pair rate carries a factor m^2.

    The ODE tolerance is checked in the same solve: every pair is a row at
    ``cfg.tol`` and again a row at half of it, and a row takes the steps
    it takes alone.  ``meta["convergence"]`` holds both tolerances, the
    largest change of the final |beta|^2 between them and ``converged``,
    true when that change is below 1e-8.  ``meta`` holds the ``n_steps``,
    ``n_rejected`` and ``n_rhs`` of the ``cfg.tol`` rows, summed over the
    pairs, and their ``h_min`` and ``h_max``; ``meta["convergence_rerun"]``
    holds the same five entries of the half-tolerance rows, and
    ``stepper_s`` the wall time of the solve.
    """
    if not cfg.saturated():
        warnings.warn("eta_span too short for asymptotic initial data "
                      "(need |rho eta| >= 8)", AsymptoteNotReached, stacklevel=2)
    labels = list(range(1, cfg.n_max + 1))
    if include_zero_mode and cfg.m > 0:
        labels = [0] + labels
    eta_samples = np.linspace(cfg.eta_span[0], cfg.eta_span[1], n_samples)
    ks = [cfg.k_n(n) for n in labels]
    tols = [cfg.tol, cfg.tol / 2]
    qa, qb, phase, solve, stepper_s = _run_pairs(
        cfg, ks + ks, eta_samples, np.repeat(tols, len(ks)))
    run, rerun = slice(0, len(ks)), slice(len(ks), None)
    alpha, beta = _to_u(qa[run], qb[run], phase[run])
    # the half-tolerance rows: only their final |beta|^2 is kept
    _, beta_half = _to_u(qa[rerun, -1], qb[rerun, -1], phase[rerun, -1])
    oracle = np.array([asymptotic_beta_squared(cfg, k) for k in ks])

    result = FlrwResult(config=cfg, labels=tuple(labels), eta=eta_samples,
                        t=cfg.eta_to_t(eta_samples), alpha=alpha,
                        beta=beta, oracle_beta2=oracle)
    diff = float(np.max(np.abs(np.abs(beta_half) ** 2 - result.beta2_final)))
    result.meta.update(solve.stats(run), stepper_s=stepper_s,
                       convergence_rerun=solve.stats(rerun),
                       convergence={"tol": tols, "max_difference": diff,
                                    "converged": diff < 1e-8})
    result.meta["pair_identity_residual"] = result.pair_identity_residual()

    beta2 = result.beta2
    if n_samples < 20:
        return result     # too few samples for a meaningful plateau estimate
    tail = max(2, n_samples // 20)
    for row, n in enumerate(labels):
        b_end = beta2[row, -1]
        if b_end <= 0:
            continue
        slope = abs(beta2[row, -1] - beta2[row, -tail]) / (
            b_end * (eta_samples[-1] - eta_samples[-tail]))
        if slope > 1e-4:
            warnings.warn(
                f"|beta|^2 for n={n} has relative slope {slope:.2e} at the "
                "right end; asymptote not reached", AsymptoteNotReached,
                stacklevel=2)
            result.meta.setdefault("not_plateaued", []).append(n)
    return result


def flrw_unconfined_limit(cfg: FlrwConfig, k: float,
                          n_samples: int = 600) -> dict:
    """Continuum-wavenumber dispersion data: k_n -> k with the same machinery."""
    if k <= 0:
        raise InvalidArgument("wavenumber k must be positive")
    eta_samples = np.linspace(cfg.eta_span[0], cfg.eta_span[1], n_samples)
    qa, qb, phase, _, _ = _run_pairs(cfg, [k], eta_samples, cfg.tol)
    (alpha,), (beta,) = _to_u(qa, qb, phase)
    return {
        "k": k,
        "eta": eta_samples,
        "alpha": alpha,
        "beta": beta,
        "beta2_final": float(np.abs(beta[-1]) ** 2),
        "oracle_beta2": asymptotic_beta_squared(cfg, k),
    }


def flrw_spacetime(cfg: FlrwConfig):
    """SyncSpacetime on the torus with h_xx = a(t)^2 (for the generic path):
    a^2 and d(a^2)/dt = (d(a^2)/deta) / a straight from eta(t).  A driver
    asks for both at one t, which costs one Newton inversion t -> eta."""
    a2_at = LastCall(lambda t: _flrw_a2(cfg.A, cfg.B, cfg.rho,
                                        cfg.t_to_eta(t)))

    def scales(t):
        return np.array([a2_at(t)[0]])

    def scales_dt(t):
        a2, da2 = a2_at(t)
        return np.array([da2 / np.sqrt(a2)])

    return diagonal_spacetime(Domain((cfg.L,), (True,)), scales, scales_dt,
                              mass=cfg.m)


def flrw_generic_run(cfg: FlrwConfig, n_pairs: int, eta_window: tuple,
                     t_eval_eta=None):
    """Cross-validation path: full matrix evolve_Q on a truncated mode set.

    Uses the closed-form diagonal-family driver on the torus spacetime,
    with modes n in {-n_pairs..n_pairs} (0 included only for m > 0).
    Returns (labels, list of (t, BogoliubovMatrix of U blocks)).
    """
    st = flrw_spacetime(cfg)
    op = OperatorSpec(boundary=st.boundary)
    ns = list(range(-n_pairs, n_pairs + 1))
    if cfg.m == 0:
        ns.remove(0)
    labels = [(n,) for n in ns]
    driver = DiagonalFamilyDriver(op, st, labels=labels)
    t0 = float(cfg.eta_to_t(eta_window[0]))
    tf = float(cfg.eta_to_t(eta_window[1]))
    t_eval = None
    if t_eval_eta is not None:
        t_eval = [float(cfg.eta_to_t(e)) for e in t_eval_eta]
    out = evolve_Q(driver, t0, tf, tol=cfg.tol, t_eval=t_eval)
    pairs = out if isinstance(out, list) else [out]
    times = t_eval if t_eval is not None else [tf]
    return driver.labels, [(t, acc.to_U(q)) for t, (q, acc) in zip(times, pairs)]
