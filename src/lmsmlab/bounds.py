"""Numerical verification of the kernel-integral and covariance decay bounds.

Deterministic checks (r_q, the two kernel product integrals, the decay
exponent) witness their constants on grids and certify stability under
quadrature refinement.  Monte Carlo checks (coefficient scale, covariance
decay, path-vs-frozen coefficient error) use the weight-vector form of the
direct coefficients: weights depend only on grid geometry, so one weight
matrix serves every replicate and the sampling cost is one matrix product per
chunk of replicates.  Each chunk of about two ``stable._TILE`` draws takes its
noise from its own Philox stream, so the chunks are independent: ``_threads``
workers, one per CPU of the affinity mask, draw them side by side, each
taking its chunks' products on itself (``stable.serial_matmul``), and the
coefficients are the same for every worker count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .coeffs import FrozenLevels, build_pyramid, noise_step
from .process import (
    HurstFunction,
    MeshFieldInterpolant,
    direct_coeff_weights,
    make_noise_grid,
    simulate_lmsm,
)
from .stable import StableLaw, _TILE, _stream, moment_constant, serial_matmul, unit_sas
from .wavelet import PhiKernel, gauss_panel_sums

__all__ = [
    "BoundReport",
    "rq_integral",
    "rq_sweep_report",
    "phi1_integral",
    "phi2_integral",
    "phi_decay_report",
    "lambda_exponent",
    "lambda_grid_report",
    "covariance_mc_check",
    "scale_param_check",
    "approx_error_check",
]


@dataclass
class BoundReport:
    """Outcome of one bound check: the witnessed constant, never an asserted one."""

    name: str
    grid: str
    witnessed_constant: float
    bound_exponent: float
    passed: bool
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report in JSON types: numpy scalars and arrays become Python
        numbers, bools and lists, tuples become lists, anything else its str."""
        return json.loads(json.dumps(asdict(self), default=lambda x: (
            x.tolist() if isinstance(x, (np.generic, np.ndarray)) else str(x))))


# ---------------------------------------------------------------------------
# r_q integrals
# ---------------------------------------------------------------------------


def rq_integral(delta: float, gamma: float, q: int) -> float:
    """r_q = int (1 + |u - q|)**-delta (1 + |u|)**-gamma du.

    With q >= 0 (r_{-q} = r_q), a = delta + gamma - 2 > -1 and 1 + x = 1/t on
    each half-line outside [0, q],
        r_q = int_0^1 t^a [(1+qt)^-gamma + (1+qt)^-delta] dt
              + int_0^q (1+q-u)^-delta (1+u)^-gamma du.
    Gauss panels [2^-(k+1), 2^-k], k < 60, take the first integral, and
    2 h^(a+1)/(a+1) takes [0, h = 2^-60] to a relative max(delta, gamma) q h;
    panels graded by 1.35 from both ends of [0, q] take the second.
    """
    if min(delta, gamma) < 0 or max(delta, gamma) <= 1.0:
        raise ValueError("need delta, gamma >= 0 with max(delta, gamma) > 1")
    q, a, h = abs(float(q)), delta + gamma - 2.0, 2.0**-60
    outer = gauss_panel_sums(2.0 ** -np.arange(60.0, -1.0, -1.0),
                             lambda t: t**a * ((1 + q * t) ** -gamma + (1 + q * t) ** -delta))
    half = [0.0]  # edges on [0, q/2], 1.35 times as far from u = -1 each; mirrored
    while half[-1] < 0.5 * q:
        half.append(min(1.35 * (1.0 + half[-1]) - 1.0, 0.5 * q))
    inner = gauss_panel_sums(np.concatenate([half, q - np.array(half[-2::-1])]),
                             lambda u: (1 + q - u) ** -delta * (1 + u) ** -gamma)
    return 2.0 * h ** (a + 1.0) / (a + 1.0) + float(np.sum(outer)) + float(np.sum(inner))


# the r_q sweep's q = 0 term must match r_0 = 2/(delta + gamma - 1) to this
# residual, and its products may grow by less than this factor over the last step
_RQ_RESIDUAL, _RQ_LAST_GROWTH = 1e-8, 1.05


def rq_sweep_report(delta: float, gamma: float) -> BoundReport:
    """Witness sup_q (1 + |q|)**min(delta, gamma) r_q over q = 0, the Fibonacci
    numbers up to 144, and 200; passes when r_0 matches its closed form and the
    products grow by less than 5% from q = 144 to 200."""
    expo = min(delta, gamma)
    qs = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200]
    prods = np.array([(1.0 + q) ** expo * rq_integral(delta, gamma, q) for q in qs])
    witnessed = float(prods.max())
    residual = abs(float(prods[0]) - 2.0 / (delta + gamma - 1.0))
    passed = bool(np.isfinite(witnessed) and prods[-1] / prods[-2] < _RQ_LAST_GROWTH
                  and residual < _RQ_RESIDUAL)
    return BoundReport(
        name=f"rq_sweep(delta={delta}, gamma={gamma})",
        grid=f"q in {qs}",
        witnessed_constant=witnessed,
        bound_exponent=-expo,
        passed=passed,
        tolerance=_RQ_LAST_GROWTH,
        details={"products": prods, "qs": qs, "last_over_max": float(prods[-1] / prods.max()),
                 "closed_form_residual": residual},
    )


# ---------------------------------------------------------------------------
# kernel product integrals
# ---------------------------------------------------------------------------

# the product integrals stop this far below their support's top end, and
# phi_decay_report passes when the fitted slope is at most -exponent + slack
# and the witnessed constant moves by less than the drift at twice the panels
_PHI_S_SPAN, _PHI_DECAY_SLACK, _PHI_DRIFT = 4096.0, 0.2, 0.01


def _phi_product_integral(
    phi: PhiKernel, H: HurstFunction, j: int, k: int, l: int, p_first: float,
    p_second: float, panels_scale: int,
) -> float:
    """int |Phi(u - k, h_k)|**p_first |Phi(u - l, h_l)|**p_second du, with
    h_k and h_l the frozen Hurst values of cells k and l at level j.

    The integrand is supported on u <= min(k, l) + 1 and decays like a double
    power; graded panels with Gauss nodes handle the |.|**p cusps at kernel
    zeros well enough for the decay sweeps.
    """
    h_k = float(H.frozen(j, k))
    h_l = float(H.frozen(j, l))
    hi = min(k, l) + 1.0
    lo_core = min(k, l) - 4.0 - abs(k - l)
    n_core = int((hi - lo_core) * 8 * max(1, panels_scale // 16))
    core = np.linspace(lo_core, hi, max(n_core, 8) + 1)
    geo = [lo_core]
    while geo[-1] > hi - _PHI_S_SPAN:
        step = max(abs(geo[-1] - hi), 1.0) * 0.35
        geo.append(max(geo[-1] - step, hi - _PHI_S_SPAN))
    edges = np.concatenate([np.array(geo[::-1]), core[1:]])

    def integrand(u):
        return np.abs(phi.phi(u - k, h_k)) ** p_first * np.abs(phi.phi(u - l, h_l)) ** p_second

    return float(np.sum(gauss_panel_sums(edges, integrand)))


def phi1_integral(
    phi: PhiKernel, H: HurstFunction, j: int, k: int, l: int, panels_scale: int = 16
) -> float:
    """Half-power product integral int |Phi(u-k, H_k) Phi(u-l, H_l)|**(alpha/2) du."""
    p = phi.alpha / 2.0
    return _phi_product_integral(phi, H, j, k, l, p, p, panels_scale=panels_scale)


def phi2_integral(
    phi: PhiKernel, H: HurstFunction, j: int, k: int, l: int, panels_scale: int = 16
) -> float:
    """Asymmetric product integral int |Phi(u-k, H_k)|**(alpha-1) |Phi(u-l, H_l)| du."""
    return _phi_product_integral(phi, H, j, k, l, phi.alpha - 1.0, 1.0,
                                 panels_scale=panels_scale)


def _phi_exponents(alpha: float, h_high: float) -> tuple[float, float]:
    """The decay exponents of phi1 and phi2: alpha/2 and alpha - 1 times
    2 + 1/alpha - h_high."""
    base = 2.0 + 1.0 / alpha - h_high
    return alpha / 2.0 * base, (alpha - 1.0) * base


def lambda_exponent(alpha: float, h_high: float) -> float:
    """Covariance decay exponent min{alpha/2, alpha - 1} * (2 + 1/alpha - h_high)."""
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must be in (1, 2)")
    if not 1.0 / alpha < h_high < 1.0:
        raise ValueError("h_high must be in (1/alpha, 1)")
    lam = min(_phi_exponents(alpha, h_high))
    assert lam > 0.0
    return lam


def phi_decay_report(
    phi: PhiKernel, H: HurstFunction, j: int, lags, which: str, panels_scale: int = 16
) -> BoundReport:
    """Fit the log-log decay of phi1 or phi2 over |k - l|; passes when the
    slope is at most the bound's -exponent + 0.2 and the witnessing lag,
    integrated again at ``2 * panels_scale``, moves the constant by under 1%."""
    expo1, expo2 = _phi_exponents(phi.alpha, H.h_high)
    if which == "phi1":
        integral, expo = phi1_integral, expo1
    elif which == "phi2":
        integral, expo = phi2_integral, expo2
    else:
        raise ValueError("which must be 'phi1' or 'phi2'")
    k0 = 0
    lags = np.asarray(sorted(lags), dtype=int)
    vals = np.array(
        [integral(phi, H, j, k0, k0 + int(q), panels_scale=panels_scale) for q in lags]
    )
    factor = (1.0 + lags) ** expo
    top = int(np.argmax(vals * factor))
    witnessed = float(vals[top] * factor[top])
    fine = factor[top] * integral(phi, H, j, k0, k0 + int(lags[top]),
                                  panels_scale=2 * panels_scale)
    drift = float(abs(fine - witnessed) / max(abs(fine), 1e-300))
    slope = float(np.polyfit(np.log(1.0 + lags), np.log(vals), 1)[0])
    passed = bool(slope <= -expo + _PHI_DECAY_SLACK and drift < _PHI_DRIFT)
    return BoundReport(
        name=f"{which}_decay(alpha={phi.alpha})",
        grid=f"j={j}, lags {lags.min()}..{lags.max()}",
        witnessed_constant=witnessed,
        bound_exponent=-expo,
        passed=passed,
        tolerance=_PHI_DECAY_SLACK,
        details={"fitted_slope": slope, "lags": lags, "integrals": vals,
                 "refinement_drift": drift},
    )


# lambda_exponent_grid fails when lambda rises with h_high by more than the
# first, or moves by more than the second between neighbouring h_high
_LAMBDA_RISE, _LAMBDA_JUMP = 1e-12, 0.2


def lambda_grid_report() -> BoundReport:
    """lambda_exponent on 19 alphas in [1.05, 1.95] x 41 h_high in (1/alpha, 1):
    passes when it stays positive, falls with h_high and has no jump."""
    worst, monotone_ok, cont_ok = math.inf, True, True
    for a in np.linspace(1.05, 1.95, 19):
        hs = np.linspace(1.0 / a + 1e-3, 1.0 - 1e-3, 41)
        lams = np.array([lambda_exponent(float(a), float(h)) for h in hs])
        worst = min(worst, float(lams.min()))
        monotone_ok = monotone_ok and not np.any(np.diff(lams) > _LAMBDA_RISE)
        cont_ok = cont_ok and not np.max(np.abs(np.diff(lams))) > _LAMBDA_JUMP
    return BoundReport(
        name="lambda_exponent_grid",
        grid="alpha in [1.05, 1.95] x h_high in (1/alpha, 1)",
        witnessed_constant=worst,
        bound_exponent=0.0,
        passed=bool(worst > 0.0 and monotone_ok and cont_ok),
        tolerance=0.0,
        details={"monotone_in_h_high": monotone_ok, "continuous": cont_ok},
    )


# ---------------------------------------------------------------------------
# Monte Carlo checks on direct coefficients
# ---------------------------------------------------------------------------


# verdict thresholds, each reported as its check's tolerance: the scale
# check's largest relative error, the slack on the covariance slope, and the
# approximation check's slope slack (with its passing fraction and replicates)
_SCALE_REL_TOL = 0.05
_COV_SLACK = 0.3
_APPROX_SLACK, _APPROX_PASS_FRACTION, _APPROX_REPLICATES = 0.15, 0.8, 20

# the fewest replicates the scale and covariance checks run on
MIN_MC_REPLICATES = 10_000

# the Monte Carlo's chunk workers: one per CPU of the affinity mask
_threads = len(os.sched_getaffinity(0))


def _direct_weight_matrix(
    law: StableLaw, phi: PhiKernel, H: HurstFunction, j: int, ks
) -> np.ndarray:
    """(len(ks) x n_cells) frozen-Hurst coefficient weights on cells of width
    ``noise_step(j)`` over the union of their certified windows, noise scale
    included.  The kernel's alpha must be the law's."""
    if phi.alpha != law.alpha:
        raise ValueError("kernel and law alpha differ")
    delta = noise_step(j)
    rows = []
    for k in ks:
        h_k = float(H.frozen(j, k))
        rows.append(direct_coeff_weights(delta, phi, j, k, h_k))
    i_lo = min(i0 for i0, _ in rows)
    n_cells = max(i0 + w.size for i0, w in rows) - i_lo
    W = np.zeros((len(rows), n_cells))
    for r, (i0, w) in enumerate(rows):
        W[r, i0 - i_lo : i0 - i_lo + w.size] = w
    # the noise scale goes into the weights once, not into every chunk
    W *= law.scale * delta ** (1.0 / law.alpha)
    return W


def _draw_direct_coeffs(
    law: StableLaw,
    phi: PhiKernel,
    H: HurstFunction,
    j: int,
    ks,
    replicates: int,
    seed: int,
) -> np.ndarray:
    """(replicates x len(ks)) matrix of frozen-Hurst coefficients, fresh noise per
    row.  The rows go in chunks of about two ``_TILE`` draws, at least one
    row each; chunk ``c`` draws its noise from ``_stream(seed, c)``, whose
    setup is about 1% of a chunk's draws.  ``_threads`` workers, the caller
    among them, take the chunks in turn and write each chunk's
    ``serial_matmul`` with the weights into its rows, so each worker holds
    about one chunk of noise, and the matrix does not depend on the worker
    count.  An error in a chunk reaches the caller once every worker has
    ended."""
    W = _direct_weight_matrix(law, phi, H, j, ks)
    n_k, n_cells = W.shape
    rows = max(1, 2 * _TILE // n_cells)
    n_chunks = -(-replicates // rows)
    threads = min(_threads, n_chunks)
    out = np.empty((replicates, n_k))

    def work(first: int) -> None:
        for c in range(first, n_chunks, threads):
            lo = c * rows
            m = min(rows, replicates - lo)
            dz = unit_sas(law.alpha, m * n_cells, _stream(seed, c))
            out[lo : lo + m] = serial_matmul(dz.reshape(m, n_cells), W.T)

    # on one thread nothing is submitted, and the pool starts no thread
    with ThreadPoolExecutor(max(1, threads - 1)) as pool:
        others = [pool.submit(work, w) for w in range(1, threads)]
        work(0)
    for f in others:
        f.result()
    return out


def _direct_coeff_powers(law: StableLaw, phi: PhiKernel, H: HurstFunction, j: int, ks,
                         beta: float, replicates: int, seed: int) -> np.ndarray:
    """``|d~|**beta`` of ``_draw_direct_coeffs``' (replicates x len(ks))
    matrix; refuses fewer than ``MIN_MC_REPLICATES`` replicates before any
    draw."""
    if replicates < MIN_MC_REPLICATES:
        raise ValueError(f"at least {MIN_MC_REPLICATES} replicates required")
    return np.abs(_draw_direct_coeffs(law, phi, H, j, ks, replicates, seed)) ** beta


def scale_param_check(
    law: StableLaw, phi: PhiKernel, H: HurstFunction, j: int, ks, beta: float,
    replicates: int, seed: int,
) -> BoundReport:
    """Compare the MC scale of d~_{j,k} with 2**(-j H_k) ||Phi(., H_k)|| by quadrature."""
    a = _direct_coeff_powers(law, phi, H, j, ks, beta, replicates, seed)
    c_beta = moment_constant(beta, law.alpha)
    rel_errors, targets, estimates = [], [], []
    for col, k in enumerate(ks):
        h_k = float(H.frozen(j, k))
        target = law.scale * 2.0 ** (-j * h_k) * phi.lalpha_norm(h_k)
        mom = float(np.mean(a[:, col]))
        est = (mom / c_beta) ** (1.0 / beta)
        rel_errors.append(abs(est - target) / target)
        targets.append(target)
        estimates.append(est)
    worst = float(max(rel_errors))
    return BoundReport(
        name=f"scale_identity(j={j})",
        grid=f"k in {list(ks)}, {replicates} replicates",
        witnessed_constant=worst,
        bound_exponent=0.0,
        passed=bool(worst <= _SCALE_REL_TOL),
        tolerance=_SCALE_REL_TOL,
        details={
            "targets": targets,
            "estimates": estimates,
            "rel_errors": rel_errors,
            "beta": beta,
        },
    )


def covariance_mc_check(
    law: StableLaw, phi: PhiKernel, H: HurstFunction, j: int, lags, beta: float,
    replicates: int, seed: int,
) -> BoundReport:
    """Empirical covariance of |d~|**beta pairs against the (1 + lag)**-lambda envelope.

    Passes when the fitted log-log slope over statistically significant lags
    is at most -lambda + 0.3, or when covariances at all lags >= 8 are
    indistinguishable from zero at 3 standard errors.
    """
    lags = sorted(int(q) for q in lags)
    k0 = max(lags)
    ks = [k0] + [k0 + q for q in lags]
    a = _direct_coeff_powers(law, phi, H, j, ks, beta, replicates, seed)
    base = a[:, 0]
    lam = lambda_exponent(law.alpha, H.h_high)
    covs, ses = [], []
    for col in range(1, len(ks)):
        b = a[:, col]
        da, db = base - base.mean(), b - b.mean()
        cov = float(np.mean(da * db))
        se = float(np.std(da * db, ddof=1) / math.sqrt(replicates))
        covs.append(cov)
        ses.append(se)
    covs = np.array(covs)
    ses = np.array(ses)
    significant = np.abs(covs) > 2.0 * ses
    var0 = float(np.var(base, ddof=1))
    slope = None
    if significant.sum() >= 3:
        x = np.log(1.0 + np.array(lags, dtype=float)[significant])
        y = np.log(np.abs(covs[significant]))
        slope = float(np.polyfit(x, y, 1)[0])
        passed = bool(slope <= -lam + _COV_SLACK)
    else:
        passed = True  # decay so fast the covariances drown in MC noise
    large = [i for i, q in enumerate(lags) if q >= 8]
    if not passed and large and all(abs(covs[i]) <= 3.0 * ses[i] for i in large):
        passed = True
    return BoundReport(
        name=f"covariance_decay(j={j})",
        grid=f"lags {lags}, {replicates} replicates",
        witnessed_constant=float(np.max(np.abs(covs) * (1.0 + np.array(lags)) ** lam)),
        bound_exponent=-lam,
        passed=passed,
        tolerance=_COV_SLACK,
        details={
            "lags": lags,
            "covariances": covs,
            "std_errors": ses,
            "variance_lag0": var0,
            "fitted_slope": slope,
            "lambda": lam,
        },
    )


def approx_error_check(
    law: StableLaw, wavelet, H: HurstFunction, j_list, seed: int
) -> BoundReport:
    """Regress log2 max_k |d_{j,k} - d~_{j,k}| on j over 20 replicates; passes
    when at least 80% of the slopes are at most -rho_H + 0.15.

    Both routes share one noise grid and one trapezoid discretization; the
    frozen-Hurst coefficient integrates X(t, H(k 2^-j)) over the same cell
    samples, so the difference isolates the Hurst variation.  Noise cells are
    ``noise_step(max j)`` wide on [-8, 1), refined 4 times, with 24 v-nodes.
    """
    j_list = sorted(int(j) for j in j_list)
    if len(j_list) < 4:
        raise ValueError("need at least 4 levels for the slope regression")
    rho = H.holder_exponent
    delta = noise_step(max(j_list))
    t_tail, n_nodes, refine = 8.0, 24, 4
    intervals = {j: (0.0, 1.0) for j in j_list}  # one map: frozen and path cells agree
    slopes = []
    for r in range(_APPROX_REPLICATES):
        grid = make_noise_grid(law, -t_tail, delta, seed ^ r)
        interp = MeshFieldInterpolant(grid, H, n_nodes, refine)
        # the frozen levels come from the path's own field pass
        frozen = FrozenLevels(interp, wavelet, intervals)
        path = simulate_lmsm(interp, frozen)
        pyramid = build_pyramid(path, wavelet, intervals)
        maxima = [float(np.max(np.abs(pyramid.level(j) - frozen.level(j)))) for j in j_list]
        slopes.append(float(np.polyfit(j_list, np.log2(np.maximum(maxima, 1e-300)), 1)[0]))
    slopes = np.array(slopes)
    frac = float(np.mean(slopes <= -rho + _APPROX_SLACK))
    return BoundReport(
        name="approx_error_decay",
        grid=f"j in {j_list}, {_APPROX_REPLICATES} replicates, delta={delta}",
        witnessed_constant=float(np.median(slopes)),
        bound_exponent=-rho,
        passed=bool(frac >= _APPROX_PASS_FRACTION),
        tolerance=_APPROX_SLACK,
        details={"slopes": slopes, "passing_fraction": frac, "rho_H": rho},
    )
