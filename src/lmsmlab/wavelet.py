"""Admissible analyzing wavelets and the fractional-integration kernel.

An admissible wavelet is continuous, supported in [0, 1], not identically
zero, and has two vanishing moments.  The kernel

    Phi(s, v) = int_0^1 (y - s)_+**(v - 1/alpha) * psi(y) dy

is the fractional primitive of psi of order v - 1/alpha + 1; it vanishes for
s >= 1 and decays like |s|**(v - 1/alpha - 2) as s -> -infinity, which is what
makes wavelet coefficients of the motion well localized.

A wavelet is a polynomial on [0, 1] (the default is the minimal-degree
quartic), so Phi has one closed-form route: a finite Taylor expansion of psi
around s for moderate s, and a binomial-moment series for s <= -2 where the
Taylor form would cancel catastrophically.  There is no quadrature fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WaveletSpec",
    "WaveletValidation",
    "default_wavelet",
    "validate_wavelet",
    "PhiKernel",
    "NormDetail",
]

# Gauss-Legendre nodes/weights on [-1, 1], order 16; read only by gauss_panel_sums
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

# PhiKernel zeroes a polynomial wavelet's moments at or below this size
_MOMENT_TOLERANCE = 1e-12


def _poly_eval(coeffs: np.ndarray, x):
    """Evaluate an ascending-coefficient polynomial (Horner, in place).

    ``coeffs[n]`` may be an array that broadcasts against x, e.g. a column of
    per-row coefficients or one coefficient per point of x."""
    x = np.asarray(x, dtype=float)
    out = np.empty(np.broadcast(coeffs[-1], x).shape)
    out[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def gauss_panel_sums(edges, f) -> np.ndarray:
    """Integrals of f over the panels [edges[i], edges[i + 1]] by the 16-point
    Gauss-Legendre rule; f maps the nodes, an array of panels x 16, to values."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return half * np.sum(_GL_W * f(mid[:, None] + half[:, None] * _GL_X), axis=1)


def _binom_coeffs(kappa: float, n_max: int) -> np.ndarray:
    """binom(kappa, n) for n = 0..n_max, by b_n = b_{n-1} (kappa - n + 1) / n.

    For 0 < kappa < 1 and n >= 1, |binom(kappa, n)| <= kappa / n."""
    b = [1.0]
    for n in range(1, n_max + 1):
        b.append(b[-1] * ((kappa - n + 1.0) / n))
    return np.array(b)


def _kappa(alpha: float, v: float) -> float:
    """kappa = v - 1/alpha for v in (1/alpha, 1); ValueError otherwise."""
    kappa = v - 1.0 / alpha
    if not 0.0 < kappa < 1.0 or v >= 1.0:
        raise ValueError(f"v must lie in (1/alpha, 1) = ({1.0 / alpha:.6f}, 1), got {v}")
    return kappa


def _poly_der(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs)
    if n <= 1:
        return np.zeros(1)
    return coeffs[1:] * np.arange(1, n)


@dataclass(frozen=True)
class WaveletSpec:
    """Analyzing wavelet psi: a polynomial on [0, 1], zero outside.

    ``poly_coeffs`` are the ascending monomial coefficients of psi on
    [0, 1]; they give the moments and the kernel Phi in closed form.
    Admissibility (continuity, two vanishing moments, non-triviality) is
    what ``validate_wavelet`` checks, not what this class assumes.
    """

    poly_coeffs: tuple[float, ...]
    name: str = "custom"

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= 1.0)
        return np.where(inside, _poly_eval(np.asarray(self.poly_coeffs, dtype=float), t), 0.0)

    def moments(self, n_max: int) -> np.ndarray:
        """Exact moments M_n = int_0^1 t**n psi(t) dt for n = 0..n_max."""
        c = np.asarray(self.poly_coeffs)
        n = np.arange(n_max + 1)[:, None]
        i = np.arange(len(c))[None, :]
        return (c[None, :] / (n + i + 1)).sum(axis=1)

    def cell_weights(self, m: int) -> np.ndarray:
        """Trapezoid weights w with int_0^1 f(x) psi(x) dx ~ w @ f(i/m), i = 0..m."""
        trap = np.ones(m + 1)
        trap[0] = trap[-1] = 0.5
        return trap * self(np.arange(m + 1) / m) / m


def default_wavelet() -> WaveletSpec:
    """The minimal-degree admissible wavelet: psi(t) = t(1-t)(5t^2-5t+1) on [0, 1].

    Both first moments vanish exactly (they are the rational sums
    1/2 - 2 + 5/2 - 1 and 1/3 - 3/2 + 2 - 5/6).
    """
    return WaveletSpec(poly_coeffs=(0.0, 1.0, -6.0, 10.0, -5.0), name="quartic")


@dataclass
class WaveletValidation:
    """Per-assumption pass/fail report; a failure is data, not an exception."""

    support_ok: bool
    continuity_ok: bool
    moment0_ok: bool
    moment1_ok: bool
    nontrivial_ok: bool
    moment0: float
    moment1: float
    sup_norm: float

    @property
    def passed(self) -> bool:
        return (
            self.support_ok
            and self.continuity_ok
            and self.moment0_ok
            and self.moment1_ok
            and self.nontrivial_ok
        )

    @property
    def failures(self) -> list[str]:
        names = {
            "support": self.support_ok,
            "continuity": self.continuity_ok,
            "moment0": self.moment0_ok,
            "moment1": self.moment1_ok,
            "nontrivial": self.nontrivial_ok,
        }
        return [k for k, ok in names.items() if not ok]


def validate_wavelet(w: WaveletSpec, tol: float = 1e-10) -> WaveletValidation:
    """Check continuity, the two vanishing moments and non-triviality.

    ``support_ok`` is always True: psi is zero outside [0, 1] by
    construction.  The field stays so that the report lists every
    admissibility assumption."""
    if tol <= 0:
        raise ValueError("tol must be positive")

    # a polynomial is continuous on [0, 1]; psi is continuous on the line
    # exactly when it vanishes at both ends of its support
    continuity_ok = bool(max(abs(float(w(0.0))), abs(float(w(1.0)))) <= tol)
    m0, m1 = (float(m) for m in w.moments(1))
    sup = float(np.max(np.abs(w(np.linspace(0.0, 1.0, 20001)))))

    return WaveletValidation(
        support_ok=True,
        continuity_ok=continuity_ok,
        moment0_ok=bool(abs(m0) <= tol),
        moment1_ok=bool(abs(m1) <= tol),
        nontrivial_ok=bool(sup > tol),
        moment0=m0,
        moment1=m1,
        sup_norm=sup,
    )


@dataclass
class NormDetail:
    """L^alpha norm of Phi(., v) with its truncation audit trail."""

    value: float
    s_max: float
    tail_bound: float


class PhiKernel:
    """Evaluator for Phi(s, v) = int (y - s)_+**(v - 1/alpha) psi(y) dy.

    Immutable after construction; evaluation is pure, so instances can be
    shared freely.
    """

    # switch point between the finite Taylor form and the far-field series
    _SERIES_CUT = -2.0

    def __init__(self, alpha: float, wavelet: WaveletSpec | None = None):
        if not 1.0 < alpha <= 2.0:
            raise ValueError(f"alpha must be in (1, 2], got {alpha}")
        self.alpha = float(alpha)
        self.wavelet = wavelet if wavelet is not None else default_wavelet()
        self._norm_cache: dict = {}
        self._n_series = 80
        # psi^(m) / m! for m = 0..degree
        dc = np.asarray(self.wavelet.poly_coeffs, dtype=float)
        fact = 1.0
        self._taylor_polys = [dc]
        for m in range(1, dc.size):
            dc = _poly_der(dc)
            fact *= m
            self._taylor_polys.append(dc / fact)
        m = self.wavelet.moments(self._n_series)
        # moments below the admissibility tolerance are exact zeros of the
        # ideal wavelet; keeping their rounding noise would wreck the
        # far-field decay order
        m[np.abs(m) <= _MOMENT_TOLERANCE] = 0.0
        self._moments = m

    # -- pointwise evaluation -------------------------------------------------

    def phi(self, s, v: float):
        """Phi(s, v); exactly zero for s >= 1, vectorized over ``s``."""
        kappa = _kappa(self.alpha, float(v))
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros_like(s_arr)
        near = (s_arr < 1.0) & (s_arr > self._SERIES_CUT)
        far = s_arr <= self._SERIES_CUT
        if near.any():
            out[near] = sum(self._taylor_terms(s_arr[near], kappa))
        if far.any():
            out[far] = self._phi_series(s_arr[far], kappa)
        if np.isscalar(s) or np.asarray(s).ndim == 0:
            return float(out[0])
        return out

    def _taylor_terms(self, s: np.ndarray, kappa: float):
        # Phi = sum_m psi^(m)(s)/m! * [(1-s)^(k+m+1) - (-s)_+^(k+m+1)]/(k+m+1)
        one_minus = 1.0 - s
        neg = np.maximum(-s, 0.0)
        for m, tp in enumerate(self._taylor_polys):
            p = kappa + m + 1.0
            yield _poly_eval(tp, s) * ((one_minus**p - neg**p) / p)

    def _phi_series(self, s: np.ndarray, kappa: float) -> np.ndarray:
        # (y - s)^kappa = x^kappa (1 + y/x)^kappa with x = -s, so
        # Phi = sum_n binom(kappa, n) M_n x^(kappa-n); terms shrink at least
        # geometrically for x >= 2
        x = -s
        acc = np.zeros_like(x)
        xpow = x**kappa
        b = _binom_coeffs(kappa, self._n_series)
        for n in range(self._n_series + 1):
            if n > 0:
                xpow = xpow / x
            mn = self._moments[n]
            if mn != 0.0:
                acc += b[n] * mn * xpow
        return acc

    def phi_error_estimate(self, s, v: float):
        """Conservative evaluation-error bound alongside phi(s, v).

        Taylor branch: float cancellation, eps times the largest term.
        Series branch: first neglected term over the geometric tail ratio.
        """
        kappa = _kappa(self.alpha, float(v))
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        err = np.zeros_like(s_arr)
        near = (s_arr < 1.0) & (s_arr > self._SERIES_CUT)
        far = s_arr <= self._SERIES_CUT
        if near.any():
            peak = np.max([np.abs(t) for t in self._taylor_terms(s_arr[near], kappa)], axis=0)
            err[near] = 16.0 * np.finfo(float).eps * peak
        if far.any():
            x = -s_arr[far]
            n = self._n_series
            b = _binom_coeffs(kappa, n + 1)[n + 1]
            tail = abs(b) * np.max(np.abs(self._moments)) * x ** (kappa - n - 1.0)
            err[far] = tail / (1.0 - 1.0 / np.maximum(x, 2.0)) + 4.0 * np.finfo(float).eps * x**kappa * np.max(
                np.abs(self._moments)
            )
        if np.isscalar(s) or np.asarray(s).ndim == 0:
            return float(err[0])
        return err

    # -- far-field bounds ------------------------------------------------------

    def decay_envelope_constant(self, s_cut: float, kappa: float) -> float:
        """A(S) with |Phi(s, v)| <= A(S) * (-s)**(kappa - 2) for s <= -S <= -2."""
        S = float(s_cut)
        if S < 2.0:
            raise ValueError("envelope valid only for s_cut >= 2")
        b = _binom_coeffs(kappa, self._n_series)
        total = 0.0
        spow = 1.0  # S**(2-n) relative to n=2
        for n in range(2, self._n_series + 1):
            total += abs(b[n] * self._moments[n]) * spow
            spow /= S
        return total

    def tail_alpha_mass(self, s_cut: float, v: float) -> float:
        """Upper bound on int_{-inf}^{-s_cut} |Phi(u, v)|**alpha du."""
        kappa = _kappa(self.alpha, float(v))
        a = self.alpha
        A = self.decay_envelope_constant(s_cut, kappa)
        p = a * (2.0 - kappa) - 1.0  # > 0 for all admissible (alpha, v)
        return A**a * s_cut ** (-p) / p

    # -- L^alpha norm ----------------------------------------------------------

    def _alpha_integral(self, v: float, s_min: float) -> float:
        """int_{s_min}^{1} |Phi(u, v)|**alpha du by graded composite Gauss rules."""
        a = self.alpha
        # 24 uniform panels on [-2, 1) (finer near the support where Phi
        # turns), geometric panels from -2 down to s_min
        near = np.linspace(-2.0, 1.0, 24 + 1)
        geo = [-2.0]
        while geo[-1] > s_min:
            geo.append(max(geo[-1] * 1.35, s_min))
        edges = np.concatenate([np.array(geo[::-1]), near[1:]])
        # panel integrals added one by one, in order: the norm's last bit
        # depends on that order, and every estimate reads the norm
        return float(sum(gauss_panel_sums(edges, lambda x: np.abs(self.phi(x, v)) ** a)))

    def norm_detail(self, v: float) -> NormDetail:
        """L^alpha norm over a truncated domain with a certified tail remainder.

        The truncation point doubles until the far-field tail bound drops
        below 1e-6 of the accumulated mass; raises if that cannot be
        achieved.
        """
        tol = 1e-6
        key = round(float(v), 14)
        hit = self._norm_cache.get(key)
        if hit is not None:
            return hit
        _kappa(self.alpha, float(v))
        a = self.alpha
        s_max = 64.0
        mass = self._alpha_integral(v, -s_max)
        tail = self.tail_alpha_mass(s_max, v)
        while tail > tol * (mass + tail) and s_max < 2.0**24:
            new_mass = self._alpha_integral(v, -2.0 * s_max)
            s_max *= 2.0
            mass = new_mass
            tail = self.tail_alpha_mass(s_max, v)
        if tail > tol * (mass + tail):
            raise RuntimeError(
                f"tail remainder bound {tail:.3e} exceeds tolerance at s_max={s_max}"
            )
        detail = NormDetail(
            value=float(mass ** (1.0 / a)),
            s_max=float(s_max),
            tail_bound=float(tail),
        )
        self._norm_cache[key] = detail
        return detail

    def lalpha_norm(self, v: float) -> float:
        return self.norm_detail(v).value

    def decay_constant(self, h_high: float, v_grid, n_s: int = 4000) -> float:
        """Witnessed sup of (1 + |s|)**(2 + 1/alpha - h_high) |Phi(s, v)| on a
        grid of s in [-1000, 1]."""
        expo = 2.0 + 1.0 / self.alpha - h_high
        # geometric s-grid resolves both the support region and the far field
        s_neg = -np.geomspace(1e-3, 1e3, n_s)
        s_pos = np.linspace(0.0, 1.0, n_s // 4)
        s = np.concatenate([s_neg[::-1], s_pos])
        best = 0.0
        for v in np.atleast_1d(v_grid):
            vals = (1.0 + np.abs(s)) ** expo * np.abs(self.phi(s, float(v)))
            best = max(best, float(np.max(vals)))
        return best
