"""Expectation values and correlation functions on ladder systems.

The dynamical content of a reduced interaction Hamiltonian is carried by
the propagator matrix elements sigma_mn(t); every mean value of physical
interest is a weighted series over them.  This module evaluates those
series for the state classes with explicit ladder coefficients -- number
states, Gaussian coherent states, the spectral coherent family of
:mod:`.coherent`, and finite superpositions -- together with

* occupation-number moments (with closed-form cross checks where the
  family admits one; the series is always the returned value),
* correlation and cluster-correlation functions,
* the polynomial time law for moments of the alpha operator
  ``alpha = i d/domega``, which evolves as ``alpha + t``,
* the parametric-amplifier photon growth formula, and
* the modulation law tying physical mode occupations to the ladder
  occupation of a reduced multi-mode sector.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from math import lgamma
from typing import Union

import numpy as np

from .coherent import coherent_coeffs, mean_energy, squared_norm
from .orthopoly import derivative_apply, derivative_matrix
from .propagator import _PACKET_TAIL, PropagatorContext, _evolve_steps, _on_times
from .reduction import MultiModeSystem, Sector, beta_offsets

__all__ = [
    "Number",
    "GaussianCoherent",
    "SpectralCoherent",
    "Fock",
    "QuantumState",
    "ladder_amplitudes",
    "h_expectation",
    "number_moment",
    "correlation",
    "cluster_correlation",
    "alpha_moment",
    "alpha_dispersion",
    "derivative_matrix",
    "amplifier_mean_photon",
    "modulation_mean",
    "total_energy",
    "phase_exponentials",
    "cos_phase",
]


# ----------------------------------------------------------------------
# state classes


@dataclass(frozen=True)
class Number:
    """Ladder eigenstate |n>."""

    n: int


@dataclass(frozen=True)
class GaussianCoherent:
    """Glauber state with coefficients e^{-|zeta|^2/2} zeta^n / sqrt(n!)."""

    zeta: complex


@dataclass(frozen=True)
class SpectralCoherent:
    """Spectral coherent state |z>; the label must lie in the family strip."""

    z: complex


@dataclass(frozen=True)
class Fock:
    """Finite superposition sum_n coeffs[n] |n>, normalized on use."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in coeffs))


QuantumState = Union[Number, GaussianCoherent, SpectralCoherent, Fock]


_LOG_FACT = [np.zeros(0)]  # the one table of lgamma(k + 1), k = 0.., grown on demand


def _log_factorials(n: int) -> np.ndarray:
    """log k! = lgamma(k + 1) for k = 0..n - 1, read off the shared table."""
    if _LOG_FACT[0].size < n:
        _LOG_FACT[0] = np.array([lgamma(k + 1.0) for k in range(max(n, 2 * _LOG_FACT[0].size))])
    return _LOG_FACT[0][:n]


# squared norm a Glauber vector may leave out: its amplitudes stay below
# rounding even after the square root that the alpha observables take
_GAUSSIAN_TAIL = 1e-32


def _gaussian_coeffs(zeta: complex) -> np.ndarray:
    """Number-basis coefficients of a Glauber state, squared tail < 1e-32.

    p_n = |c_n|^2 = e^{-r2} r2^n / n! is a Poisson weight.  Once n + 2 > r2
    its term ratio r2/(k+1) falls for every k > n, so the squared tail past
    c_n is at most p_{n+1} / (1 - r2/(n+2)); the vector ends at the first n
    where that bound is below _GAUSSIAN_TAIL.  Since n! >= (n/e)^n, the
    bound is below 2 e^{-(n+1)} once n + 1 >= e^2 r2, which puts that n
    below e^2 r2 + log(2 / _GAUSSIAN_TAIL).
    """
    zeta = complex(zeta)
    r2 = abs(zeta) ** 2
    if r2 == 0.0:
        return np.ones(1, dtype=complex)
    size = int(math.e**2 * r2 + math.log(2.0 / _GAUSSIAN_TAIL)) + 2
    n = np.arange(size, dtype=float)
    logmag = -0.5 * r2 + 0.5 * n * math.log(r2) - 0.5 * _log_factorials(size)
    with np.errstate(divide="ignore"):  # +inf while the ratio is >= 1
        bound = 2.0 * logmag[1:] - np.log1p(-np.minimum(r2 / (n[1:] + 1.0), 1.0))
    nmax = int(np.argmax(bound <= math.log(_GAUSSIAN_TAIL)))
    return np.exp(logmag[: nmax + 1] + 1j * cmath.phase(zeta) * n[: nmax + 1])


def _check_level(n: int) -> int:
    n = int(n)
    if n < 0:
        raise ValueError("ladder level must be nonnegative")
    return n


def _state_coeffs(state: QuantumState) -> np.ndarray:
    """Number-basis coefficient vector of a state that has one explicitly.

    |n> is the unit vector e_n; Glauber states and finite superpositions
    are their (normalized) coefficients.  A spectral coherent label has no
    finite vector and raises TypeError like any other non-ladder state.
    """
    if isinstance(state, Number):
        c = np.zeros(_check_level(state.n) + 1, dtype=complex)
        c[-1] = 1.0
        return c
    if isinstance(state, GaussianCoherent):
        return _gaussian_coeffs(state.zeta)
    if not isinstance(state, Fock):
        raise TypeError(f"not a ladder state: {state!r}")
    c = np.asarray(state.coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("Fock coefficients must form a nonempty vector")
    nrm = float(np.linalg.norm(c))
    if nrm == 0.0:
        raise ValueError("Fock coefficients must be normalizable (nonzero)")
    return c / nrm


def ladder_amplitudes(
    ctx: PropagatorContext, state: QuantumState, t, tail: float = 1e-13
) -> np.ndarray:
    """Coefficients g_k(t) of e^{-i H_I t}|state> in the number basis.

    A spectral coherent label z moves to z + t, whose coefficients
    :func:`.coherent_coeffs` gives to a squared tail below min(``tail``, 1e-16),
    the rounding of a unit norm, as ``evolve`` drops: moments weight the tail
    by k^l, so a tail at ``tail`` would show in them.  Every other
    state is its coefficient vector (a number state |n> is e_n), returned as
    it is at t = 0 and otherwise propagated by :func:`.evolve`, sized once: on
    Hermite and Laguerre pairs to a squared packet-law tail of at most 1e-16,
    on Jacobi pairs to a Chebyshev Bessel tail below min(``tail``, 1e-16).

    ``t`` may be a 1-d array of times: the result is then t.shape + (levels,), row i the
    amplitudes at t_i alone and zeros past them, from one ``evolve`` over the grid.
    """
    return _on_times(t, lambda ts: _amplitude_steps(ctx, state, ts, tail))


def _amplitude_steps(ctx: PropagatorContext, state: QuantumState, ts: list, tail: float = 1e-13) -> list:
    """``ladder_amplitudes`` at each time of the list ts, each on its own levels."""
    if not isinstance(state, SpectralCoherent):
        return _evolve_steps(ctx, _state_coeffs(state), ts, tail)
    z = complex(state.z)
    return [coherent_coeffs(ctx, z + t, tol=min(tail, _PACKET_TAIL)) / math.sqrt(squared_norm(ctx, z)) for t in ts]


# ----------------------------------------------------------------------
# energy and occupation moments


def _tridiagonal_mean(js, c: np.ndarray) -> float:
    """<c| J |c> for the tridiagonal ladder matrix J built from js, over c's last axis."""
    b, h = js.arrays(c.shape[-1] - 1)
    val = np.sum(np.abs(c) ** 2 * h, axis=-1)
    if c.shape[-1] > 1:
        val = val + 2.0 * np.real(np.sum(np.conj(c[..., 1:]) * b[1:] * c[..., :-1], axis=-1))
    return val


def h_expectation(ctx: PropagatorContext, state: QuantumState) -> float:
    """Mean interaction energy <H_I>; conserved, so no time argument.

    A spectral coherent label z gives the log-derivative closed form of
    :func:`.mean_energy`; every other state contracts the tridiagonal
    matrix with its coefficient vector (|n> gives the diagonal h(n)).
    """
    if isinstance(state, SpectralCoherent):
        return mean_energy(ctx, complex(state.z).imag)
    return _tridiagonal_mean(ctx.js, _state_coeffs(state))


def _occupation_series(g: np.ndarray, l: int) -> float:
    """sum_k k^l |g_k|^2 on amplitudes g, over their last axis."""
    k = np.arange(g.shape[-1], dtype=float)
    return np.sum(k**l * np.abs(g) ** 2, axis=-1)


def _checked_moment(ctx, state, g: np.ndarray, l: int, t: float) -> float:
    """sum_k k^l |g_k|^2 on the amplitudes g of state at t.  For a spectral label
    on a family with a closed occupation law (Hermite, Laguerre), a deviation
    of that law beyond 1e-7 of the series is a RuntimeWarning, never adopted."""
    series = float(_occupation_series(g, l))
    if isinstance(state, SpectralCoherent):
        closed = ctx.pd.closed_number_moment(complex(state.z) + float(t), l)
        if closed is not None and abs(closed - series) > 1e-7 * max(1.0, series):
            warnings.warn(
                f"closed-form occupation moment {closed!r} deviates from the "
                f"normative series {series!r} (l={l}); series retained",
                RuntimeWarning,
                stacklevel=3,
            )
    return series


def number_moment(
    ctx: PropagatorContext, state: QuantumState, l: int, t: float
) -> float:
    """<N^l(t)>, the l-th moment of the ladder occupation at time t: the
    normative series sum_k k^l |g_k(t)|^2, checked by :func:`_checked_moment`."""
    l = int(l)
    if l < 1:
        raise ValueError("moment order l must be >= 1")
    return _checked_moment(ctx, state, ladder_amplitudes(ctx, state, t), l, t)


def _pair_series(g: np.ndarray, L: np.ndarray, r: int, s: int) -> complex:
    """sum_m conj(g_{m+r}) g_{m+s} exp(L[m+r] + L[m+s] - 2 L[m]), over g's last axis.

    L is the log-coupling prefix of a lowering operator with A|k> =
    c(k)|k-1>, L[k] = sum_{j<=k} log c(j), so exp(L[m+r] - L[m]) is the
    weight of lowering |m+r> to |m>.
    """
    n = g.shape[-1] - max(r, s)  # terms m = 0..n - 1
    if n <= 0:
        return np.zeros(g.shape[:-1], dtype=complex)[()]
    w = np.exp((L[r : r + n] - L[:n]) + (L[s : s + n] - L[:n]))
    gr, gs = g[..., r : r + n], g[..., s : s + n]
    if r == s:  # real by construction: keep rounding out of the imaginary part
        return np.sum((gr.real**2 + gr.imag**2) * w, axis=-1) + 0j
    return np.sum(np.conj(gr) * gs * w, axis=-1)


def _correlation_series(g: np.ndarray, r: int, s: int) -> complex:
    """<a*^r a^s> on amplitudes g (couplings sqrt(j), L[k] = log(k!)/2)."""
    L = 0.5 * _log_factorials(g.shape[-1])
    return _pair_series(g, L, r, s)


def _cluster_series(js, g: np.ndarray, r: int, s: int, t: float,
                    picture: str) -> complex:
    """<A*^r A^s> on amplitudes g (couplings b(j) of js).

    ``picture="full"`` reattaches the free phase e^{-i gamma0 (s-r) t} (t of each row of g).
    """
    b, _ = js.arrays(g.shape[-1] - 1)
    L = np.concatenate(([0.0], np.cumsum(np.log(b[1:]))))
    val = _pair_series(g, L, r, s)
    if picture == "full":
        val = val * np.exp(-1j * js.gamma0 * (s - r) * np.asarray(t, dtype=float))
    return val


def correlation(
    ctx: PropagatorContext, state: QuantumState, r: int, s: int, t: float
) -> complex:
    """<a*^r(t) a^s(t)> with the standard sqrt(n) ladder weights.

    The series sum_m conj(g_{m+r}) g_{m+s} sqrt((m+r)!(m+s)!)/m! is
    assembled in log space; truncation is certified by the unit-norm tail
    of the amplitudes.
    """
    r, s = _check_level(r), _check_level(s)
    return _correlation_series(ladder_amplitudes(ctx, state, t), r, s)


def cluster_correlation(
    ctx: PropagatorContext,
    state: QuantumState,
    r: int,
    s: int,
    t: float,
    picture: str = "interaction",
) -> complex:
    """<A*^r(t) A^s(t)> where A is the cluster lowering operator b(N) a/sqrt(N).

    A|k> = b(k)|k-1>, so the ladder weights are products of recurrence
    couplings instead of factorials.  With ``picture="full"`` the free
    phase e^{-i gamma0 (s-r) t} of the undressed modes is reattached.
    """
    if picture not in ("interaction", "full"):
        raise ValueError("picture must be 'interaction' or 'full'")
    r, s = _check_level(r), _check_level(s)
    return _cluster_series(ctx.js, ladder_amplitudes(ctx, state, t), r, s, t, picture)


# ----------------------------------------------------------------------
# alpha moments


def _alpha_series(ctx: PropagatorContext, c: np.ndarray, l: int) -> list:
    """<alpha^k>, k = 0..l, on coefficients c, N levels on their last axis: alpha = i d/domega
    acts as i D, D the exact triangular derivative, applied by :func:`.derivative_apply` in
    O(N) per row from the ladder's end values, with no N x N matrix; each row of c gets
    what c alone would, for the library and the CLI oracle alike."""
    out = [np.vecdot(c, c)]
    psi = c
    for k in range(1, l + 1):
        psi = derivative_apply(ctx.js, psi)
        out.append((1j) ** k * np.vecdot(c, psi))
    return out


def _alpha_moments_now(ctx, state, l: int) -> list:
    """<alpha^k> at t = 0 for k = 0..l."""
    if isinstance(state, Number):
        # (d/domega)^k P_n has degree n-k, orthogonal to P_n for k >= 1.
        return [1.0 + 0j] + [0j] * l
    if isinstance(state, SpectralCoherent):
        z = complex(state.z)
        return [z**k for k in range(l + 1)]
    return _alpha_series(ctx, _state_coeffs(state), l)


def _alpha_law(mom: list, l: int, t: float) -> complex:
    """<alpha^l(t)> = sum_k C(l,k) t^k <alpha^{l-k}> from the moments at t = 0."""
    return sum(math.comb(l, k) * t**k * mom[l - k] for k in range(l + 1))


def _alpha_spread(mom: list, t: float) -> complex:
    """<alpha^2(t)> - <alpha(t)>^2 from the moments at t = 0."""
    return _alpha_law(mom, 2, t) - _alpha_law(mom, 1, t) ** 2


def alpha_moment(
    ctx: PropagatorContext, state: QuantumState, l: int, t: float
) -> complex:
    """<alpha^l(t)> from the Heisenberg shift alpha(t) = alpha + t.

    Binomial expansion reduces the time dependence to the static moments:
    sum_k C(l,k) t^k <alpha^{l-k}>.  Number states give exactly t^l and a
    spectral coherent label z gives (z+t)^l.
    """
    l = int(l)
    if l < 1:
        raise ValueError("moment order l must be >= 1")
    return _alpha_law(_alpha_moments_now(ctx, state, l), l, float(t))


def alpha_dispersion(
    ctx: PropagatorContext, state: QuantumState, t: float
) -> complex:
    """<alpha^2(t)> - <alpha(t)>^2; constant in t for every state."""
    return _alpha_spread(_alpha_moments_now(ctx, state, 2), float(t))


# ----------------------------------------------------------------------
# scenario formulas


def amplifier_mean_photon(
    zeta0: complex, zeta1: complex, g: float, t: float
) -> float:
    """Signal-mode photon number of a parametric amplifier.

    Both modes start in Glauber states; the pump drives the two-mode
    squeezing interaction at gain g, giving
    |zeta0 cosh(gt) + conj(zeta1) sinh(gt)|^2 + sinh^2(gt), whose last
    term is spontaneous emission from vacuum.
    """
    g = float(g)
    if g <= 0.0:
        raise ValueError("gain g must be positive")
    ch, sh = math.cosh(g * t), math.sinh(g * t)
    return abs(complex(zeta0) * ch + complex(zeta1).conjugate() * sh) ** 2 + sh**2


def modulation_mean(
    sys: MultiModeSystem,
    sector: Sector,
    ctx: PropagatorContext,
    state: QuantumState,
    j: int,
    t: float,
) -> float:
    """Occupation of physical mode j at time t inside a reduced sector.

    Within one sector every mode tracks the single ladder coordinate:
    <a_j* a_j>(t) = l_j <A_0(t)> + beta_j with <A_0(t)> = lambda_00 + <N(t)>.
    ``ctx`` supplies the classified dynamics of the reduced ladder.
    """
    j = int(j)
    if not 0 <= j < len(sys.l):
        raise ValueError(f"mode index {j} outside 0..{len(sys.l) - 1}")
    a0_mean = sector.lambda00 + number_moment(ctx, state, 1, t)
    return float(sys.l[j] * a0_mean + beta_offsets(sys, sector)[j])


def total_energy(
    ctx: PropagatorContext,
    state: QuantumState,
    t: float,
    gamma0: float | None = None,
) -> float:
    """Full-picture mean energy gamma0 <N(t)> + <H_I>.

    The interaction part is conserved, so all time dependence enters
    through the occupation.  ``gamma0`` defaults to the free-frequency
    combination carried by the ladder (zero for bare Pearson systems).
    """
    g0 = ctx.js.gamma0 if gamma0 is None else float(gamma0)
    return g0 * number_moment(ctx, state, 1, t) + h_expectation(ctx, state)


# ----------------------------------------------------------------------
# phase operator


def phase_exponentials(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated matrices of exp(i phi) and exp(-i phi).

    exp(i phi) = (a*a + 1)^{-1/2} a lowers every level by one (and kills
    the ground state); exp(-i phi) = a* (a*a + 1)^{-1/2} raises.  The
    sqrt(n) weights cancel identically, leaving plain shift matrices, so
    the composition raise-after-lower equals I - |0><0| exactly -- the
    hallmark of the nonunitary phase exponential on a half-infinite
    ladder.  (Lower-after-raise is the identity, up to the inevitable
    defect in the top truncated corner.)
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError("dimension must be positive")
    lower = np.zeros((dim, dim))
    idx = np.arange(1, dim)
    lower[idx - 1, idx] = 1.0
    return lower, lower.T.copy()


def cos_phase(dim: int) -> np.ndarray:
    """Matrix of cos(phi) = (exp(i phi) + exp(-i phi))/2 on dim levels."""
    lower, raise_ = phase_exponentials(dim)
    return 0.5 * (lower + raise_)
