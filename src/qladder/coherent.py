"""Spectral coherent states and their reproducing structure.

A ladder system with spectral measure dsigma carries a family of coherent
states labelled by complex z in a horizontal strip: the state with
frequency-space wavefunction e^{-i z omega}.  Its ladder coefficients are
the one-index propagator coefficients,

    <n|z> = sigma_n(z),        <z|v> = sigma(v - conj(z)),

so overlaps never need a mode sum.  Time evolution only shifts the label,
|z> -> |z + t|, which makes these states the natural probes of the closed
forms in :mod:`qladder.propagator`.

The family is overcomplete; completeness is expressed by a planar measure
mu(y) dx dy / (2 pi) (y = Im z) against which the |z><z| resolve the
identity.  ``reproducing_density`` evaluates mu in closed form where it
exists as a genuine density; the defining property used throughout the
tests is the scalar identity

    int mu(y) e^{2 y omega} dy = 1 / density(omega)

on the support of the spectral measure, which is equivalent to the operator
resolution after collapsing the x-integral.
"""

from __future__ import annotations

import math
import cmath
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConvergenceError, StripError, Unsupported
from .measure import gauss_rule
from .orthopoly import HERMITE, JACOBI, LAGUERRE, PearsonData
from .propagator import (
    PropagatorContext,
    StripDomain,
    build_context,
    char_fn,
    sigma_n,
)
from .specfun import hyp1f1, whittaker_w

__all__ = [
    "strip_for",
    "kernel",
    "squared_norm",
    "coherent_coeffs",
    "holomorphic_transform",
    "reproducing_density",
    "mean_energy",
    "omega_density",
]


def strip_for(pd: PearsonData) -> StripDomain:
    """Label strip of the coherent family attached to a Pearson pair.

    Hermite and Jacobi pairs admit labels anywhere in the plane; Laguerre
    pairs require Im z < gamma/2 = -a1/(2 b1) for the state to be
    normalizable.
    """
    return build_context(pd).strip


def _require_label(ctx: PropagatorContext, z: complex, name: str = "z") -> complex:
    z = complex(z)
    if not ctx.strip.contains(z):
        raise StripError(
            f"coherent label {name} = {z} outside the state strip "
            f"Im {name} < {ctx.strip.upper}"
        )
    return z


def kernel(ctx: PropagatorContext, z: complex, v: complex) -> complex:
    """Reproducing kernel <z|v> = sigma(v - conj(z)).

    Both labels must lie in the state strip; their difference then lies in
    the doubled strip where the characteristic function converges.
    """
    z = _require_label(ctx, z, "z")
    v = _require_label(ctx, v, "v")
    return char_fn(ctx, v - z.conjugate())


def squared_norm(ctx: PropagatorContext, z: complex) -> float:
    """<z|z> = sigma(2i Im z); real and positive on the strip."""
    z = _require_label(ctx, z)
    return char_fn(ctx, 2j * z.imag).real


def coherent_coeffs(
    ctx: PropagatorContext,
    z: complex,
    tol: float = 1e-12,
    nmax: int = 4000,
) -> np.ndarray:
    """Ladder coefficients <n|z> = sigma_n(z), truncated by squared tail.

    The returned vector c satisfies ||c||^2 >= (1 - tol) <z|z>, or stops
    earlier once the remaining tail can no longer change ||c||^2 in double
    precision (a tol below rounding cannot be met: the sum and the closed
    <z|z> differ by a few ulps).  The tail is bounded by the geometric
    series of the last decay ratio.  Near the Laguerre strip edge that
    ratio approaches 1, so the needed length grows; past ``nmax`` a
    ConvergenceError reports the deficit instead of silently truncating.
    """
    z = _require_label(ctx, z)
    norm2 = squared_norm(ctx, z)
    out = []
    acc = prev = 0.0
    for n in range(nmax + 1):
        c = sigma_n(ctx, n, z)
        out.append(c)
        term = abs(c) ** 2
        acc += term
        if n >= 1 and (
            acc >= (1.0 - tol) * norm2
            or (term < prev and acc + prev / (1.0 - term / prev) == acc)
        ):
            return np.array(out, dtype=complex)
        prev = term
    edge = ctx.strip.upper - z.imag < 0.1 * ctx.strip.upper
    raise ConvergenceError(
        f"coherent_coeffs: {nmax + 1} coefficients leave a deficit of "
        f"{1.0 - acc / norm2:.3e} of <z|z>"
        + ("; label too close to the strip edge" if edge else "")
    )


def holomorphic_transform(
    ctx: PropagatorContext,
    state: Union[Sequence[complex], np.ndarray, Callable],
    z: complex,
    N: int = 256,
) -> complex:
    """Evaluate F_psi(z) = <psi|z> for a ladder state psi.

    ``state`` is either a vector of ladder coefficients c_n (then
    F(z) = sum conj(c_n) sigma_n(z)) or a callable psi(omega) giving the
    frequency-space wavefunction (then F(z) = int conj(psi) e^{-i z omega}
    dsigma by an N-point Gauss rule).  F is holomorphic on the state strip
    and satisfies the reproducing property

        F(z) = int F(v) <v|z> mu(Im v) dx dy / (2 pi).

    Time evolution acts by translation of the argument: the transform of
    e^{-iHt} psi is F(z - t)... evaluated on ket labels it is the shift
    z -> z + t of the state label, the two statements being adjoint to one
    another.
    """
    z = _require_label(ctx, z)
    if callable(state):
        rule = gauss_rule(ctx.sm, N)
        x, y = z.real, z.imag
        logs = rule.log_weights + y * rule.nodes
        m = logs.max()
        vals = np.conj(np.asarray(state(rule.nodes), dtype=complex))
        phase = np.exp(-1j * x * rule.nodes)
        return complex(math.exp(m) * np.sum(vals * np.exp(logs - m) * phase))
    coeffs = np.asarray(state, dtype=complex)
    total = 0.0 + 0.0j
    for n, c in enumerate(coeffs):
        if c != 0.0:
            total += c.conjugate() * sigma_n(ctx, n, z)
    return total


# ---------------------------------------------------------------------------
# Reproducing measure density
# ---------------------------------------------------------------------------


def _snap_unit(x: float) -> float:
    # exponent 1 is a structural boundary (one-sided inversion); the
    # constructors round-trip it with O(eps) noise that must not leak into
    # lgamma(x - 1) or the Whittaker parameter checks
    return 1.0 if abs(x - 1.0) < 1e-9 else x


def reproducing_density(ctx: PropagatorContext, y: float) -> float:
    """Density mu(y) of the completeness measure mu(y) dx dy / (2 pi).

    Closed forms per family, obtained by inverting the two-sided Laplace
    identity int mu(y) e^{2 y omega} dy = 1/density(omega):

    * Hermite: a Gaussian in y (e^{-y^2} for the canonical pair).
    * Laguerre: 2 e^{-gamma beta} e^{2 beta y} (gamma - 2y)^{mu - 2} /
      (C Gamma(mu - 1)) on y < gamma/2.  Requires mu > 1; at mu = 1 the
      inverse transform degenerates to a point mass at the strip edge and
      below that it is not a measure, so Unsupported is raised.
    * Jacobi: a Whittaker-W profile on each side of y = 0 (the two edge
      exponents invert to one-sided kernels whose convolution is W),
      requiring mu >= 1, nu >= 1 and mu + nu > 3.  For mu = nu the profile
      is even in y up to the e^{-(a+b)y} tilt and reduces to a Macdonald
      function.
    """
    pd = ctx.pd
    C = ctx.sm.C
    y = float(y)
    if pd.family == HERMITE:
        p = -2.0 * pd.b0 / pd.a1
        q = -2.0 * pd.a0 / pd.a1
        amp = math.sqrt(p / math.pi) / C * math.exp(-q * q / (4.0 * p))
        return amp * math.exp(-(p * y + q) * y)
    if pd.family == LAGUERRE:
        mu = _snap_unit(pd.mu)
        if mu <= 1.0:
            raise Unsupported(
                "reproducing measure of a Laguerre pair needs mu > 1; at "
                f"mu = {mu} the inversion has no density"
            )
        gamma = -pd.a1 / pd.b1
        beta = pd.b0 / pd.b1
        if y >= 0.5 * gamma:
            return 0.0
        lg = (
            math.log(2.0)
            - math.log(C)
            - math.lgamma(mu - 1.0)
            + 2.0 * beta * y
            - gamma * beta
            + (mu - 2.0) * math.log(gamma - 2.0 * y)
        )
        return math.exp(lg)
    # Jacobi
    mu, nu = _snap_unit(pd.mu), _snap_unit(pd.nu)
    if mu < 1.0 or nu < 1.0 or mu + nu <= 3.0:
        raise Unsupported(
            "reproducing measure of a Jacobi pair needs mu >= 1, nu >= 1 "
            f"and mu + nu > 3; got mu = {mu}, nu = {nu}"
        )
    a, b = pd.support
    if y == 0.0:
        if mu == 1.0 or nu == 1.0:
            # one-sided profile (2|y|)^{edge-2} with edge > 2 vanishing at 0
            return 0.0
        lg = (
            math.log(2.0)
            - math.log(C)
            + math.lgamma(mu + nu - 3.0)
            - math.lgamma(mu - 1.0)
            - math.lgamma(nu - 1.0)
            + (3.0 - mu - nu) * math.log(b - a)
        )
        return math.exp(lg)
    if y > 0.0:
        kappa, edge = 0.5 * (nu - mu), nu
    else:
        kappa, edge = 0.5 * (mu - nu), mu
    if edge == 1.0:
        # the one-sided kernel on this side is a point mass at y = 0
        return 0.0
    lam = 0.5 * (mu + nu - 3.0)
    x = 2.0 * (b - a) * abs(y)
    lw = math.log(whittaker_w(kappa, lam, x))
    lg = (
        math.log(2.0)
        - math.log(C)
        - math.lgamma(edge - 1.0)
        - (a + b) * y
        + 0.5 * (mu + nu - 4.0) * math.log(2.0 * abs(y))
        - 0.5 * (mu + nu - 2.0) * math.log(b - a)
        + lw
    )
    return math.exp(lg)


# ---------------------------------------------------------------------------
# Tilted-state energy diagnostics
# ---------------------------------------------------------------------------


def _hyp1f1_pos(a: float, c: float, w: float) -> float:
    # Kummer reflection keeps every series term positive.
    if w >= 0.0:
        return complex(hyp1f1(a, c, w)).real
    return math.exp(w) * complex(hyp1f1(c - a, c, -w)).real


def mean_energy(ctx: PropagatorContext, y: float) -> float:
    """Mean ladder energy <H> in the normalized coherent state with Im z = y.

    Equals (1/2) d/dy log <z|z> and depends on the label only through y.
    Closed per family: linear in y for Hermite, mu/(gamma - 2y) - beta for
    Laguerre, and a ratio of confluent functions for Jacobi (interpolating
    from the lower to the upper support edge as y runs over the line).
    """
    pd = ctx.pd
    y = float(y)
    if pd.family == HERMITE:
        return -(2.0 * pd.b0 * y + pd.a0) / pd.a1
    if pd.family == LAGUERRE:
        gamma = -pd.a1 / pd.b1
        if y >= 0.5 * gamma:
            raise StripError(f"Im z = {y} outside the state strip (< {0.5 * gamma})")
        return pd.mu / (gamma - 2.0 * y) - pd.b0 / pd.b1
    a, b = pd.support
    mu, nu = pd.mu, pd.nu
    c = mu + nu
    w = 2.0 * (b - a) * y
    ratio = _hyp1f1_pos(mu + 1.0, c + 1.0, w) / _hyp1f1_pos(mu, c, w)
    return a + (b - a) * (mu / c) * ratio


def omega_density(ctx: PropagatorContext, y: float) -> float:
    """Curvature diagnostic -(1/2) d^2/dy^2 log <z|z> at Im z = y.

    Always negative: -omega_density/2 is the spectral variance of omega in
    the tilted state, so this quantity doubles as a variance readout and as
    the y-profile against which the reproducing density flattens.
    """
    pd = ctx.pd
    y = float(y)
    if pd.family == HERMITE:
        return 2.0 * pd.b0 / pd.a1
    if pd.family == LAGUERRE:
        gamma = -pd.a1 / pd.b1
        if y >= 0.5 * gamma:
            raise StripError(f"Im z = {y} outside the state strip (< {0.5 * gamma})")
        return -2.0 * pd.mu / (gamma - 2.0 * y) ** 2
    a, b = pd.support
    mu, nu = pd.mu, pd.nu
    c = mu + nu
    w = 2.0 * (b - a) * y
    f0 = _hyp1f1_pos(mu, c, w)
    f1 = (mu / c) * _hyp1f1_pos(mu + 1.0, c + 1.0, w)
    f2 = (mu * (mu + 1.0) / (c * (c + 1.0))) * _hyp1f1_pos(mu + 2.0, c + 2.0, w)
    r1 = f1 / f0
    return -2.0 * (b - a) ** 2 * (f2 / f0 - r1 * r1)
