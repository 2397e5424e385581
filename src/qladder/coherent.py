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

The closed forms per family (``reproducing_density``, ``mean_energy``,
``omega_density``) live on the PearsonData subclasses of
:mod:`qladder.orthopoly`; the functions here check the label strip and call
them.
"""

from __future__ import annotations

import math
import cmath
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConvergenceError, StripError
from .measure import gauss_rule
from .orthopoly import PearsonData
from .propagator import (
    PropagatorContext,
    StripDomain,
    build_context,
    char_fn,
    sigma_n,
)

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


def _require_height(ctx: PropagatorContext, y: float) -> float:
    y = float(y)
    if y >= ctx.strip.upper:
        raise StripError(f"Im z = {y} outside the state strip (< {ctx.strip.upper})")
    return y


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
    return ctx.pd.reproducing_density(ctx, float(y))


# ---------------------------------------------------------------------------
# Tilted-state energy diagnostics
# ---------------------------------------------------------------------------


def mean_energy(ctx: PropagatorContext, y: float) -> float:
    """Mean ladder energy <H> in the normalized coherent state with Im z = y.

    Equals (1/2) d/dy log <z|z> and depends on the label only through y.
    Closed per family: linear in y for Hermite, mu/(gamma - 2y) - beta for
    Laguerre, and a ratio of confluent functions for Jacobi (interpolating
    from the lower to the upper support edge as y runs over the line).
    """
    return ctx.pd.mean_energy(_require_height(ctx, y))


def omega_density(ctx: PropagatorContext, y: float) -> float:
    """Curvature diagnostic -(1/2) d^2/dy^2 log <z|z> at Im z = y.

    Always negative: -omega_density/2 is the spectral variance of omega in
    the tilted state, so this quantity doubles as a variance readout and as
    the y-profile against which the reproducing density flattens.
    """
    return ctx.pd.omega_density(_require_height(ctx, y))
