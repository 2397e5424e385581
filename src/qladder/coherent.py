"""Spectral coherent states and their reproducing structure.

A ladder system with spectral measure dsigma carries a family of coherent
states labelled by complex z in a horizontal strip: the state with
frequency-space wavefunction e^{-i z omega}.  Its ladder coefficients are
the one-index propagator coefficients,

    <n|z> = sigma_n(z),        <z|v> = sigma(v - conj(z)),

so overlaps never need a mode sum.  Time evolution only shifts the label,
|z> -> |z + t|, which makes these states the natural probes of the closed
forms in :mod:`qladder.propagator`.  Coefficient vectors read the family's
``sigma_seq``: the closed amplitude ratio sigma_n / sigma_{n-1} on Hermite
and Laguerre pairs, the scalar ``sigma_n`` per level on Jacobi pairs.

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
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConvergenceError, StripError
from .orthopoly import PearsonData, _node_sum
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
    nmax: int | None = None,
) -> np.ndarray:
    """Ladder coefficients <n|z> = sigma_n(z), truncated by squared tail.

    sigma_0 comes from ``sigma_n``, the rest from the family's ``sigma_seq``:
    the closed amplitude ratio (w / sqrt(n) for Hermite, w sqrt((mu + n -
    1) / n) for Laguerre), one complex multiply per level, or on Jacobi
    pairs the scalar ``sigma_n`` per level.  The returned vector c
    satisfies ||c||^2 >= (1 - tol) <z|z>, or stops earlier once the
    remaining tail can no longer change ||c||^2 in double precision (a tol
    below rounding cannot be met: the sum and the closed <z|z> differ by
    a few ulps).  The tail is bounded by the geometric
    series of the last decay ratio.  Near the Laguerre strip edge that
    ratio approaches 1, so the needed length grows; past ``nmax`` a
    ConvergenceError reports the deficit instead of silently truncating.
    ``nmax`` defaults to 4,000, then more where the label's closed <N> and <N^2> call for it.
    """
    z = _require_label(ctx, z)
    norm2 = squared_norm(ctx, z)
    seq = ctx.pd.sigma_seq(ctx, z, sigma_n(ctx, 0, z))
    out = []
    acc = prev = 0.0
    n, limit = 0, 4000 if nmax is None else nmax
    while n <= limit:
        c = next(seq)
        out.append(c)
        term = abs(c) ** 2
        acc += term
        if n >= 1 and (
            acc >= (1.0 - tol) * norm2
            or (term < prev and acc + prev / (1.0 - term / prev) == acc)
        ):
            return np.array(out, dtype=complex)
        prev = term
        n += 1
        if n > limit == 4000 and nmax is None and (m1 := ctx.pd.closed_number_moment(z, 1)):
            var = ctx.pd.closed_number_moment(z, 2) - m1 * m1  # reach: sd (Poisson), var/<N> (NB)
            limit = int(m1 + math.log(1.0 / max(tol, 1e-16)) * (math.sqrt(max(var, 0.0)) + var / m1))
    edge = ctx.strip.upper - z.imag < 0.1 * ctx.strip.upper
    raise ConvergenceError(
        f"coherent_coeffs: {n} coefficients leave a deficit of "
        f"{1.0 - acc / norm2:.3e} of <z|z>"
        + ("; label too close to the strip edge" if edge else "")
    )


_TRANSFORM_NODES = 256  # Gauss rule size for a wavefunction given as a callable


def holomorphic_transform(
    ctx: PropagatorContext,
    state: Union[Sequence[complex], np.ndarray, Callable],
    z: complex,
) -> complex:
    """Evaluate F_psi(z) = <psi|z> for a ladder state psi.

    ``state`` is either a vector of ladder coefficients c_n (then
    F(z) = sum conj(c_n) sigma_n(z), with the sigma_n of ``coherent_coeffs``
    up to the last nonzero c_n) or a callable psi(omega) giving the
    frequency-space wavefunction (then F(z) = int conj(psi) e^{-i z omega}
    dsigma by the cached 256-point Gauss rule).  F is holomorphic on the
    state strip and satisfies the reproducing property

        F(z) = int F(v) <v|z> mu(Im v) dx dy / (2 pi).

    Time evolution acts by translation of the argument: the transform of
    e^{-iHt} psi is F(z - t)... evaluated on ket labels it is the shift
    z -> z + t of the state label, the two statements being adjoint to one
    another.
    """
    z = _require_label(ctx, z)
    if callable(state):
        xh, logw = ctx.rule(_TRANSFORM_NODES)
        nodes = ctx.nodes(xh)
        vals = np.conj(np.asarray(state(nodes), dtype=complex))
        M, V = _node_sum(logw + z.imag * nodes, vals, nodes, z.real)
        return math.exp(M) * V
    coeffs = np.trim_zeros(np.asarray(state, dtype=complex), "b")
    seq = ctx.pd.sigma_seq(ctx, z, sigma_n(ctx, 0, z))
    return sum((c.conjugate() * s for c, s in zip(coeffs, seq) if c != 0.0), 0j)


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
