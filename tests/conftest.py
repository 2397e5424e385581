"""Shared fixtures: one context per classified family, and closed-form
orthonormal polynomials as an independent reference."""

import mpmath as mp
import pytest

from qladder import propagator
from qladder.orthopoly import _Hermite, _Laguerre, hermite_data, jacobi_data, laguerre_data
from qladder.propagator import build_context

CANONICAL = {
    "hermite": hermite_data(),
    "laguerre": laguerre_data(2.5),
    "jacobi": jacobi_data(-1.0, 1.0, 2.0, 1.5),
}


@pytest.fixture(scope="session", params=sorted(CANONICAL))
def family_name(request):
    return request.param


@pytest.fixture(scope="session")
def family_ctx(family_name):
    return build_context(CANONICAL[family_name])


def _recording(cache, built):
    """An empty cache with the bounds of ``cache`` that appends to ``built`` the key of every
    value put into it; so does any cache of its type.

    Every build goes through ``put``, kept or not (a value over the byte budget
    is built and used, then dropped), so builds are recorded where they run.
    """

    class Recording(propagator._LRU):
        def put(self, key, val):
            built.append(key)
            super().put(key, val)

    return Recording(cache.slots, cache.max_bytes)


@pytest.fixture
def rule_builds(monkeypatch):
    """Keys (family, shape parameters, nodes) of the Gauss rules built during the test, on an
    empty rule cache with the production bounds."""
    built = []
    monkeypatch.setattr(propagator, "_RULES", _recording(propagator._RULES, built))
    return built


def _mp_orthonormal(pd, n, x, d=0):
    """d-th derivatives of P_0..P_n of ``pd`` at x, computed at 40 digits.

    mpmath's hermite, laguerre (a = mu - 1) and jacobi (a = nu - 1,
    b = mu - 1), mapped affinely onto pd's support and scaled by their
    closed norms to the orthonormal, positive-leading convention of the
    recurrence; no code from this package is involved.
    """
    with mp.workdps(40):
        if isinstance(pd, _Hermite):
            mean = -mp.mpf(pd.a0) / pd.a1
            c = 1 / mp.sqrt(-2 * mp.mpf(pd.b0) / pd.a1)

            def f(k, t):
                return mp.hermite(k, c * (t - mean)) / mp.sqrt(2**k * mp.factorial(k))
        elif isinstance(pd, _Laguerre):
            mu, gamma, beta = mp.mpf(pd.mu), mp.mpf(pd.gamma), mp.mpf(pd.beta)

            def f(k, t):
                norm = mp.sqrt(mp.factorial(k) * mp.gamma(mu) / mp.gamma(k + mu))
                return (-1) ** k * norm * mp.laguerre(k, mu - 1, gamma * (t + beta))
        else:
            lo, hi = (mp.mpf(e) for e in pd.support)
            al, be = mp.mpf(pd.nu) - 1, mp.mpf(pd.mu) - 1

            def h(k):  # squared norm of the classical P_k^(al, be) on (-1, 1)
                return (2 ** (al + be + 1) / (2 * k + al + be + 1) * mp.gamma(k + al + 1)
                        * mp.gamma(k + be + 1) / (mp.gamma(k + al + be + 1) * mp.factorial(k)))

            def f(k, t):
                y = (2 * t - lo - hi) / (hi - lo)
                return mp.sqrt(h(0) / h(k)) * mp.jacobi(k, al, be, y)

        x = mp.mpf(float(x))
        return [float(mp.diff(lambda t: f(k, t), x, d)) for k in range(n + 1)]


@pytest.fixture(scope="session")
def mp_orthonormal():
    return _mp_orthonormal


def _mp_sigma_n(pd, C, n, z):
    """sigma_n(z) of a Hermite or Laguerre pair with measure constant C, at 40 digits.

    The closed forms written out from the Rodrigues logs: log c_n =
    -(log C + log mass + log n! + n log(-a1 b0)) / 2 and sigma_n = c_n
    (-i b0 z)^n sigma(z) for Hermite; log c_n = -(log C + log mass + log n!
    + 2n log b1 + log (mu)_n) / 2 and sigma_n = c_n (mu)_n (-b1 z / (z - i
    gamma))^n sigma(z) for Laguerre.  Only pd's stored parameters enter.
    """
    with mp.workdps(40):
        z = mp.mpc(z)
        if isinstance(pd, _Hermite):
            a0, a1, b0 = (mp.mpf(v) for v in (pd.a0, pd.a1, pd.b0))
            log_mass = -a0**2 / (2 * a1 * b0) + mp.log(2 * mp.pi * b0 / -a1) / 2
            rod = log_mass + mp.loggamma(n + 1) + n * mp.log(-a1 * b0)
            rest = n * mp.log(-1j * b0 * z) + b0 / (2 * a1) * z * z + 1j * a0 / a1 * z
        else:
            mu, gamma, beta, b1 = (mp.mpf(v) for v in (pd.mu, pd.gamma, pd.beta, pd.b1))
            poch = mp.loggamma(mu + n) - mp.loggamma(mu)
            log_mass = gamma * beta + mp.loggamma(mu) - mu * mp.log(gamma)
            rod = log_mass + mp.loggamma(n + 1) + 2 * n * mp.log(b1) + poch
            rest = (poch + n * mp.log(-b1 * z / (z - 1j * gamma))
                    - mu * mp.log(1 + 1j * z / gamma) + 1j * beta * z)
        return complex(mp.exp(-(mp.log(mp.mpf(C)) + rod) / 2 + rest))


@pytest.fixture(scope="session")
def mp_sigma_n():
    return _mp_sigma_n
