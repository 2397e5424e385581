"""Multi-mode channels reduced to single-ladder recurrence systems."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qladder.errors import ConstraintViolated, NoPseudoVacuum, Singular
from qladder.fockoracle import multimode_apply, state_norm
from qladder.reduction import (
    MultiModeSystem,
    beta_offsets,
    big_g,
    default_alpha,
    find_pseudo_vacuum,
    gamma_coeffs,
    lambda_of,
    occupation_on_ladder,
    reduce,
    validate_alpha,
)

AMP = MultiModeSystem(omega=(1.3, 0.7), l=(1, 1), g=-1j)
UP = MultiModeSystem(omega=(2.0, 1.0), l=(-1, 1), g=1.0)
SQUEEZE = MultiModeSystem(omega=(1.0,), l=(2,), g=0.5)

_occupations = st.lists(st.integers(min_value=0, max_value=12),
                        min_size=2, max_size=2).map(tuple)


@settings(max_examples=60, deadline=None)
@given(occ=_occupations, which=st.sampled_from(["amp", "up"]))
def test_big_g_equals_raise_norm_squared(occ, which):
    """G(m) must equal ||A*|m>||^2 computed by the sparse oracle."""
    sys = AMP if which == "amp" else UP
    image = multimode_apply(sys, "Astar", {occ: 1.0}, cutoff=40,
                            on_overflow="project")
    assert big_g(sys, occ) == pytest.approx(state_norm(image) ** 2, abs=1e-10)


@pytest.mark.parametrize("occ", [(0,), (1,), (3,), (7,)])
def test_big_g_single_mode_squeeze(occ):
    image = multimode_apply(SQUEEZE, "Astar", {occ: 1.0}, cutoff=40,
                            on_overflow="project")
    assert big_g(SQUEEZE, occ) == pytest.approx(state_norm(image) ** 2, abs=1e-10)


def test_default_alpha_constraint():
    from scipy.linalg import null_space

    for l in [(1, 1), (-1, 1), (2,), (1, -2, 3), (2, 1), (1, -1)]:
        alpha = default_alpha(l)
        e0 = np.zeros(len(l))
        e0[0] = 1.0
        assert np.allclose(alpha @ np.asarray(l, float), e0, atol=1e-12)
        # rows 1..M: the complement scipy's null_space gives, bit for bit, and orthonormal
        comp = alpha[1:]
        assert np.array_equal(comp, null_space(np.asarray(l, float)[None, :]).T)
        np.testing.assert_allclose(comp @ comp.T, np.eye(len(l) - 1), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        default_alpha((0, 0))


def test_validate_alpha_errors():
    bad_shape = MultiModeSystem(omega=(1.0, 1.0), l=(1, 1),
                                alpha=np.eye(3))
    with pytest.raises(ValueError):
        validate_alpha(bad_shape)
    singular = MultiModeSystem(omega=(1.0, 1.0), l=(1, 1),
                               alpha=np.ones((2, 2)))
    with pytest.raises(Singular):
        validate_alpha(singular)
    wrong_row = MultiModeSystem(omega=(1.0, 1.0), l=(1, 1),
                                alpha=np.eye(2))
    with pytest.raises(ConstraintViolated):
        validate_alpha(wrong_row)


def test_gamma_coeffs_recovers_frequency_combination():
    gamma = gamma_coeffs(AMP)
    assert gamma[0] == pytest.approx(1.3 + 0.7, abs=1e-12)
    # H_0 = sum_i gamma_i A_i reproduces omega . occ on sample occupations
    for occ in [(0, 0), (2, 1), (5, 3)]:
        assert np.dot(gamma, lambda_of(AMP, occ)) == pytest.approx(
            1.3 * occ[0] + 0.7 * occ[1], abs=1e-10
        )


def test_pseudo_vacuum_walk():
    assert find_pseudo_vacuum(AMP, (5, 3)) == (2, 0)
    assert find_pseudo_vacuum(AMP, (3, 3)) == (0, 0)
    assert find_pseudo_vacuum(SQUEEZE, (7,)) == (1,)
    with pytest.raises(NoPseudoVacuum):
        find_pseudo_vacuum(MultiModeSystem(omega=(1.0,), l=(-1,)), (4,))
    with pytest.raises(ValueError):
        find_pseudo_vacuum(AMP, (-1, 0))


def test_pseudo_vacuum_annihilated():
    for sys, start in [(AMP, (6, 4)), (UP, (3, 5)), (SQUEEZE, (9,))]:
        pv = find_pseudo_vacuum(sys, start)
        assert multimode_apply(sys, "A", {pv: 1.0}, cutoff=40) == {}


def test_amplifier_reduction_values():
    js, sector = reduce(AMP, (5, 3))
    assert sector.pseudo_vacuum_occupation == (2, 0)
    assert sector.lambda00 == pytest.approx(1.0)
    assert sector.lambda_rest[0] == pytest.approx(-2.0 / math.sqrt(2.0))
    assert js.dim is math.inf
    assert js.gamma0 == pytest.approx(2.0)
    # G pattern n(n + mu - 1) with mu = |n0 - n1| + 1 = 3
    for n in range(1, 9):
        assert js.b(n) == pytest.approx(math.sqrt(n * (n + 2)), abs=1e-12)
        assert js.h(n) == 0.0
    assert js.b(0) == 0.0


def test_reduction_b_squared_matches_big_g():
    """b(n)^2 = G(occupation at rung n-1) for an arbitrary nonlinear channel."""
    sys = MultiModeSystem(
        omega=(1.0, 0.5),
        l=(1, 2),
        g=lambda occ: 0.3 + 0.1 * occ[0],
        h_diag=lambda occ: 0.05 * occ[1],
    )
    js, sector = reduce(sys, (4, 9))
    for n in range(1, 7):
        occ = occupation_on_ladder(sector, sys.l, n - 1)
        assert js.b(n) ** 2 == pytest.approx(big_g(sys, occ), rel=1e-12)
        occ_n = occupation_on_ladder(sector, sys.l, n)
        assert js.h(n) == pytest.approx(0.05 * occ_n[1], rel=1e-12)


def test_up_converter_sector_is_finite():
    js, sector = reduce(UP, (4, 1))
    # rungs climb in mode 1 and descend in mode 0: dim = 1 + n0_pv
    pv = sector.pseudo_vacuum_occupation
    assert pv == (5, 0)
    assert js.dim == 6
    assert js.b(js.dim) == 0.0  # ladder terminates
    assert js.b(1) > 0.0


def test_beta_offsets_affine_occupation_law():
    """<n_j> on rung n is l_j*(lambda00 + n) + beta_j exactly."""
    for sys, start in [(AMP, (7, 5)), (UP, (4, 2)), (SQUEEZE, (8,))]:
        js, sector = reduce(sys, start)
        betas = beta_offsets(sys, sector)
        dim = 6 if js.dim is math.inf else int(js.dim)
        for n in range(dim):
            occ = occupation_on_ladder(sector, sys.l, n)
            for j, lj in enumerate(sys.l):
                want = lj * (sector.lambda00 + n) + betas[j]
                assert occ[j] == pytest.approx(want, abs=1e-10)


def test_amplifier_beta_values():
    _, sector = reduce(AMP, (5, 3))
    betas = beta_offsets(AMP, sector)
    assert betas == pytest.approx([1.0, -1.0], abs=1e-12)


def test_system_shape_validation():
    with pytest.raises(ValueError):
        MultiModeSystem(omega=(1.0,), l=(1, 1))
