"""Brute-force Fock oracle: truncation, sparse application, evolution."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qladder.errors import CutoffOverflow
from qladder.fockoracle import (
    MultiModeBasis,
    commutator_norm,
    dense_matrix,
    eigh_evolve,
    expm_evolve,
    interaction_evolve,
    multimode_apply,
    state_norm,
    truncated_h,
)
from qladder.orthopoly import laguerre_data, recurrence
from qladder.reduction import MultiModeSystem


def _amplifier():
    # two modes coupled through a0* a1* + h.c.
    return MultiModeSystem(omega=(1.3, 0.7), l=(1, 1), g=1.0)


def test_truncated_h_matches_recurrence(family_ctx):
    op = truncated_h(family_ctx.js, 6)
    assert op.dim == 6
    assert op.diag == pytest.approx([family_ctx.js.h(n) for n in range(6)])
    assert op.off == pytest.approx([family_ctx.js.b(n) for n in range(1, 6)])
    dense = op.dense()
    assert np.allclose(dense, dense.conj().T)


def test_truncated_h_validates_size():
    import qladder.orthopoly as op

    js = op.recurrence(op.hermite_data())
    with pytest.raises(ValueError):
        truncated_h(js, 0)
    finite = op.JacobiSystem(b=js.b, h=js.h, dim=4)
    with pytest.raises(ValueError):
        truncated_h(finite, 5)


def test_expm_evolve_is_unitary_and_matches_dense(family_ctx):
    op = truncated_h(family_ctx.js, 40)
    vec = np.zeros(40)
    vec[3] = 1.0
    out = expm_evolve(op, 1.7, vec)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    out2 = eigh_evolve(op.dense(), 1.7, vec)
    assert np.max(np.abs(out - out2)) < 1e-12


def test_expm_evolve_rejects_wrong_length(family_ctx):
    op = truncated_h(family_ctx.js, 5)
    with pytest.raises(ValueError):
        expm_evolve(op, 0.1, np.zeros(6))


def test_block_evolve_rejects_wrong_length():
    sys, basis = _amplifier(), MultiModeBasis(2, max_local=4)
    h = dense_matrix(sys, "HI", basis)
    for vec in (np.zeros(len(h) - 1), np.zeros(len(h) + 1)):
        with pytest.raises(ValueError, match="does not match dim 25"):
            eigh_evolve(h, 0.1, vec)
        with pytest.raises(ValueError, match="does not match dim 25"):
            interaction_evolve(sys, basis, 0.1, vec)


def test_warm_expm_evolve_makes_no_complex_copy_of_the_eigenvectors():
    from qladder import fockoracle

    op = truncated_h(recurrence(laguerre_data(2.5)), 1000)
    vec = np.zeros(op.dim, dtype=complex)
    vec[:3] = (0.6, 0.8j, 0.0)
    out = expm_evolve(op, 1.3, vec)  # cold: diagonalizes and caches
    [(_, _, v)] = fockoracle._BLOCKS.get((op.diag.tobytes(), op.off.tobytes()))
    tracemalloc.start()
    try:
        again = expm_evolve(op, 1.3, vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(again, out)
    assert peak < v.nbytes / 4


def test_warm_eigh_evolve_copies_neither_h_nor_its_eigenvectors():
    h = dense_matrix(_amplifier(), "HI", MultiModeBasis(2, max_local=14))
    vec = np.zeros(len(h), dtype=complex)
    vec[:3] = (0.6, 0.8j, 0.0)
    # nothing is cached: both calls diagonalize h's blocks afresh, and the
    # peak stays small because h splits into blocks of at most 15 levels
    out = eigh_evolve(h, 1.3, vec)
    tracemalloc.start()
    try:
        again = eigh_evolve(h, 1.3, vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(again, out)
    assert peak < h.nbytes / 4  # the eigenvector matrix has h's shape and dtype


def test_block_evolve_of_a_real_block_makes_no_complex_copy():
    from qladder.fockoracle import _evolve_blocks

    op = truncated_h(recurrence(laguerre_data(2.5)), 1000)
    w, v = scipy.linalg.eigh_tridiagonal(op.diag, op.off)
    blocks = [(np.arange(op.dim), w, v)]
    vec = np.zeros(op.dim, dtype=complex)
    vec[:3] = (0.6, 0.8j, 0.0)
    for t in (1.3, np.linspace(0.0, 1.4, 8)):
        out = _evolve_blocks(op.dim, blocks, t, vec)
        tracemalloc.start()
        try:
            again = _evolve_blocks(op.dim, blocks, t, vec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(again, out)
        assert peak < v.nbytes / 4
        want = (np.exp(-1j * np.multiply.outer(t, w)) * (v.T @ vec)) @ v.T.astype(complex)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-13)


def test_expm_evolve_of_start_columns_equals_one_call_per_column(family_ctx):
    op = truncated_h(family_ctx.js, 60)
    rng = np.random.default_rng(29)
    starts = np.zeros((60, 3), dtype=complex)
    starts[4, 0] = 1.0
    starts[:3, 1] = rng.normal(size=3) + 1j * rng.normal(size=3)
    starts[:5, 2] = rng.normal(size=5)
    for t in (0.9, np.linspace(0.0, 1.4, 5)):
        out = expm_evolve(op, t, starts)
        assert out.shape == np.shape(t) + starts.shape
        for j in range(3):
            np.testing.assert_allclose(out[..., j], expm_evolve(op, t, starts[:, j]), rtol=0, atol=1e-14)


def test_interaction_evolve_of_start_columns_equals_one_call_per_column():
    sys, basis = MultiModeSystem(omega=(1.0, 1.0), l=(1, 1), g=-0.8j), MultiModeBasis(2, max_local=6)
    starts = np.zeros((len(basis), 2), dtype=complex)
    starts[basis.index[(1, 0)], 0] = 1.0
    starts[basis.index[(0, 0)], 1], starts[basis.index[(2, 1)], 1] = 0.6, 0.8j
    ts = np.linspace(0.0, 0.6, 4)
    out = interaction_evolve(sys, basis, ts, starts)  # complex blocks
    for j in range(2):
        np.testing.assert_allclose(out[..., j], interaction_evolve(sys, basis, ts, starts[:, j]), rtol=0, atol=1e-14)


def _routes():
    sys, basis = _amplifier(), MultiModeBasis(2, max_local=6)
    h = dense_matrix(sys, "HI", basis)
    op = truncated_h(recurrence(laguerre_data(2.5)), len(h))
    return {
        "expm_evolve": lambda t, vec: expm_evolve(op, t, vec),
        "eigh_evolve": lambda t, vec: eigh_evolve(h, t, vec),
        "interaction_evolve": lambda t, vec: interaction_evolve(sys, basis, t, vec),
    }, len(h)


@pytest.mark.parametrize("route", ["expm_evolve", "eigh_evolve", "interaction_evolve"])
def test_oracle_routes_give_one_row_per_time(route):
    routes, dim = _routes()
    evolve = routes[route]
    vec = np.zeros(dim, dtype=complex)
    vec[4] = 1.0
    ts = np.array([0.0, 0.4, 1.1])
    rows = evolve(ts, vec)
    assert rows.shape == (3, dim)
    for t, row in zip(ts, rows):
        one = evolve(float(t), vec)  # a scalar time gives one state, as bench/worker.py asks
        assert one.shape == (dim,)
        np.testing.assert_allclose(row, one, rtol=0, atol=1e-15)


def test_basis_counts():
    b = MultiModeBasis(2, max_total=3)
    assert len(b) == 10  # (3+2 choose 2)
    assert b.locate(np.array([[0, 0], [3, 0], [2, 2]])).tolist() == [0, 9, -1]
    box = MultiModeBasis(2, max_local=2)
    assert len(box) == 9
    both = MultiModeBasis(2, max_total=3, max_local=2)
    assert len(both) == 8 and both.locate(np.array([[2, 2]])).tolist() == [-1]
    with pytest.raises(ValueError):
        MultiModeBasis(2)


@pytest.mark.parametrize("modes", [1, 2, 3])
@pytest.mark.parametrize("max_total, max_local", [(5, None), (None, 3), (5, 3)])
def test_basis_is_the_sorted_brute_force_filter(modes, max_total, max_local):
    brute = sorted(
        occ for occ in np.ndindex(*(7,) * modes)
        if (max_total is None or sum(occ) <= max_total)
        and (max_local is None or max(occ) <= max_local)
    )
    basis = MultiModeBasis(modes, max_total=max_total, max_local=max_local)
    assert basis.states == brute
    assert [basis.index[occ] for occ in brute] == list(range(len(brute)))


def test_raise_amplitude_hand_value():
    sys = _amplifier()
    out = multimode_apply(sys, "Astar", {(2, 0): 1.0}, cutoff=10)
    # a0* a1* |2,0> = sqrt(3*1) |3,1>
    assert set(out) == {(3, 1)}
    assert out[(3, 1)] == pytest.approx(math.sqrt(3.0))


def test_lower_amplitude_hand_value():
    sys = _amplifier()
    out = multimode_apply(sys, "A", {(3, 1): 1.0}, cutoff=10)
    assert set(out) == {(2, 0)}
    assert out[(2, 0)] == pytest.approx(math.sqrt(3.0))
    # annihilation kills the vacuum of either mode
    assert multimode_apply(sys, "A", {(2, 0): 1.0}, cutoff=10) == {}


def test_up_converter_amplitudes():
    sys = MultiModeSystem(omega=(2.0, 1.0), l=(-1, 1), g=1.0)
    # A = a0* a1: |1, 2> -> sqrt(2*2) |2, 1>
    out = multimode_apply(sys, "A", {(1, 2): 1.0}, cutoff=10)
    assert out[(2, 1)] == pytest.approx(2.0)


def test_h0_and_hi_terms():
    sys = _amplifier()
    out = multimode_apply(sys, "H0", {(2, 1): 1.0}, cutoff=10)
    assert out[(2, 1)] == pytest.approx(1.3 * 2 + 0.7)
    hi = multimode_apply(sys, "HI", {(1, 1): 1.0}, cutoff=10)
    assert set(hi) == {(0, 0), (2, 2)}
    assert hi[(0, 0)] == pytest.approx(1.0)
    assert hi[(2, 2)] == pytest.approx(2.0)


def test_overflow_policy():
    sys = _amplifier()
    with pytest.raises(CutoffOverflow):
        multimode_apply(sys, "Astar", {(2, 2): 1.0}, cutoff=4)
    out = multimode_apply(sys, "Astar", {(2, 2): 1.0}, cutoff=4,
                          on_overflow="project")
    assert out == {}


def test_unknown_term_rejected():
    with pytest.raises(ValueError):
        multimode_apply(_amplifier(), "bogus", {(0, 0): 1.0}, cutoff=4)


def test_state_norm():
    assert state_norm({(0,): 3.0, (1,): 4.0}) == pytest.approx(5.0)


def test_conserved_combinations_commute_with_interaction():
    """[H_I, A_i] = 0 for i >= 1 is what makes a sector closed; A_0 counts
    ladder steps and must not commute."""
    sys = _amplifier()
    assert commutator_norm(sys, "HI", ("Aj", 1), cutoff=12) < 1e-10
    assert commutator_norm(sys, "HI", ("Aj", 0), cutoff=12) > 1.0
    up = MultiModeSystem(omega=(2.0, 1.0), l=(-1, 1), g=0.7)
    assert commutator_norm(up, "HI", ("Aj", 1), cutoff=12) < 1e-10


def test_dense_matrix_is_projection_consistent():
    sys = _amplifier()
    basis = MultiModeBasis(2, max_total=6)
    hi = dense_matrix(sys, "HI", basis)
    assert np.allclose(hi, hi.conj().T)
    j = basis.index[(2, 0)]
    i = basis.index[(3, 1)]
    assert hi[i, j] == pytest.approx(math.sqrt(3.0))


def _dense_route(h, ts, vec):
    """exp(-i h t) vec for each t through one eigendecomposition of all of h."""
    w, v = scipy.linalg.eigh(h)
    return (np.exp(-1j * np.multiply.outer(ts, w)) * (v.conj().T @ vec)) @ v.T


@pytest.mark.parametrize("sys, basis", [
    *[(MultiModeSystem(omega=(1.0, 1.0), l=(1, 1), g=-0.9j), MultiModeBasis(2, max_local=n))
      for n in (20, 25, 29, 34)],
    (MultiModeSystem(omega=(1.3, 0.7), l=(1, 1), g=-1j), MultiModeBasis(2, max_total=40)),
], ids=["box20", "box25", "box29", "box34", "simplex40"])
def test_block_route_equals_the_dense_route(sys, basis):
    from qladder.fockoracle import _interaction_entries

    h = dense_matrix(sys, "HI", basis)
    rows, cols, vals = _interaction_entries(sys, basis)
    sparse = np.zeros_like(h)
    sparse[rows, cols] = vals
    np.testing.assert_array_equal(sparse, h)  # the same entries as the dict route
    rng = np.random.default_rng(len(basis))
    vec = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    vec /= np.linalg.norm(vec)
    ts = np.array([0.0, 0.3, 0.8])
    want = _dense_route(h, ts, vec)
    assert np.max(np.abs(interaction_evolve(sys, basis, ts, vec) - want)) < 1e-12
    assert np.max(np.abs(eigh_evolve(h, ts, vec) - want)) < 1e-12


@pytest.mark.parametrize("l", [(1, -1), (2, 1), (2, -1, 1)])
def test_interaction_entries_match_the_dict_route_for_occupation_maps(l):
    from qladder.fockoracle import _interaction_entries

    sys = MultiModeSystem(omega=(1.0,) * len(l), l=l, g=lambda occ: 0.3 + 0.1j * occ[0],
                          h_diag=lambda occ: 0.5 * occ[-1])
    for basis in (MultiModeBasis(len(l), max_total=9), MultiModeBasis(len(l), max_local=5)):
        h = dense_matrix(sys, "HI", basis)
        rows, cols, vals = _interaction_entries(sys, basis)
        sparse = np.zeros_like(h)
        sparse[rows, cols] = vals
        np.testing.assert_array_equal(sparse, h)


@pytest.mark.parametrize("other", [{"g": 0.7}, {"h_diag": 0.25}])
def test_systems_differing_in_one_coupling_do_not_share_blocks(other, monkeypatch):
    from qladder import fockoracle

    monkeypatch.setattr(fockoracle, "_BLOCKS", type(fockoracle._BLOCKS)(64, fockoracle._BLOCKS.max_bytes))
    basis = MultiModeBasis(2, max_local=8)
    vec = np.zeros(len(basis), dtype=complex)
    vec[basis.index[(1, 0)]] = 1.0
    base = MultiModeSystem(omega=(1.3, 0.7), l=(1, 1), g=0.5)
    changed = MultiModeSystem(omega=(1.3, 0.7), l=(1, 1), **{"g": 0.5, **other})
    for sys in (base, changed):
        got = interaction_evolve(sys, basis, 0.9, vec)
        want = _dense_route(dense_matrix(sys, "HI", basis), 0.9, vec)
        assert np.max(np.abs(got - want)) < 1e-12
    assert len(fockoracle._BLOCKS._data) == 2
