"""Spin algebra on the symmetric subspace, certified against the full
2^n product space for small n."""
import math

import numpy as np
import pytest

from spinpointer.errors import CapabilityError, DomainError
from spinpointer.spincore import (
    CollectiveOperators,
    Direction,
    coherent_dicke,
    collective_operators,
    dicke_basis_full,
    dicke_expand,
    dicke_powers,
    direction_from_angles,
    direction_from_vector,
    full_tensor_rotation_oracle,
    rotated_up_amplitudes,
    score,
    su2_rotation,
)


def test_direction_vectors_are_unit():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = direction_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert abs(np.linalg.norm(d.as_vector()) - 1.0) < 1e-12


def test_direction_round_trip():
    v = np.array([0.36, -0.48, 0.8])
    d = direction_from_vector(v)
    assert np.allclose(d.as_vector(), v, atol=1e-12)


def test_score_solid_angle_values():
    up = direction_from_angles(0.0, 0.0)
    down = direction_from_angles(math.pi, 0.0)
    side = direction_from_angles(math.pi / 2, 0.3)
    assert score(up, up) == pytest.approx(1.0, abs=1e-15)
    assert score(up, down) == pytest.approx(0.0, abs=1e-15)
    assert score(up, side) == pytest.approx(0.5, abs=1e-15)


def test_score_rotation_invariance():
    # The score depends on the angle between the arguments only.
    rng = np.random.default_rng(5)
    u = direction_from_angles(1.1, 0.4)
    w = direction_from_angles(2.0, 5.1)
    base = score(u, w)
    cosang = float(u.as_vector() @ w.as_vector())
    assert base == pytest.approx(0.5 * (1 + cosang), abs=1e-14)
    for _ in range(5):
        az = rng.uniform(0, 2 * math.pi)
        u2 = direction_from_angles(u.polar, u.azimuth + az)
        w2 = direction_from_angles(w.polar, w.azimuth + az)
        assert score(u2, w2) == pytest.approx(base, abs=1e-12)


def test_su2_full_turn_is_minus_identity():
    r = su2_rotation(np.array([0.0, 0.0, 2 * math.pi]))
    assert np.allclose(r, -np.eye(2), atol=1e-12)


def test_su2_pi_about_y_flips_up():
    r = su2_rotation(np.array([0.0, math.pi, 0.0]))
    flipped = r @ np.array([1.0, 0.0])
    assert abs(flipped[0]) < 1e-12
    assert abs(abs(flipped[1]) - 1.0) < 1e-12


def test_su2_inverse_and_unitarity():
    rng = np.random.default_rng(2)
    for _ in range(8):
        p = rng.normal(size=3) * 3.0
        r = su2_rotation(p)
        assert np.allclose(r @ su2_rotation(-p), np.eye(2), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotated_up_matches_matrix_column():
    rng = np.random.default_rng(8)
    for _ in range(6):
        p = rng.normal(size=3)
        alpha, beta = rotated_up_amplitudes(p)
        col = su2_rotation(p)[:, 0]
        assert abs(alpha - col[0]) < 1e-14
        assert abs(beta - col[1]) < 1e-14


def test_dicke_expand_two_spins_on_equator():
    a = 1 / math.sqrt(2)
    vec = dicke_expand(a, a, 2)
    assert np.allclose(vec.amplitudes, [0.5, 1 / math.sqrt(2), 0.5], atol=1e-14)


def test_dicke_expand_norm_power_law():
    rng = np.random.default_rng(40)
    for n in (1, 2, 5, 17, 60, 100):
        z = rng.normal(size=4)
        alpha = complex(z[0], z[1]) * 0.6
        beta = complex(z[2], z[3]) * 0.6
        single = abs(alpha) ** 2 + abs(beta) ** 2
        vec = dicke_expand(alpha, beta, n)
        assert vec.norm_squared() == pytest.approx(single**n, rel=1e-10)


@pytest.mark.parametrize("n", [60, 61, 100])
def test_dicke_expand_basis_states_across_log_space_threshold(n):
    # Pole states put all weight on one basis state: 0^0 = 1, not 0.
    top = np.zeros(n + 1)
    top[0] = 1.0
    assert np.array_equal(dicke_expand(1.0, 0.0, n).amplitudes, top)
    assert np.array_equal(dicke_expand(0.0, 1.0, n).amplitudes, top[::-1])
    batched = dicke_expand(np.array([1.0, 0.0]), np.array([0.0, 1.0]), n).amplitudes
    assert np.array_equal(batched, np.stack([top, top[::-1]]))
    assert coherent_dicke(direction_from_angles(0.0, 0.0), n).norm_squared() == 1.0
    phased = dicke_expand(0.0, 1j, n).amplitudes
    assert abs(phased[n] - 1j**n) < 1e-12
    assert np.all(phased[:n] == 0)
    # The k-leading route the amplitude field uses, on a one-node mesh.
    one, zero = np.array([1.0 + 0j]), np.array([0j])
    assert np.array_equal(dicke_powers(one, zero, n), top[:, None])
    assert np.array_equal(dicke_powers(zero, one, n), top[::-1, None])


@pytest.mark.parametrize("n", [10, 100])
def test_batched_dicke_expand_equals_scalar_calls_bit_for_bit(n):
    rng = np.random.default_rng(n)
    z = rng.normal(size=(4, 5, 4))
    alpha = (z[..., 0] + 1j * z[..., 1]) * 0.5
    beta = (z[..., 2] + 1j * z[..., 3]) * 0.5
    alpha[0, :3] = 0.0
    beta[1, 1:4] = 0.0
    alpha[2, 2] = beta[2, 2] = 0.0
    batched = dicke_expand(alpha, beta, n)
    assert batched.amplitudes.shape == (4, 5, n + 1)
    for idx in np.ndindex(alpha.shape):
        single = dicke_expand(complex(alpha[idx]), complex(beta[idx]), n).amplitudes
        assert np.array_equal(batched.amplitudes[idx], single)
    assert batched.norm_squared().shape == (4, 5)
    with pytest.raises(DomainError):
        dicke_expand(alpha, beta[0], n)


def test_coherent_state_overlap_power_law():
    rng = np.random.default_rng(13)
    for n in (1, 4, 9):
        u = direction_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        w = direction_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        ov = abs(np.vdot(coherent_dicke(u, n).amplitudes, coherent_dicke(w, n).amplitudes)) ** 2
        assert ov == pytest.approx(score(u, w) ** n, abs=1e-12)


def test_coherent_up_is_top_basis_state():
    vec = coherent_dicke(direction_from_angles(0.0, 0.0), 3)
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.allclose(vec.amplitudes, expected, atol=1e-14)


def test_collective_operator_algebra():
    for n in (1, 2, 4, 7):
        ops = collective_operators(n)
        assert isinstance(ops, CollectiveOperators)
        for a, b, c in ((ops.sx, ops.sy, ops.sz), (ops.sy, ops.sz, ops.sx), (ops.sz, ops.sx, ops.sy)):
            assert np.allclose(a @ b - b @ a, 1j * c, atol=1e-12)
        j = n / 2.0
        casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        assert np.allclose(casimir, j * (j + 1) * np.eye(n + 1), atol=1e-12)


def test_sz_spectrum_is_exact_ladder():
    for n in (1, 3, 10):
        sz = collective_operators(n).sz
        assert np.allclose(np.diag(sz).real, np.arange(n / 2.0, -n / 2.0 - 0.5, -1.0), atol=0)
        assert np.allclose(sz, np.diag(np.diag(sz)), atol=0)


def test_symmetric_rotation_matches_full_tensor():
    rng = np.random.default_rng(20240811)
    for n in range(1, 5):
        basis = dicke_basis_full(n)
        up = np.zeros(2**n, dtype=complex)
        up[0] = 1.0
        for _ in range(4):
            p = rng.normal(size=3) * 2.0
            projected = basis @ (full_tensor_rotation_oracle(p, n) @ up)
            direct = dicke_expand(*rotated_up_amplitudes(p), n)
            assert np.max(np.abs(projected - direct.amplitudes)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_oracle_equals_one_call_per_momentum(n):
    rng = np.random.default_rng(30 + n)
    p = rng.normal(size=(6, 3)) * 2.0
    p[0] = 0.0
    stacked = full_tensor_rotation_oracle(p, n)
    assert stacked.shape == (6, 2**n, 2**n)
    for i in range(len(p)):
        assert np.array_equal(stacked[i], full_tensor_rotation_oracle(p[i], n))
    grid = full_tensor_rotation_oracle(p.reshape(2, 3, 3), n)
    assert np.array_equal(grid.reshape(stacked.shape), stacked)


def test_full_tensor_basis_is_orthonormal():
    for n in (1, 2, 4):
        basis = dicke_basis_full(n)
        assert np.allclose(basis @ basis.T, np.eye(n + 1), atol=1e-14)


def test_oracle_size_cap():
    with pytest.raises(CapabilityError):
        full_tensor_rotation_oracle(np.array([0.1, 0.2, 0.3]), 5)
    with pytest.raises(CapabilityError):
        dicke_basis_full(5)


def test_domain_errors():
    with pytest.raises(DomainError):
        dicke_expand(1.0, 0.0, 0)
    with pytest.raises(DomainError):
        collective_operators(0)
    with pytest.raises(DomainError):
        su2_rotation(np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        full_tensor_rotation_oracle(np.zeros((4, 2)), 2)
    with pytest.raises(DomainError):
        Direction(polar=4.0, azimuth=0.0)
