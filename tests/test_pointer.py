"""Pointer wavefunctions and the conditional amplitude field.

The partial-wave synthesis is certified here against a brute-force 3-D
momentum quadrature, against single-point evaluation, and against the
rotational covariance that the spherical decomposition must respect.
"""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

from spinpointer import pointer, spincore
from spinpointer.errors import CapabilityError, DomainError, NumericError
from spinpointer.pointer import (
    MomentumQuadrature,
    OutcomeGrid,
    PointerModel,
    adaptive_outcome_grid,
    build_amplitude_field,
    build_outcome_grid,
    direct_amplitudes_3d,
    hemisphere_masses,
    momentum_profile,
    position_amplitudes,
    radial_cumulative,
)
from spinpointer.quadrature import Rule1D, gauss_legendre
from spinpointer.spincore import direction_from_angles


def _two_caps(count, split):
    """A polar rule of two Gauss-Legendre caps, of count // 2 nodes below the
    split angle and the rest above it."""
    lower, upper = gauss_legendre(count // 2, 0.0, split), gauss_legendre(count - count // 2, split, math.pi)
    return Rule1D(np.concatenate([lower.nodes, upper.nodes]), np.concatenate([lower.weights, upper.weights]),
                  (0.0, math.pi))


def test_momentum_profile_peak_value():
    model = PointerModel(1.0)
    assert float(momentum_profile(0.0, model)) == pytest.approx((2 / math.pi) ** 0.75, abs=1e-15)


def test_momentum_profile_normalized():
    for spread in (0.1, 0.7, 4.0):
        model = PointerModel(spread)
        rule = gauss_legendre(96, 0.0, 8.0 * model.momentum_sigma)
        total = 4 * math.pi * float(rule.weights @ (rule.nodes**2 * momentum_profile(rule.nodes, model) ** 2))
        assert total == pytest.approx(1.0, abs=1e-8)


def test_momentum_profile_monotone_decreasing():
    model = PointerModel(0.5)
    p = np.linspace(0.0, 4.0, 50)
    values = momentum_profile(p, model)
    assert np.all(np.diff(values) < 0)


def test_model_momentum_width_is_half_inverse_spread():
    assert PointerModel(0.25).momentum_sigma == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(DomainError):
        PointerModel(0.0)
    with pytest.raises(DomainError):
        PointerModel(-1.0)


def test_momentum_quadrature_validation():
    with pytest.raises(DomainError):
        MomentumQuadrature(radial_nodes=3)
    with pytest.raises(DomainError):
        MomentumQuadrature(cutoff_sigmas=2.0)
    for cutoff in (math.inf, math.nan):
        # Both used to construct, then fail in effective_radial with
        # OverflowError or ValueError.
        with pytest.raises(DomainError):
            MomentumQuadrature(cutoff_sigmas=cutoff)
    for count in (40.5, math.nan, math.inf):
        # A fractional radial count used to run with its integer part, and a
        # fractional or nan azimuthal count to fail inside the Bloch and
        # oracle routes with TypeError or ValueError.
        for name in ("radial_nodes", "polar_nodes", "azimuthal_nodes"):
            with pytest.raises(DomainError):
                MomentumQuadrature(**{name: count})
    quad = MomentumQuadrature(radial_nodes=50)
    p_rule, c_rule = quad.gauss_rules(PointerModel(1.0), 999, 40)
    assert (p_rule.count, c_rule.count) == (50, 40)
    auto = MomentumQuadrature()
    model = PointerModel(0.5)
    assert auto.p_max(model) == pytest.approx(8.0, abs=1e-15)
    # Oscillation budget: at least 1.5 nodes per radian of e^{i r p} phase,
    # with the spin band widening the effective radius.
    assert auto.effective_radial(2.0, model, n_spins=2) >= math.ceil(1.5 * 3.0 * 8.0)


def test_outcome_grid_ball_volume():
    grid = build_outcome_grid(1.7, nodes_r=48, nodes_theta=32)
    w_r, w_t = grid.volume_weights()
    volume = float(np.sum(w_r) * np.sum(w_t))
    assert volume == pytest.approx(4.0 / 3.0 * math.pi * 1.7**3, abs=1e-10)


def test_outcome_grid_domain_errors():
    with pytest.raises(DomainError):
        build_outcome_grid(0.0)
    with pytest.raises(DomainError):  # used to return a grid of nan nodes
        build_outcome_grid(math.inf)
    for azimuth in (math.nan, math.inf):  # used to return nan amplitudes
        with pytest.raises(DomainError):
            position_amplitudes(0.3, 0.7, 1, PointerModel(1.0), azimuth=azimuth)


@pytest.mark.parametrize("n_spins,spread", [(1, 0.05), (1, 1.0), (3, 0.3), (6, 1.0)])
def test_total_probability_is_one(n_spins, spread):
    model = PointerModel(spread)
    grid = adaptive_outcome_grid(n_spins, model)
    field = build_amplitude_field(n_spins, model, grid)
    assert field.total_probability == pytest.approx(1.0, abs=1e-4)


def test_adaptive_grid_resolves_narrow_shells():
    model = PointerModel(0.01)
    grid = adaptive_outcome_grid(3, model)
    spacing = math.pi * grid.radial.domain[1] / (2 * grid.radial.count)
    assert spacing < model.spread


def test_weak_coupling_leaves_spin_in_place():
    vec = position_amplitudes(0.3, 0.7, 1, PointerModel(50.0))
    assert abs(vec.amplitudes[1]) ** 2 < 1e-4 * vec.norm_squared()


def test_single_point_matches_field():
    model = PointerModel(0.7)
    grid = adaptive_outcome_grid(2, model)
    field = build_amplitude_field(2, model, grid)
    quad = MomentumQuadrature(radial_nodes=field.counts.nodes_p_radial)
    for a, b in ((3, 5), (40, 30)):
        single = position_amplitudes(
            float(grid.radial.nodes[a]), float(grid.polar.nodes[b]), 2, model, quad
        )
        assert np.max(np.abs(single.amplitudes - field.values[a, b])) < 1e-12


def test_field_matches_brute_force_3d():
    model = PointerModel(0.7)
    up = direction_from_angles(0.0, 0.0)
    for radius, polar, azimuth in ((0.9, 0.6, 0.0), (0.4, 2.2, 1.3)):
        vec = radius * np.array(
            [math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar)]
        )
        brute = direct_amplitudes_3d(vec, up, 2, model)
        fast = position_amplitudes(radius, polar, 2, model, azimuth=azimuth)
        assert np.max(np.abs(brute.amplitudes - fast.amplitudes)) < 1e-10


def test_rotational_covariance():
    # Rotating the input direction and the outcome point together must leave
    # the outcome amplitudes' norm unchanged.
    model = PointerModel(0.7)
    rng = np.random.default_rng(17)
    for _ in range(3):
        polar, azimuth = rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)
        tilted = direction_from_angles(polar, azimuth)
        cos_a, sin_a = math.cos(azimuth), math.sin(azimuth)
        cos_p, sin_p = math.cos(polar), math.sin(polar)
        rot = np.array([[cos_a, -sin_a, 0.0], [sin_a, cos_a, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
            [[cos_p, 0.0, sin_p], [0.0, 1.0, 0.0], [-sin_p, 0.0, cos_p]]
        )
        radius, theta, phi = 0.9, rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)
        point = radius * np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )
        brute = direct_amplitudes_3d(rot @ point, tilted, 2, model)
        fast = position_amplitudes(radius, theta, 2, model, azimuth=phi)
        assert brute.norm_squared() == pytest.approx(fast.norm_squared(), abs=1e-10)


def test_hemisphere_masses_favor_input_direction():
    for spread in (0.3, 0.8):
        upper, lower = hemisphere_masses(2, PointerModel(spread))
        assert upper > lower


def test_hemisphere_strong_coupling_single_spin():
    # With one spin and a sharp pointer the outcome lands on the +/- axis/2
    # shells with Born weights, putting 3/4 of the mass in the upper cap.
    upper, _ = hemisphere_masses(1, PointerModel(0.02))
    assert upper == pytest.approx(0.75, abs=0.01)


def test_hemisphere_caps_add_up_to_the_adaptive_grid_total():
    # The caps' own polar rule is one integral split in two, over the
    # adaptive grid's radii: its sum is that grid's total probability.
    for n_spins, spread in [(1, 0.02), (2, 0.3), (2, 0.8), (4, 1.0), (6, 0.3)]:
        model = PointerModel(spread)
        upper, lower = hemisphere_masses(n_spins, model)
        total = build_amplitude_field(n_spins, model, adaptive_outcome_grid(n_spins, model)).total_probability
        assert abs(upper + lower - total) <= 1e-12


def test_radial_cumulative_monotone():
    model = PointerModel(0.4)
    grid = adaptive_outcome_grid(2, model)
    field = build_amplitude_field(2, model, grid)
    cum = radial_cumulative(field)
    assert np.all(np.diff(cum) >= -1e-15)
    assert cum[-1] == pytest.approx(field.total_probability, abs=1e-12)


def test_node_doubling_stability():
    model = PointerModel(0.5)
    base = build_amplitude_field(2, model, adaptive_outcome_grid(2, model, 96, 64))
    fine = build_amplitude_field(2, model, adaptive_outcome_grid(2, model, 192, 128))
    assert abs(base.total_probability - fine.total_probability) < 1e-5


def _block_count(field):
    rows = pointer._block_rows(field.n_spins, field.counts.nodes_p_radial)
    return len(pointer._row_ranges(field.grid.radial.count, rows))


@pytest.mark.parametrize("n_spins,spread", [(2, 0.6), (5, 0.7), (30, math.sqrt(30 / 8))])
def test_block_size_is_bitwise_invisible(n_spins, spread, monkeypatch):
    # One chunk per block, the default budget, the whole grid in one block,
    # and a repeat build of the last.
    model = PointerModel(spread)
    grid = adaptive_outcome_grid(n_spins, model)
    fields, blocks = [], []
    for budget in (1, pointer._BLOCK_CELLS, 2**30):
        monkeypatch.setattr(pointer, "_BLOCK_CELLS", budget)
        fields.append(build_amplitude_field(n_spins, model, grid))
        blocks.append(_block_count(fields[-1]))
    repeat = build_amplitude_field(n_spins, model, grid)
    assert blocks[0] == math.ceil(grid.radial.count / pointer._CHUNK_RADIAL)
    assert blocks[2] == 1
    for other in fields[1:] + [repeat]:
        assert np.array_equal(fields[0].values, other.values)


def _per_chunk_field_block(n, r_nodes, p_nodes, weighted, theta_coefs, out):
    """The field's block kernel as first written: one radial product per
    order and one synthesis product per component, chunk by chunk."""
    bessel = pointer._bessel_table(n, np.multiply.outer(r_nodes, p_nodes))
    for lo, hi in pointer._row_ranges(r_nodes.size, pointer._CHUNK_RADIAL):
        transform = np.empty((n + 1, hi - lo))
        for l in range(n + 1):
            transform[l] = bessel[l, lo:hi] @ weighted[l]
        for k in range(n + 1):
            out[lo:hi, :, k] = transform[k:].T @ theta_coefs[k]


@pytest.mark.parametrize("n_spins,spread", [(2, 0.6), (5, 0.7), (30, math.sqrt(30 / 8))])
def test_stacked_block_products_are_per_chunk_reference_bit_for_bit(n_spins, spread, monkeypatch):
    # Whole 16-row chunks (96 and 144 radii), 37 radii (two chunks and a
    # partial one of 5), one chunk, a partial chunk alone, and one chunk per
    # block.
    model = PointerModel(spread)
    base = adaptive_outcome_grid(n_spins, model)
    grids = [base, base.refined()] + [
        build_outcome_grid(base.r_max, nodes_r=count, nodes_theta=9) for count in (37, 16, 5)]
    for grid, budget in [(grid, pointer._BLOCK_CELLS) for grid in grids] + [(base, 1)]:
        monkeypatch.setattr(pointer, "_BLOCK_CELLS", budget)
        stacked = build_amplitude_field(n_spins, model, grid)
        with monkeypatch.context() as m:
            m.setattr(pointer, "_field_block", _per_chunk_field_block)
            reference = build_amplitude_field(n_spins, model, grid)
        assert np.array_equal(stacked.values, reference.values)


def _held_cells():
    return sum(entry[0] for entry in pointer._ANGULAR.values())


def test_angular_cache_holds_read_only_arrays():
    pointer._ANGULAR.clear()
    log_scale, theta_coefs = pointer._angular(3, gauss_legendre(8, 0.0, math.pi).nodes)
    assert len(theta_coefs) == 4
    for array in (log_scale, *theta_coefs):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_angular_cache_keys_on_the_polar_nodes():
    # A two-cap polar rule has the count of the one-piece one, and the single
    # point's one-node rule is a rule of its own: each gets its own entry.
    pointer._ANGULAR.clear()
    model = PointerModel(0.6)
    plain = adaptive_outcome_grid(2, model)
    split = OutcomeGrid(radial=plain.radial, polar=_two_caps(plain.polar.count, 0.5 * math.pi))
    build_amplitude_field(2, model, plain)
    build_amplitude_field(2, model, split)
    position_amplitudes(0.5, 0.3, 2, model)
    keys = set(pointer._ANGULAR)
    for nodes in (plain.polar.nodes, split.polar.nodes, np.array([0.3])):
        assert (2, nodes.tobytes()) in keys


@pytest.mark.parametrize("n_spins,spread", [(2, 0.6), (30, math.sqrt(30 / 8))])
def test_field_is_bitwise_the_same_cold_and_warm(n_spins, spread):
    model = PointerModel(spread)
    grid = adaptive_outcome_grid(n_spins, model)
    pointer._ANGULAR.clear()
    cold = build_amplitude_field(n_spins, model, grid)
    warm = build_amplitude_field(n_spins, model, grid)
    for other in (1, 3, 5, 60):
        build_amplitude_field(other, model, grid)
    after_others = build_amplitude_field(n_spins, model, grid)
    for field_ in (warm, after_others):
        assert np.array_equal(cold.values, field_.values)
        assert cold.total_probability == field_.total_probability


def test_angular_cache_stays_within_its_cell_bound():
    pointer._ANGULAR.clear()
    model, quad = PointerModel(math.sqrt(100 / 8)), MomentumQuadrature(radial_nodes=32)
    for n in (60, 100, 20, 100, 40, 100, 59):
        grid = build_outcome_grid(10.0, nodes_r=4, nodes_theta=96)
        build_amplitude_field(n, model, grid, quad)
        assert 0 < _held_cells() <= pointer._ANGULAR_CELLS
    # n = 100 on 96 polar nodes holds about 2^19 cells: rebuilt per call.
    # The least recently used entries, n = 60 and then 20, made room.
    held = {n for n, nodes in pointer._ANGULAR if nodes == grid.polar.nodes.tobytes()}
    assert held == {40, 59}


def _bessel_z(l_max):
    orders = np.arange(1, l_max + 1)
    return np.concatenate(
        [
            np.logspace(-10, math.log10(500.0), 600),
            # just below, at and just above each order l = z
            np.ravel(orders[:, None] + np.array([-1e-9, -1e-3, -0.5, 0.0, 1e-9, 1e-3, 0.5])),
            math.pi * np.arange(1, 160),  # zeros of j_0
        ]
    )


@pytest.mark.parametrize("l_max", [1, 4, 30, 100, 400])
def test_bessel_table_matches_scipy(l_max):
    z = _bessel_z(l_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = pointer._bessel_table(l_max, z)
    reference = scipy.special.spherical_jn(np.arange(l_max + 1)[:, None], z[None, :])
    assert table.shape == reference.shape
    assert np.all(np.isfinite(table))
    assert np.max(np.abs(table - reference)) <= 1e-13


def _every_cell_bessel_table(l_max, z):
    """The field's Bessel table as first written: the seeds j_0 and j_1 on
    every cell, and the upward recurrence and Miller ratios on every cell,
    selected per order by l <= floor(z)."""
    z = np.asarray(z, dtype=float)
    table = np.empty((l_max + 1,) + z.shape)
    seeds = pointer._bessel_seeds(z)
    table[:2] = seeds
    last_upward = np.maximum(np.floor(z), 1.0)
    start = l_max + 16 + math.ceil(8.0 * l_max ** (1.0 / 3.0))
    with np.errstate(all="ignore"):
        ratio = np.zeros_like(z)
        for l in range(start, 1, -1):
            ratio = z / ((2 * l + 1) - z * ratio)
            if l <= l_max:
                table[l] = ratio
        prev, cur = seeds
        for l in range(1, l_max):
            prev, cur = cur, (2 * l + 1) / z * cur - prev
            table[l + 1] = np.where(l + 1 <= last_upward, cur, table[l + 1] * table[l])
    return table


def _split_z(l_max, below, count=400, top=None):
    """count momenta-by-radius products, the first `below` of them with
    z < l_max (at most `top`), the rest in [l_max, 3 l_max]."""
    rng = np.random.default_rng(l_max + below)
    high = l_max if top is None else top
    return np.concatenate([rng.uniform(0.0, high, below), rng.uniform(l_max, 3.0 * l_max, count - below)])


@pytest.mark.parametrize("l_max", [1, 2, 3, 4, 30, 100, 400])
def test_bessel_table_is_every_cell_reference_bit_for_bit(l_max):
    # Seeding once per table and the split into Miller and upward cells
    # change no bit: on the scipy test's points plus z = 1 (where the seeds
    # switch from the j_1 series to the closed form), on a field-like outer
    # product of radii and momenta, and on tables whose z < l_max cells are
    # none, a minority (gathered), a majority (recurred in place) or all,
    # with and without top orders above every such cell's floor(z), where
    # the chain product runs alone.
    cases = [
        np.append(_bessel_z(l_max), 1.0),
        np.multiply.outer(np.linspace(0.05, 1.2 * l_max + 3.0, 33), np.linspace(1e-3, 2.5, 71)),
    ] + [_split_z(l_max, below, top=top) for below in (0, 100, 300, 400) for top in (None, 0.4 * l_max)]
    for z in cases:
        assert np.array_equal(pointer._bessel_table(l_max, z), _every_cell_bessel_table(l_max, z))


@pytest.mark.parametrize("below", [6_000, 14_000])
def test_mixed_bessel_table_peaks_below_one_and_a_half_tables(below):
    # A minority of Miller cells is gathered, a majority recurs in place;
    # a working copy of either set of cells used to take the peak to about
    # 2 tables here.
    z = _split_z(40, below, count=20_000)
    tracemalloc.start()
    try:
        table = pointer._bessel_table(40, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table.nbytes


def test_bessel_seeds_match_scipy():
    z = np.concatenate([[0.0, 1.0], np.logspace(-150, 0, 601), np.linspace(0.0, 1.0, 200_001)])
    seeds = pointer._bessel_seeds(z)
    reference = scipy.special.spherical_jn(np.arange(2)[:, None], z)
    assert seeds[0, 0] == 1.0 and seeds[1, 0] == 0.0
    assert np.max(np.abs(seeds - reference)) <= pointer._SEED_TOLERANCE
    # Where the closed form j_1 = (sin z / z - cos z) / z has not cancelled yet.
    upper = z[z > 0.5]
    closed = (np.sin(upper) / upper - np.cos(upper)) / upper
    assert np.max(np.abs(seeds[1, z > 0.5] - closed)) <= pointer._SEED_TOLERANCE


def test_bessel_seed_spot_check_refuses_a_wrong_reference(monkeypatch):
    def off(order, z):
        return scipy.special.spherical_jn(order, z) + 1e-12

    monkeypatch.setattr(pointer, "spherical_jn", off)
    with pytest.raises(NumericError, match="j_1 series differs from scipy"):
        build_amplitude_field(2, PointerModel(0.6), build_outcome_grid(3.0, nodes_r=20, nodes_theta=8))


def test_field_uses_scipy_spherical_jn_by_its_module_name(monkeypatch):
    # The benchmark traces the field's Bessel work by wrapping this name.
    assert pointer.spherical_jn is scipy.special.spherical_jn
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scipy.special.spherical_jn(*args, **kwargs)

    monkeypatch.setattr(pointer, "spherical_jn", counted)
    build_amplitude_field(2, PointerModel(0.6), build_outcome_grid(3.0, nodes_r=20, nodes_theta=8))
    # One table for the 20 radii, and scipy only where the closed forms cancel.
    assert len(calls) == 1
    assert all(np.all(np.asarray(args[1]) <= 1.0) for args in calls)


def _legendre_per_order(l_max, m, x):
    """Rows l = m..l_max of P~_{l m}(x), one order m per call: the field's
    Legendre recurrence as first written."""
    rows = np.empty((l_max - m + 1, x.size))
    if m == 0:
        pmm = np.full(x.size, 1.0 / math.sqrt(4.0 * math.pi))
    else:
        log_norm = 0.5 * (
            math.log(2 * m + 1)
            - math.log(4.0 * math.pi)
            + math.lgamma(2 * m + 1)
            - 2.0 * math.lgamma(m + 1)
            - m * math.log(4.0)
        )
        with np.errstate(divide="ignore"):
            log_sin = 0.5 * m * np.log(np.clip(1.0 - x * x, 0.0, None))
        sign = -1.0 if m % 2 else 1.0
        pmm = sign * np.exp(log_norm + log_sin)
    rows[0] = pmm
    if l_max > m:
        rows[1] = x * math.sqrt(2 * m + 3.0) * pmm
    for l in range(m + 2, l_max + 1):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = -a * math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        rows[l - m] = a * x * rows[l - m - 1] + b * rows[l - m - 2]
    return rows


@pytest.mark.parametrize("l_max", [1, 2, 3, 4, 30, 100, 400])
def test_legendre_table_is_per_order_recurrence_bit_for_bit(l_max):
    # The packed table runs every order of one degree at once and changes no
    # bit: on the field's polar Gauss nodes, on the cosines of a two-cap polar
    # rule, and at x = +-1, where the seed's log is -inf.
    split = _two_caps(64, 1.0).nodes
    for x in (gauss_legendre(l_max + 3, -1.0, 1.0).nodes, np.cos(split), np.array([-1.0, 1.0, 0.0])):
        table = pointer._legendre_table(l_max, x)
        assert table.shape == ((l_max + 1) * (l_max + 2) // 2, x.size)
        for m in range(l_max + 1):
            orders = np.arange(m, l_max + 1)
            assert np.array_equal(table[orders * (orders + 1) // 2 + m], _legendre_per_order(l_max, m, x))


def _alpha_beta_polar(p, c):
    """Single-spin amplitudes on a (radial, polar) momentum mesh.

    alpha and the azimuth-stripped beta for exp(-i p.sigma/2)|up> with the
    momentum direction at cos(polar) = c; the full beta carries e^(i phi).
    """
    pp, cc = np.meshgrid(p, c, indexing="ij")
    half = 0.5 * pp
    alpha = np.cos(half) - 1j * cc * np.sin(half)
    beta = -1j * np.sin(half) * np.sqrt(np.clip(1.0 - cc * cc, 0.0, None))
    return alpha, beta


def _per_order_field(n, model, grid, quad):
    """The synthesis formula of build_amplitude_field summed one (k, l) term
    at a time, with polar Gauss-Legendre moments and scipy's j_l for every
    order."""
    p_rule, c_rule = quad.gauss_rules(model, 0, 0)
    alpha, beta = _alpha_beta_polar(p_rule.nodes, c_rule.nodes)
    spin = np.moveaxis(spincore.dicke_expand(alpha, beta, n).amplitudes, -1, 0)
    measure = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model)
    z = np.multiply.outer(grid.radial.nodes, p_rule.nodes)
    cos_theta = np.cos(grid.polar.nodes)
    out = np.zeros((grid.radial.count, grid.polar.count, n + 1), dtype=complex)
    for k in range(n + 1):
        ptab_c = _legendre_per_order(n, k, c_rule.nodes)
        ptab_t = _legendre_per_order(n, k, cos_theta)
        for l in range(k, n + 1):
            moment = (ptab_c[l - k] * c_rule.weights) @ spin[k].T
            radial = scipy.special.spherical_jn(l, z) @ (moment * measure)
            out[:, :, k] += 1j**l * np.outer(radial, ptab_t[l - k])
    return 2.0**1.5 * math.sqrt(math.pi) * out


@pytest.mark.parametrize("n_spins,spread,r_max", [(5, 0.7, 6.0), (30, math.sqrt(30 / 8), 25.0)])
def test_field_matches_per_order_sum(n_spins, spread, r_max):
    model = PointerModel(spread)
    grid = build_outcome_grid(r_max, nodes_r=20, nodes_theta=12)
    quad = MomentumQuadrature(radial_nodes=90, polar_nodes=n_spins + 3)
    fast = build_amplitude_field(n_spins, model, grid, quad).values
    reference = _per_order_field(n_spins, model, grid, quad)
    assert np.max(np.abs(fast - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("n_spins", [2, 5])
def test_field_reads_no_polar_or_azimuthal_count(n_spins):
    # The polar moments are closed forms and the azimuth is integrated
    # exactly, so only the radial count and the cutoff reach the field.
    model = PointerModel(0.7)
    grid = build_outcome_grid(4.0, nodes_r=16, nodes_theta=8)
    fields = [build_amplitude_field(n_spins, model, grid, quad) for quad in (
        MomentumQuadrature(),
        MomentumQuadrature(polar_nodes=4, azimuthal_nodes=4),
        MomentumQuadrature(polar_nodes=64, azimuthal_nodes=40),
    )]
    for other in fields[1:]:
        assert np.array_equal(other.values, fields[0].values)
        assert other.counts == fields[0].counts
    assert fields[0].counts.nodes_p_polar == n_spins + 1


def _polar_moments(n, p):
    """M_lk(p) by polar Gauss-Legendre quadrature, the reference for the
    closed forms: the k-flips spin factor on a (radial, polar) mesh,
    projected on the packed P~_lk table. Rule of n+1 nodes, exact for the
    degree-2n polynomial integrand."""
    c_rule = gauss_legendre(n + 1, -1.0, 1.0)
    alpha, beta = _alpha_beta_polar(p, c_rule.nodes)
    legendre = pointer._legendre_table(n, c_rule.nodes)
    moments = {}
    spins = np.moveaxis(spincore.dicke_expand(alpha, beta, n).amplitudes, -1, 0)
    for k, spin in enumerate(spins):
        for l in range(k, n + 1):
            moments[l, k] = (legendre[l * (l + 1) // 2 + k] * c_rule.weights) @ spin.T
    return moments


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 30, 60, 61, 100])
def test_closed_form_moments_match_polar_quadrature(n):
    # M_lk = (-1)^k c_lk g_l, and _reduced_moments holds i^l g_l. The momenta
    # pass 2 pi, where sin(p/2) changes sign, and cross the polar
    # quadrature's log-space threshold at n = 60.
    p = np.linspace(0.0, 14.0, 141)[1:]
    log_fact = pointer._log_factorials(2 * n + 1)
    reduced = pointer._reduced_moments(n, p, pointer._angular(n, np.zeros(1))[0])
    assert reduced.shape == (n + 1, p.size) and reduced.dtype == np.float64
    reference = _polar_moments(n, p)
    largest = max(np.max(np.abs(m)) for m in reference.values())
    worst = 0.0
    for k in range(n + 1):
        couplings = pointer._couplings(n, np.arange(k, n + 1), k, log_fact)
        for l in range(k, n + 1):
            closed = (-1) ** k * couplings[l - k] * (-1j) ** l * reduced[l]
            worst = max(worst, np.max(np.abs(closed - reference[l, k])))
    assert worst <= 1e-12 * largest


@pytest.mark.parametrize("n", [3, 8, 200])
def test_couplings_sum_rule_and_order_zero_closed_form(n):
    log_fact = pointer._log_factorials(2 * n + 1)
    table = np.zeros((n + 1, n + 1))  # table[l, k] = c_lk
    for k in range(n + 1):
        table[k:, k] = pointer._couplings(n, np.arange(k, n + 1), k, log_fact)
    # Each c_lk is the exp of a sum of log-factorials up to log((2n+1)!), so
    # its relative error scales with that magnitude: about 4e-13 at n = 200.
    tol = max(1e-14, 4.0 * np.finfo(float).eps * log_fact[-1])
    assert np.max(np.abs(np.sum(table**2, axis=1) - 1.0)) <= tol
    for l in range(n + 1):
        c_l0_sq = math.exp(
            math.lgamma(n + 1) + math.lgamma(n + 2) - math.lgamma(n - l + 1) - math.lgamma(n + l + 2)
        )
        assert table[l, 0] ** 2 == pytest.approx(c_l0_sq, rel=1e-12)
    if n == 3:
        exact = [math.factorial(n) * math.factorial(n + 1)
                 / (math.factorial(n - l) * math.factorial(n + l + 1)) for l in range(n + 1)]
        assert table[:, 0] ** 2 == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("spread", [0.3, math.sqrt(1000 / 8.0)])
def test_reduced_moments_finite_at_n_1000(spread):
    # Up to the momentum cutoff of 8 sigma; at spread 0.3 it passes 4 pi.
    n = 1000
    p = np.linspace(0.0, MomentumQuadrature().p_max(PointerModel(spread)), 400)
    log_fact = pointer._log_factorials(2 * n + 1)
    reduced = pointer._reduced_moments(n, p, pointer._angular(n, np.zeros(1))[0])
    assert np.all(np.isfinite(reduced))
    # |g_l| is the reduced element of a unitary: at most 1/sqrt(pi) here.
    assert np.max(np.abs(reduced)) <= 1.0
    for k in (0, 1, n // 2, n):
        assert np.all(np.isfinite(pointer._couplings(n, np.arange(k, n + 1), k, log_fact)))


def _reduced_moments_by_degree(n, p):
    """Rows l = 0..n of i^l g_l(p) by the Gegenbauer recurrence in the degree
    m = 0..n-l for every order l, O(n^2) per momentum: the reference for the
    recurrence in l. C^(l+1)_m / C^(l+1)_m(1) comes from
    C_(m+1) = (2(m+l+1) x C_m - m C_(m-1)) / (m+2l+2), and C(1), 1/c_l0 and
    l log|sin(p/2)| share one exponent, which leaves the float range near
    n = 1500."""
    half_sin, x = np.sin(0.5 * p), np.cos(0.5 * p)
    lam = np.arange(1.0, n + 2.0)[:, None]  # lambda = l + 1
    gegen = np.empty((n + 1, p.size))
    gegen[n] = 1.0
    prev, cur = np.zeros((n + 1, p.size)), np.ones((n + 1, p.size))
    for m in range(n):
        rows = n - m  # orders l < n - m still need C_(m+1)
        prev[:rows] = (2.0 * (m + lam[:rows]) * x * cur[:rows] - m * prev[:rows]) / (m + 2.0 * lam[:rows])
        prev, cur = cur, prev
        gegen[rows - 1] = cur[rows - 1]
    f, l = pointer._log_factorials(2 * n + 1), np.arange(n + 1)
    log_c0 = 0.5 * (f[n] + f[n + 1] - f[n - l] - f[n + l + 1])
    log_scale = (0.5 * np.log((2 * l + 1) / (4.0 * math.pi)) + (l + 1) * math.log(2.0)
                 + f[n] + f[l] - f[n - l] - f[2 * l + 1] - log_c0)
    expo = np.repeat(log_scale[:, None], p.size, axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        expo[1:] += np.multiply.outer(l[1:], np.log(np.abs(half_sin)))
        gegen *= np.exp(expo)
    gegen[1::2, half_sin < 0] *= -1.0
    return gegen


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 30, 60, 100, 200])
def test_reduced_moments_match_the_degree_recurrence(n):
    # Momenta from 2e-5, where (n+1) sin(p/2) < 1 and only the downward
    # ratios serve l >= 1, through 2 pi, where sin(p/2) changes sign and
    # sin((n+1) p/2) / sin(p/2) needs the exact product, to past 4 pi. The
    # gap is the reference's own error: against 60-digit mpmath at n = 200
    # the degree recurrence is off by up to 9e-13 of max|h| near 4 pi, the
    # recurrence in l by 5e-16.
    p = np.concatenate([
        [0.0, 2e-5, 1e-3, 0.05],
        np.linspace(0.0, 14.0, 141)[1:],
        2.0 * math.pi + np.array([-1e-6, -1e-9, 1e-9, 1e-6]),
        4.0 * math.pi + np.array([-1e-9, 1e-9, 0.1]),
        [20.0, 40.0],
    ])
    rows = pointer._reduced_moments(n, p, pointer._recurrence_steps(n))
    reference = _reduced_moments_by_degree(n, p)
    assert rows.shape == reference.shape and rows.dtype == np.float64
    assert np.max(np.abs(rows - reference)) <= 1e-12 * np.max(np.abs(reference))
    # p = 0 takes the closed limits: h_0 = 1/sqrt(pi), every other row 0.
    assert rows[0, 0] == 1.0 / math.sqrt(math.pi) and not np.any(rows[1:, 0])


@pytest.mark.parametrize("n", [1600, 5000])
def test_reduced_moments_stay_finite_and_bounded_at_large_n(n):
    # The degree recurrence's folded exponent overflows near n = 1500; the
    # recurrence in l carries bounded ratios. Momenta up to the 8 sigma
    # cutoff at spread 0.3, past 4 pi.
    p = np.linspace(0.0, MomentumQuadrature().p_max(PointerModel(0.3)), 400)
    rows = pointer._reduced_moments(n, p, pointer._recurrence_steps(n))
    assert np.all(np.isfinite(rows))
    assert np.max(np.abs(rows)) <= 1.0


def test_field_builds_at_n_1600():
    grid = build_outcome_grid(1.0, nodes_r=1, nodes_theta=1)
    fld = build_amplitude_field(1600, PointerModel(0.3), grid, MomentumQuadrature(radial_nodes=32))
    assert np.all(np.isfinite(fld.values))


def test_field_refuses_non_finite_reduced_moments(monkeypatch):
    def poisoned(n, p, steps):
        rows = np.zeros((n + 1, p.size))
        rows[n, -1] = np.inf
        return rows

    monkeypatch.setattr(pointer, "_reduced_moments", poisoned)
    grid = build_outcome_grid(1.0, nodes_r=4, nodes_theta=4)
    with pytest.raises(NumericError, match="reduced moments are not finite"):
        build_amplitude_field(2, PointerModel(0.5), grid)


def _angular_per_k(n, polar_nodes):
    """theta_coefs by one product per k, the reference for _angular's single
    pass over the (l, k) triangle."""
    f = pointer._log_factorials(2 * n + 1)
    legendre_t = pointer._legendre_table(n, np.cos(polar_nodes))
    coefs = []
    for k in range(n + 1):
        orders = np.arange(k, n + 1)
        sign = -pointer._AMPLITUDE_PREFACTOR if k % 2 else pointer._AMPLITUDE_PREFACTOR
        coef = sign * pointer._couplings(n, orders, k, f)
        coefs.append(coef[:, None] * legendre_t[orders * (orders + 1) // 2 + k])
    return coefs


@pytest.mark.parametrize("n", [1, 2, 5, 30, 100])
def test_angular_coefficients_are_the_per_k_products_bit_for_bit(n):
    pointer._ANGULAR.clear()
    split = _two_caps(32, 0.5 * math.pi).nodes
    for nodes in (gauss_legendre(96, 0.0, math.pi).nodes, split, np.array([0.0])):
        steps, theta_coefs = pointer._angular(n, nodes)
        assert np.array_equal(steps, pointer._recurrence_steps(n))
        reference = _angular_per_k(n, nodes)
        assert len(theta_coefs) == n + 1
        for k, (coef, ref) in enumerate(zip(theta_coefs, reference)):
            assert coef.shape == (n + 1 - k, nodes.size)
            assert np.array_equal(coef, ref)


def test_adaptive_grid_refuses_before_building_any_rule(monkeypatch):
    # At spread 1e-5 the scan field needs 600 036 momentum nodes. The scan's
    # outcome rule would have 20 000 nodes, so it must not be built first.
    calls = []

    def recording(count, a=-1.0, b=1.0):
        calls.append(count)
        return gauss_legendre(count, a, b)

    monkeypatch.setattr(pointer, "gauss_legendre", recording)
    with pytest.raises(CapabilityError, match="radial momentum nodes"):
        adaptive_outcome_grid(1, PointerModel(1e-5))
    assert calls == []


def test_field_values_are_real():
    fld = build_amplitude_field(3, PointerModel(0.4), build_outcome_grid(4.0, nodes_r=20, nodes_theta=8))
    assert fld.values.dtype == np.float64
