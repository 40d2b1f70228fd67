import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltacolor import (
    ValidationError,
    advance_params,
    brute_force_decomposition,
    build_graph,
    build_schedule,
    compute_friend_edges,
    decompose,
    density_epsilon,
    regularity_ok,
)


def test_epsilon_formula_at_e9():
    # ln(e^9) = 9, sqrt = 3, so eps = 100^-3 / 100 = 1e-8 at K = 1
    sched = build_schedule(math.e**9, n=1000, k=1.0)
    assert sched.epsilon == pytest.approx(1e-8, rel=1e-9)
    assert sched.num_dense_rounds == 3
    assert sched.rounds[0].d == pytest.approx(3e-8 * math.e**9, rel=1e-12)
    assert sched.rounds[0].z == pytest.approx(math.e**9 / 2, rel=1e-12)
    assert sched.rounds[0].delta == pytest.approx(6e-8, rel=1e-12)
    assert sched.rounds[0].gamma is None


def test_max_degree_one_boundary():
    sched = build_schedule(1, n=10, k=2.0)
    assert sched.epsilon == pytest.approx(1.0 / 200.0)
    assert sched.num_dense_rounds == 0
    assert len(sched.rounds) == 1
    assert sched.regularity_horizon == 0


def test_advance_params_hand_values():
    assert advance_params(1.0, 4.0) == pytest.approx((6.0, 2.0))
    d2, z2 = advance_params(0.01, 100.0)
    assert d2 == pytest.approx(1.2e-3)
    assert z2 == pytest.approx(1.0)


def test_advance_params_ratio_always_twelve_fold():
    d, z = 0.37, 11.0
    for _ in range(5):
        d_next, z_next = advance_params(d, z)
        assert d_next / z_next == pytest.approx(12.0 * d / z, rel=1e-12)
        # z' = sqrt(d * z)
        assert z_next == pytest.approx(math.sqrt(d * z), rel=1e-12)
        d, z = d_next, z_next
        if d >= z:
            break


def test_advance_params_domain_errors():
    with pytest.raises(ValidationError):
        advance_params(4.0, 4.0)
    with pytest.raises(ValidationError):
        advance_params(5.0, 4.0)
    with pytest.raises(ValidationError):
        advance_params(0.0, 4.0)
    with pytest.raises(ValidationError):
        advance_params(1.0, -2.0)


def test_regularity_examples():
    # delta = 1 violates the ratio condition for K > 1
    assert not regularity_ok(10.0, 10.0, n=100, k=2.0)
    # d*delta = 1e4 >= 10*ln(e^10) = 100 and delta = 0.01 <= 0.1
    assert regularity_ok(1e6, 1e8, n=round(math.e**10), k=10.0)
    # d*delta = 0.01 < 10*100
    assert not regularity_ok(10.0, 1e4, n=round(math.e**100), k=10.0)


@pytest.mark.parametrize(
    "d, z, n, message",
    [
        (0.0, 2.0, 10, "bounds must be positive"),
        (1.0, -2.0, 10, "bounds must be positive"),
        (1.0, 2.0, 0, "vertex count must be at least 1"),
    ],
)
def test_regularity_gate_rejects_bad_bounds_and_vertex_counts(d, z, n, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        regularity_ok(d, z, n, k=2.0)


def test_closed_form_delta_matches_recurrence():
    for dmax in (math.e**4, math.e**9, math.e**16, math.e**25):
        sched = build_schedule(dmax, n=10**6, k=16.0)
        eps = sched.epsilon
        d, z = sched.rounds[0].d, sched.rounds[0].z
        i = 0
        while d / z < 1.0 and i <= 40:
            assert d / z == pytest.approx(6 * eps * 12**i, rel=1e-9)
            d, z = advance_params(d, z)
            i += 1


def test_closed_form_over_forty_steps_with_tiny_ratio():
    # starting ratio small enough that 40 steps stay inside the domain,
    # scale large enough that the shrinking d never underflows a double
    eps = 1e-44
    dmax = 1e200
    d, z = 3 * eps * dmax, dmax / 2
    for i in range(41):
        assert d / z == pytest.approx(6 * eps * 12**i, rel=1e-9)
        d, z = advance_params(d, z)


def test_gamma_in_unit_interval_when_ratio_small():
    for dmax in (math.e**4, math.e**9, math.e**16, math.e**25):
        sched = build_schedule(dmax, n=10**6, k=16.0)
        for prev, row in zip(sched.rounds, sched.rounds[1:]):
            assert row.gamma == pytest.approx(1 - 2 * math.sqrt(prev.delta))
            if prev.delta <= 0.25:
                assert 0.0 <= row.gamma <= 1.0


def test_growth_bound_on_d():
    # d_i <= 12^(i^2/2) * 10^(-i*sqrt(ln dmax)) * dmax for 5 <= i <= rounds
    for dmax in (math.e**25, math.e**36):
        sched = build_schedule(dmax, n=10**6, k=16.0)
        root = math.sqrt(math.log(dmax))
        for i in range(5, sched.num_dense_rounds + 1):
            if i >= len(sched.rounds):
                break
            bound = 12 ** (i**2 / 2) * 10 ** (-i * root) * dmax
            assert sched.rounds[i].d <= bound * (1 + 1e-9)


def test_delta_stored_redundantly_consistent():
    sched = build_schedule(5000, n=5000, k=16.0)
    for row in sched.rounds:
        assert row.delta == pytest.approx(row.d / row.z, rel=1e-12)


def test_main_path_gate():
    # the density formula never activates the gate at desk scale
    sched = build_schedule(3000, n=3000, k=16.0)
    assert not sched.main_path
    # but an explicit epsilon can, given a forgiving K and tiny n
    sched2 = build_schedule(10**6, n=2, k=0.01, epsilon=0.19)
    assert sched2.main_path


def test_epsilon_override_validation():
    with pytest.raises(ValidationError):
        build_schedule(100, n=100, k=1.0, epsilon=0.25)
    sched = build_schedule(100, n=100, k=1.0, epsilon=0.1)
    assert sched.epsilon == 0.1
    assert sched.epsilon_overridden


def test_input_validation():
    with pytest.raises(ValidationError):
        build_schedule(0, n=10, k=1.0)
    with pytest.raises(ValidationError):
        build_schedule(10, n=0, k=1.0)
    with pytest.raises(ValidationError):
        build_schedule(10, n=10, k=0.0)
    for k in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            build_schedule(10, n=10, k=k, epsilon=0.1)
        with pytest.raises(ValidationError, match="finite"):
            density_epsilon(10, k)
        with pytest.raises(ValidationError, match="finite"):
            regularity_ok(1.0, 2.0, 10, k)
    # the formula epsilon 100^(-sqrt(ln 10)) / (100 K) reaches 1/5 below K ~ 4.6e-5
    with pytest.raises(ValidationError, match="--epsilon"):
        build_schedule(10, n=10, k=1e-5)
    assert build_schedule(10, n=10, k=1e-5, epsilon=0.1).epsilon == 0.1
    with pytest.raises(ValidationError):
        density_epsilon(0.5, 1.0)


def test_regularity_horizon_stops_at_first_failure():
    # chain-style override: regular at round 0, ratio blows past 1/K at round 1
    sched = build_schedule(200, n=1000, k=0.5, epsilon=0.035)
    assert sched.regularity_horizon == 1
    assert sched.rounds[1].gamma == pytest.approx(1 - 2 * math.sqrt(0.21), rel=1e-12)


def test_table_truncates_when_ratio_reaches_one():
    sched = build_schedule(10**9, n=10**9, k=0.5, epsilon=0.19)
    assert sched.rounds[-1].delta >= 1.0 or len(sched.rounds) == sched.num_dense_rounds + 1
    # no row may carry a ratio >= 1 except the last one
    for row in sched.rounds[:-1]:
        assert row.delta < 1.0


@settings(max_examples=200, deadline=None)
@given(
    delta=st.floats(1.0, 1e12),
    n=st.integers(1, 10**9),
    k=st.floats(1e-3, 100.0),
    epsilon=st.floats(1e-6, 0.2, exclude_max=True),
)
@example(delta=10.0, n=1, k=0.01, epsilon=0.01)  # every row regular: the clamp applies
@example(delta=1.0, n=1, k=1.0, epsilon=0.1)  # one row, no dense step
def test_regularity_horizon_fits_the_table(delta, n, k, epsilon):
    sched = build_schedule(delta, n, k, epsilon=epsilon)
    assert 0 <= sched.regularity_horizon <= len(sched.rounds) - 1 <= sched.num_dense_rounds


@pytest.mark.parametrize("epsilon", [0.0, 0.2, -0.1, float("nan")])
def test_every_epsilon_entry_point_shares_one_range_check(epsilon):
    g = build_graph([(0, 1), (1, 2)])
    message = rf"epsilon must be in \(0, 1/5\), got {epsilon}"
    for call in (decompose, brute_force_decomposition, compute_friend_edges):
        with pytest.raises(ValidationError, match=rf"^{message}$"):
            call(g, epsilon)
    with pytest.raises(ValidationError, match=rf"^epsilon override must be in \(0, 1/5\), got {epsilon}$"):
        build_schedule(10, n=10, k=1.0, epsilon=epsilon)
