import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khbm import banach_mazur
from khbm.banach_mazur import (
    LowerBound,
    TransformBound,
    _consistent,
    corollary1_lower,
    default_transforms,
    hadamard_matrix,
    known_distance,
    prop4_lower,
    sandwich_report,
    theorem2_cotype_lower,
    theorem2_general_lower,
    upper_bound_via_transform,
)
from khbm.constants import lower_constant
from khbm.norms import LpNorm, PolytopeGauge, estimate_comparison


def test_corollary1_crosspolytope_values():
    for n in (2, 4, 100):
        got = corollary1_lower(1.0, math.inf, n)
        assert abs(got - math.sqrt(n / 2.0)) <= 1e-12 * math.sqrt(n / 2.0)


def test_corollary1_validation():
    with pytest.raises(ValueError):
        corollary1_lower(2.0, 3.0, 4)  # p must sit strictly below 2
    with pytest.raises(ValueError):
        corollary1_lower(1.0, 2.0, 4)  # q strictly above 2
    with pytest.raises(ValueError):
        corollary1_lower(1.0, 3.0, 0)


def test_general_lower_crosspolytope():
    for n in (2, 4, 9):
        lb = theorem2_general_lower(LpNorm(1.0, n), n)
        assert lb.rigorous
        assert abs(lb.raw - math.sqrt(n / 2.0)) <= 1e-9 * lb.raw
        if n > 2:
            # strictly decreasing objective: the sup sits at the endpoint
            # (at n = 2 it is flat near p = 1 and the witness floats)
            assert abs(lb.witness_p - 1.0) < 1e-6


def test_cotype_lower_euclidean_is_sqrt_n():
    for n in (2, 3, 8, 16):
        lb = theorem2_cotype_lower(LpNorm(2.0, n), 2.0, n)
        assert lb.raw == math.sqrt(n)
        assert lb.witness_p == 2.0
        assert "cotype (2" in lb.note


def test_dim_mismatch():
    with pytest.raises(ValueError):
        theorem2_general_lower(LpNorm(1.0, 3), 4)
    with pytest.raises(ValueError):
        theorem2_cotype_lower(LpNorm(2.0, 3), 2.0, 4)
    with pytest.raises(ValueError):
        theorem2_cotype_lower(LpNorm(2.0, 3), 0.5, 3)


def test_prop4_cases():
    r = prop4_lower(math.inf, LpNorm(1.0, 4), 4)
    assert r.case in ("general", "cotype")
    assert r.raw > 1.0  # cube vs crosspolytope grows like sqrt(n/2)
    r2 = prop4_lower(1.0, LpNorm(math.inf, 4), 4)
    assert r2.case.startswith("dual")
    assert r2.value >= 1.0


def test_prop4_polytope_uses_polar():
    # p < 2 reduces to the dual norm; the polar of the diamond is the square,
    # whose sampled comparison extremes sit on the axes and the all-ones vector
    for n in (2, 3):
        eye = np.eye(n)
        got = prop4_lower(1.5, PolytopeGauge(np.vstack([eye, -eye])), n)
        want = prop4_lower(1.5, LpNorm(1.0, n), n)
        assert got.case == want.case == "dual-general"
        assert not got.rigorous
        assert abs(got.raw - want.raw) <= 1e-12 * want.raw


def test_polytope_bounds_evaluate_the_gauge_once(monkeypatch):
    # the sample and its gauge values are shared by every exponent the
    # optimizer tries; the bound is the one estimate_comparison gives
    angles = np.arange(6) * math.pi / 3.0 + 0.3
    hexagon = PolytopeGauge(np.stack([np.cos(angles), 1.4 * np.sin(angles)], axis=1))
    gauge_calls = []
    real = banach_mazur.norm_eval_many

    def counting(spec, pts):
        gauge_calls.append(isinstance(spec, PolytopeGauge))
        return real(spec, pts)

    monkeypatch.setattr(banach_mazur, "norm_eval_many", counting)
    general = theorem2_general_lower(hexagon, 2, trials=16, seed=5)
    cotype = theorem2_cotype_lower(hexagon, 1.5, 2, trials=16, seed=5)
    assert sum(gauge_calls) == 2

    def lower(a, b):
        return estimate_comparison(a, b, 16, 5).lower

    p = general.witness_p
    want = lower(hexagon, LpNorm(p, 2)) * lower(LpNorm(1.0, 2), hexagon) * lower_constant(p) * 2.0 ** (1.0 / p - 0.5)
    assert general.raw == want
    p = cotype.witness_p
    want = lower_constant(1.5) * lower(hexagon, LpNorm(p, 2)) * lower(LpNorm(p, 2), hexagon) * math.sqrt(2)
    assert cotype.raw == want


def test_known_distance_table():
    assert known_distance(1.0, 2.0, 4) == 2.0  # n^(1 - 1/2)
    assert known_distance(math.inf, 2.0, 9) == 3.0
    assert known_distance(2.0, math.inf, 16) == 4.0  # swap closure
    assert known_distance(4.0, math.inf, 7) == 7.0**0.25  # via duality from (1, 4/3)
    assert abs(known_distance(1.0, 1.7, 3) - 3.0 ** (1.0 - 1.0 / 1.7)) < 1e-15
    assert known_distance(1.0, math.inf, 2) == 1.0  # planar square == diamond
    assert known_distance(3.0, 3.0, 5) == 1.0
    assert known_distance(1.5, 3.0, 5) is None
    assert known_distance(3.0, 5.0, 4) is None
    assert known_distance(2.5, 2.0, 1) == 1.0


def _conj(r):
    if r == 1.0:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


@given(
    st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 4.0, math.inf]),
    st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 4.0, math.inf]),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=300, deadline=None)
def test_known_distance_duality_invariant(p, q, n):
    a = known_distance(p, q, n)
    b = known_distance(_conj(p), _conj(q), n)
    c = known_distance(q, p, n)
    if a is not None and b is not None:
        assert abs(a - b) < 1e-12 * max(a, 1.0)
    if a is not None and c is not None:
        assert a == c


def test_hadamard_properties():
    for n in (1, 2, 4, 8):
        h = hadamard_matrix(n)
        assert np.allclose(h @ h.T, np.eye(n), atol=1e-14)
        assert np.all(np.abs(np.abs(h) * math.sqrt(n) - 1.0) < 1e-14)
    with pytest.raises(ValueError):
        hadamard_matrix(3)
    with pytest.raises(ValueError):
        hadamard_matrix(0)


def test_upper_bound_identity_cube_crosspolytope():
    tb = upper_bound_via_transform(LpNorm(1.0, 3), LpNorm(math.inf, 3), np.eye(3), name="identity")
    assert tb.factor_out == 1.0
    assert tb.factor_in == 3.0
    assert tb.value == 3.0
    assert tb.rigorous


def test_upper_bound_rotation_is_exact_in_plane():
    tb = upper_bound_via_transform(LpNorm(1.0, 2), LpNorm(math.inf, 2), hadamard_matrix(2), name="rot")
    assert tb.value == 1.0
    assert tb.rigorous


def test_upper_bound_rejects_singular():
    with pytest.raises(ValueError):
        upper_bound_via_transform(LpNorm(1.0, 2), LpNorm(math.inf, 2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        upper_bound_via_transform(LpNorm(1.0, 2), LpNorm(math.inf, 2), np.eye(3))


def test_upper_bound_sampled_path_not_rigorous():
    tb = upper_bound_via_transform(LpNorm(1.0, 3), LpNorm(3.0, 3), np.eye(3), name="identity")
    assert not tb.rigorous
    assert tb.value > 0.0


def test_cube_duality_row_path_is_rigorous():
    tb = upper_bound_via_transform(LpNorm(math.inf, 3), LpNorm(3.0, 3), np.eye(3), name="identity")
    assert tb.rigorous
    # identity: sup_cube ||x||_3 = 3^(1/3), sup_ball ||y||_inf = 1
    assert abs(tb.factor_out - 3.0 ** (1 / 3)) < 1e-14
    assert tb.factor_in == 1.0


def test_default_transforms():
    names = [name for name, _ in default_transforms(3)]
    assert names == ["identity"]
    names = [name for name, _ in default_transforms(4)]
    assert names == ["identity", "hadamard"]


def test_sandwich_planar_pair_pinched_at_one():
    rep = sandwich_report(1.0, math.inf, 2)
    assert rep.known_exact == 1.0
    assert rep.upper_bound is not None and rep.upper_bound.value == 1.0
    assert rep.consistent
    for lb in rep.lower_bounds:
        assert abs(lb.value - 1.0) <= 1e-12


def test_sandwich_identical_exponents():
    rep = sandwich_report(2.0, 2.0, 5)
    assert rep.known_exact == 1.0
    assert rep.consistent
    # no enumerable extreme points on either side: upper comes from notes
    assert rep.upper_bound is None
    assert any("extreme points" in note for note in rep.notes)


def test_sandwich_cube_euclidean_tight():
    rep = sandwich_report(math.inf, 2.0, 8)
    assert abs(rep.known_exact - math.sqrt(8.0)) < 1e-12
    best = max(lb.value for lb in rep.lower_bounds if lb.rigorous)
    assert abs(best - math.sqrt(8.0)) <= 1e-9 * best
    assert rep.upper_bound is not None and rep.upper_bound.rigorous
    assert rep.consistent


def test_sandwich_nonrigorous_upper_excluded_from_consistency():
    rep = sandwich_report(1.0, 3.0, 3)
    assert rep.known_exact is None
    assert rep.upper_bound is not None
    assert not rep.upper_bound.rigorous
    assert rep.consistent  # nothing rigorous to contradict


def test_consistency_rule_checks_every_pair():
    def lower(value, rigorous=True):
        return LowerBound("m", value, value, None, rigorous)

    def upper(value, rigorous=True):
        return TransformBound(value, value, 1.0, rigorous, "t")

    assert _consistent([], None, None)
    assert not _consistent([lower(1.5)], 1.2, None)
    assert not _consistent([lower(1.5)], None, upper(1.2))
    assert not _consistent([lower(1.0)], 1.5, upper(1.2))
    # non-rigorous members never contradict
    assert _consistent([lower(1.5, rigorous=False)], 1.2, upper(0.5, rigorous=False))
    # each neighbour pair is within the 1e-9 slack, the outer pair is not
    assert not _consistent([lower(1.0 + 1.8e-9)], 1.0 + 0.9e-9, upper(1.0))


def test_sandwich_float_outputs_are_json_safe():
    import dataclasses
    import json

    rep = sandwich_report(1.0, math.inf, 4)
    json.dumps(dataclasses.asdict(rep))  # would raise on numpy scalars
