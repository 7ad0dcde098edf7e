import math

import numpy as np
import pytest

from khbm.distributions import (
    SymmetricAtoms,
    envelope_upper,
    f_norms,
    l2_lower_constant,
    parse_atoms,
    rademacher,
    superlevel_reduction,
    theorem1_lower_constant,
    theorem1_upper_constant,
)


def test_atom_validation():
    with pytest.raises(ValueError):
        SymmetricAtoms(((1.0, 0.3), (2.0, 0.1)))  # increasing levels
    with pytest.raises(ValueError):
        SymmetricAtoms(((1.0, 0.3), (1.0, 0.1)))  # tie
    with pytest.raises(ValueError):
        SymmetricAtoms(((0.0, 0.3),))
    with pytest.raises(ValueError):
        SymmetricAtoms(((1.0, 0.0),))
    with pytest.raises(ValueError):
        SymmetricAtoms(((1.0, 0.6),))  # 2t > 1


def test_zero_mass_and_views():
    f = SymmetricAtoms(((2.0, 0.25), (1.0, 0.125)))
    assert f.zero_mass == 0.25
    assert f.levels.tolist() == [2.0, 1.0]
    assert f.masses.tolist() == [0.25, 0.125]
    assert rademacher().zero_mass == 0.0


def test_parse_atoms():
    assert parse_atoms("atoms:1,0.5") == rademacher()
    assert parse_atoms("atoms:2,0.25;1,0.125") == SymmetricAtoms(((2.0, 0.25), (1.0, 0.125)))
    assert parse_atoms("atoms:") == SymmetricAtoms(())
    for bad in ["1,0.5", "atoms:1", "atoms:1,2,3", "spam:1,0.5"]:
        with pytest.raises(ValueError):
            parse_atoms(bad)


def test_f_norms():
    f = SymmetricAtoms(((2.0, 0.25), (1.0, 0.125)))
    l1, sup, supp = f_norms(f)
    assert l1 == 2 * (2.0 * 0.25 + 1.0 * 0.125)
    assert sup == 2.0
    assert supp == 0.75
    assert f_norms(SymmetricAtoms(())) == (0.0, 0.0, 0.0)


def test_superlevel_reduction_splits_boundary_atom():
    f = SymmetricAtoms(((2.0, 0.25), (1.0, 0.25)))
    # top 3/8 of mass: all of the level-2 atom plus 1/8 of the level-1 atom
    red = superlevel_reduction(f, 0.375)
    (level, mass), = red.atoms
    assert mass == 0.375
    assert abs(level - (2.0 * 0.25 + 1.0 * 0.125) / 0.375) < 1e-15
    # full mass keeps the mean level
    full = superlevel_reduction(f, 0.5)
    assert abs(full.atoms[0][0] - 1.5) < 1e-15


def test_superlevel_reduction_validation():
    f = rademacher()
    with pytest.raises(ValueError):
        superlevel_reduction(f, 0.0)
    with pytest.raises(ValueError):
        superlevel_reduction(f, 0.6)


def test_envelope():
    f = SymmetricAtoms(((2.0, 0.25), (1.0, 0.25)))
    assert envelope_upper(f) == SymmetricAtoms(((2.0, 0.5),))
    with pytest.raises(ValueError):
        envelope_upper(SymmetricAtoms(()))


def test_lower_constant_rademacher_p1():
    # single atom at level 1, mass 1/2: the objective 2*G(s) peaks at s = 1/2
    c, s = theorem1_lower_constant(rademacher(), 1.0, 1.0)
    assert abs(c - 2.0**-0.5) < 1e-15
    assert s == 0.5


def test_lower_constant_two_level_atom():
    # f = {(2, 1/4)}, p = q = 1: G(1/4) = 1/2 and the uniform min branch
    # is the constant-exponent one, so c = a_1 * 1 = 2^(-1/2)
    c, s = theorem1_lower_constant(SymmetricAtoms(((2.0, 0.25),)), 1.0, 1.0)
    assert abs(c - 2.0**-0.5) < 1e-15
    assert s == 0.25


def test_lower_constant_p2_single_atom():
    # beta = -1/2: objective a*sqrt(2s) increases up to the atom mass
    a, t = 1.5, 0.18
    c, s = theorem1_lower_constant(SymmetricAtoms(((a, t),)), 2.0, 2.0)
    assert abs(c - a * math.sqrt(2 * t)) < 1e-15
    assert s == t


def test_lower_constant_beats_grid_scan():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        levels = np.sort(rng.uniform(0.2, 3.0, size=m))[::-1]
        masses = rng.uniform(0.05, 0.4, size=m)
        masses *= rng.uniform(0.2, 0.49) / masses.sum()
        f = SymmetricAtoms(tuple((float(a), float(t)) for a, t in zip(levels, masses)))
        q = float(rng.uniform(1.0, 2.5))
        p = q + float(rng.uniform(0.0, 2.0))
        c, _ = theorem1_lower_constant(f, p, q)
        # dense-grid oracle for the same supremum
        from khbm.constants import lower_constant

        beta = max(1.0 / p - 1.0, -0.5)
        total = float(f.masses.sum())
        best = 0.0
        for s in np.linspace(total / 20000.0, total, 20000):
            g = 0.0
            rem = s
            for a, t in f.atoms:
                take = min(t, rem)
                g += a * take
                rem -= take
                if rem <= 0:
                    break
            best = max(best, (2.0 * s) ** beta * 2.0 * g)
        want = lower_constant(q) * best
        assert c >= want - 1e-9
        assert c <= want * (1.0 + 1e-3)  # grid is only a lower envelope


def test_lower_constant_validation():
    with pytest.raises(ValueError):
        theorem1_lower_constant(rademacher(), 1.0, 2.0)  # q > p
    with pytest.raises(ValueError):
        theorem1_lower_constant(SymmetricAtoms(()), 2.0, 1.0)


def test_upper_constant():
    f = SymmetricAtoms(((2.0, 0.25),))
    got = theorem1_upper_constant(f, 1.0, 2.0)
    assert abs(got - max(0.5, 0.5**0.5) * 2.0) < 1e-15
    assert theorem1_upper_constant(SymmetricAtoms(()), 1.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        theorem1_upper_constant(f, 3.0, 2.0)  # needs p <= q


def test_l2_variants_disagree_on_small_support():
    # the max-form constant overshoots on a small-support law; the min
    # form stays below the actual first moment (n = 1, v = (1))
    f = SymmetricAtoms(((1.0, 0.01),))
    i1 = 2.0 * 0.01  # E|f| for a single unit vector
    c_min = l2_lower_constant(f, 1.0)
    c_max = l2_lower_constant(f, 1.0, paper_variant=True)
    assert c_min <= i1 + 1e-15
    assert c_max > i1  # the probe documents the overshoot
    assert c_min < c_max
