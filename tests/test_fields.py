import math

import numpy as np
import pytest

from ringtrap import AtomSpecies, QuadrupoleConfig, RfConfig

from conftest import field_magnitude, quadrupole_field


@pytest.fixture
def quad():
    return QuadrupoleConfig(gradient=1.0)


def test_field_zero_at_center(quad):
    np.testing.assert_array_equal(quadrupole_field([0.0, 0.0, 0.0], quad), np.zeros(3))


def test_field_direct_substitution(quad):
    b = quadrupole_field([1e-3, 2e-3, 3e-3], quad)
    np.testing.assert_allclose(b, [1e-3, 2e-3, -6e-3], rtol=0, atol=0)


def test_divergence_free(quad):
    # central differences of each component along its own axis sum to zero
    h = 1e-6
    rng = np.random.default_rng(7)
    for r in rng.uniform(-1e-3, 1e-3, size=(20, 3)):
        div = 0.0
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            div += (quadrupole_field(r + e, quad)[i] - quadrupole_field(r - e, quad)[i]) / (2 * h)
        assert abs(div) < 1e-12 * quad.gradient


def test_magnitude_examples(quad):
    assert field_magnitude([1e-4, 0, 0], quad) == pytest.approx(1e-4, rel=1e-14)
    assert field_magnitude([0, 0, 1e-4], quad) == pytest.approx(2e-4, rel=1e-14)
    assert field_magnitude([3e-4, 4e-4, 0], quad) == pytest.approx(5e-4, rel=1e-14)


def test_magnitude_zero_only_at_origin(quad):
    assert field_magnitude([0.0, 0.0, 0.0], quad) == 0.0
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1e-3, 1e-3, size=(200, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-9]
    assert np.all(field_magnitude(pts, quad) > 0)


def test_gradient_scaling():
    r = np.array([2e-4, -1e-4, 5e-5])
    b1 = quadrupole_field(r, QuadrupoleConfig(gradient=1.0))
    b3 = quadrupole_field(r, QuadrupoleConfig(gradient=3.0))
    np.testing.assert_array_equal(b3, 3.0 * b1)


def test_axial_anisotropy(quad):
    for z in (1e-6, 1e-4, 3e-3):
        assert field_magnitude([0, 0, z], quad) == 2 * field_magnitude([z, 0, 0], quad)


def test_quadrupole_validation():
    with pytest.raises(ValueError):
        QuadrupoleConfig(gradient=0.0)
    with pytest.raises(ValueError):
        QuadrupoleConfig(gradient=-1.0)


def test_rf_validation():
    with pytest.raises(ValueError):
        RfConfig(b_x=-1e-4, b_y=0, b_z=0, omega=1e6)
    with pytest.raises(ValueError):
        RfConfig(b_x=1e-4, b_y=0, b_z=0, omega=0.0)


def test_rf_phase_reduction():
    rf = RfConfig(b_x=1e-4, b_y=0, b_z=0, alpha=3 * math.pi, beta=-math.pi, omega=1e6)
    assert rf.alpha == pytest.approx(math.pi)
    assert rf.beta == pytest.approx(math.pi)  # (-pi, pi] convention
    assert -math.pi < rf.alpha <= math.pi
    assert -math.pi < rf.beta <= math.pi


def test_atom_species_validation():
    with pytest.raises(ValueError):
        AtomSpecies(mass=-1.0, g_F=0.5, m_F=2)
    with pytest.raises(ValueError):
        AtomSpecies(mass=1e-25, g_F=-0.5, m_F=2)  # high-field seeker
    with pytest.raises(ValueError):
        AtomSpecies(mass=1e-25, g_F=0.5, m_F=0)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make",
    [
        lambda: RfConfig(b_x=_NAN, b_y=0, b_z=0, omega=1e6),
        lambda: RfConfig(b_x=1e-4, b_y=_INF, b_z=0, omega=1e6),
        lambda: RfConfig(b_x=1e-4, b_y=0, b_z=-_INF, omega=1e6),
        lambda: RfConfig(b_x=1e-4, b_y=0, b_z=0, alpha=_NAN, omega=1e6),
        lambda: RfConfig(b_x=1e-4, b_y=0, b_z=0, beta=_INF, omega=1e6),
        lambda: RfConfig(b_x=1e-4, b_y=0, b_z=0, omega=_INF),
        lambda: QuadrupoleConfig(gradient=_INF),
        lambda: QuadrupoleConfig(gradient=_NAN),
        lambda: AtomSpecies(mass=1e-25, g_F=_NAN, m_F=2),
        lambda: AtomSpecies(mass=_INF, g_F=0.5, m_F=2),
        lambda: AtomSpecies(mass=1e-25, g_F=0.5, m_F=_NAN),
    ],
    ids=[
        "rf-nan-bx", "rf-inf-by", "rf-neg-inf-bz", "rf-nan-alpha", "rf-inf-beta",
        "rf-inf-omega", "quad-inf", "quad-nan", "atom-nan-gF", "atom-inf-mass",
        "atom-nan-mF",
    ],
)
def test_non_finite_physics_inputs_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()
