"""Metal layer stack: RC model shape and validation."""

import pytest
from hypothesis import given, strategies as st

from repro.tech.layers import MetalLayer, MetalStack, default_metal_stack


@pytest.fixture(scope="module")
def stack() -> MetalStack:
    return default_metal_stack()


@pytest.fixture(scope="module")
def m5(stack) -> MetalLayer:
    return stack.by_name("M5")


def test_stack_has_six_layers(stack):
    assert len(stack) == 6
    assert [layer.name for layer in stack] == ["M1", "M2", "M3", "M4", "M5", "M6"]


def test_layer_directions_alternate(stack):
    directions = [layer.direction for layer in stack]
    for a, b in zip(directions, directions[1:]):
        assert a != b


def test_by_name_and_index_agree(stack):
    for layer in stack:
        assert stack.by_name(layer.name) is layer


def test_unknown_layer_raises(stack):
    with pytest.raises(KeyError):
        stack.by_name("M9")


def test_resistance_halves_at_double_width(m5):
    assert m5.resistance_per_um(2 * m5.min_width) == pytest.approx(
        m5.resistance_per_um(m5.min_width) / 2.0)


def test_isolated_cap_magnitude_is_45nm_class(m5):
    # Published 45 nm per-um total capacitance is ~0.2 fF/um.
    c = m5.isolated_cap_per_um(m5.min_width)
    assert 0.1 < c < 0.4


def test_resistance_magnitude_is_45nm_class(stack):
    # Intermediate copper: a few ohm/um at minimum width.
    m3 = stack.by_name("M3")
    r_ohm_per_um = m3.resistance_per_um(m3.min_width) * 1000.0
    assert 1.0 < r_ohm_per_um < 10.0


def test_coupling_cap_decreases_with_spacing(m5):
    s = m5.min_spacing
    assert m5.coupling_cap_per_um(s) > m5.coupling_cap_per_um(2 * s)
    assert m5.coupling_cap_per_um(2 * s) >= m5.c_fringe_far


def test_coupling_superlinear_falloff(m5):
    """Doubling spacing cuts coupling by more than 2x (exponent > 1)."""
    s = m5.min_spacing
    ratio = m5.coupling_cap_per_um(s) / m5.coupling_cap_per_um(2 * s)
    assert ratio > 2.0


def test_coupling_beyond_reach_is_far_field(m5):
    assert m5.coupling_cap_per_um(m5.coupling_reach) == m5.c_fringe_far
    assert m5.coupling_cap_per_um(10.0) == m5.c_fringe_far


def test_coupling_rejects_nonpositive_spacing(m5):
    with pytest.raises(ValueError):
        m5.coupling_cap_per_um(0.0)


def test_ground_cap_scales_with_width(m5):
    assert m5.ground_cap_per_um(2 * m5.min_width) == pytest.approx(
        2.0 * m5.ground_cap_per_um(m5.min_width))


def test_ground_cap_rejects_nonpositive_width(m5):
    with pytest.raises(ValueError):
        m5.ground_cap_per_um(-0.1)


@given(st.floats(min_value=0.01, max_value=0.79))
def test_coupling_cap_monotone_nonincreasing(spacing):
    m5 = default_metal_stack().by_name("M5")
    eps = 0.01
    assert (m5.coupling_cap_per_um(spacing)
            >= m5.coupling_cap_per_um(spacing + eps) - 1e-12)


def test_bad_direction_rejected():
    with pytest.raises(ValueError):
        MetalLayer("MX", 1, "D", 0.07, 0.14, 0.07, 0.14, 0.25,
                   0.6, 0.04, 0.001, 0.5, 0.025, 8000.0)


def test_nonpositive_geometry_rejected():
    with pytest.raises(ValueError):
        MetalLayer("MX", 1, "H", 0.0, 0.14, 0.07, 0.14, 0.25,
                   0.6, 0.04, 0.001, 0.5, 0.025, 8000.0)


def test_stack_requires_increasing_indices():
    m1 = default_metal_stack().by_name("M1")
    m2 = default_metal_stack().by_name("M2")
    with pytest.raises(ValueError):
        MetalStack(layers=(m2, m1))


def test_empty_stack_rejected():
    with pytest.raises(ValueError):
        MetalStack(layers=())
