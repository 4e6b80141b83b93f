"""Buffer library: linear gate model and selection."""

import pytest

from repro.tech.buffers import BufferCell, BufferLibrary, default_buffer_library


@pytest.fixture(scope="module")
def lib() -> BufferLibrary:
    return default_buffer_library()


def test_library_ordered_by_size(lib):
    sizes = [cell.size for cell in lib]
    assert sizes == sorted(sizes)
    assert lib.smallest.size == min(sizes)
    assert lib.largest.size == max(sizes)


def test_delay_linear_in_load(lib):
    cell = lib.smallest
    d10 = cell.delay(10.0)
    d20 = cell.delay(20.0)
    d30 = cell.delay(30.0)
    assert d30 - d20 == pytest.approx(d20 - d10)


def test_delay_decreases_with_size_at_high_load(lib):
    load = 40.0
    delays = [cell.delay(load) for cell in lib]
    assert delays == sorted(delays, reverse=True)


def test_constant_rc_product_across_sizes(lib):
    products = [cell.r_drive * cell.c_in for cell in lib]
    for p in products[1:]:
        assert p == pytest.approx(products[0], rel=1e-6)


def test_slew_monotone_in_load(lib):
    cell = lib.by_name("CLKBUF_X4")
    assert cell.output_slew(50.0) > cell.output_slew(10.0)


def test_negative_load_rejected(lib):
    with pytest.raises(ValueError):
        lib.smallest.delay(-1.0)
    with pytest.raises(ValueError):
        lib.smallest.output_slew(-1.0)


def test_by_name_unknown(lib):
    with pytest.raises(KeyError):
        lib.by_name("CLKBUF_X99")


def test_library_rejects_unordered_cells(lib):
    cells = list(lib.cells)
    with pytest.raises(ValueError):
        BufferLibrary(cells=(cells[1], cells[0]))


def test_library_rejects_empty():
    with pytest.raises(ValueError):
        BufferLibrary(cells=())
