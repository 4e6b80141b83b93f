"""Corpus table: families, lookup errors, selector resolution."""

import pytest

from repro.designs import (DesignFamily, DesignSpec, families, family,
                           family_of, iter_specs, resolve_selectors,
                           spec_by_name, spec_names)


def test_builtin_families_registered():
    names = [fam.name for fam in families()]
    assert names[:4] == ["synthetic", "hierarchical", "gated", "imported"]
    assert family("synthetic").specs[0].name == "ckt64"
    assert family_of("soc_g128") == "gated"


def test_unknown_family_lists_available():
    with pytest.raises(KeyError, match="synthetic"):
        family("industrial")


def test_spec_by_name_suggests_close_matches_and_families():
    with pytest.raises(KeyError) as exc:
        spec_by_name("ckt258")
    message = str(exc.value)
    assert "ckt256" in message            # the close match
    assert "hierarchical" in message      # the family listing
    assert "soc_h64" in message


def test_family_table_names_are_unique():
    names = [fam.name for fam in families()]
    assert len(set(names)) == len(names)
    design_names = [spec.name for spec in iter_specs()]
    assert len(set(design_names)) == len(design_names)
    assert spec_names() == tuple(design_names)
    for name in design_names:
        assert spec_by_name(name).name == name


def test_empty_family_raises():
    with pytest.raises(ValueError, match="no specs"):
        DesignFamily("empty_fam", "nothing", ())
    probe = DesignSpec("probe", n_sinks=4, die_edge=50.0)
    assert DesignFamily("probe_fam", "probe", (probe,)).specs == (probe,)


@pytest.mark.parametrize("selectors,expected", [
    (["ckt64"], ("ckt64",)),
    (["ckt?4"], ("ckt64",)),
    (["family:gated"], ("soc_g128", "soc_g256")),
    (["soc_h*", "soc_h64"],
     ("soc_h64", "soc_h256", "soc_h256m", "soc_h1024")),
    (["designs/custom.json"], ("designs/custom.json",)),
])
def test_resolve_selectors(selectors, expected):
    assert resolve_selectors(selectors) == expected


def test_family_star_covers_whole_corpus():
    assert resolve_selectors(["family:*"]) == spec_names()


@pytest.mark.parametrize("selector", ["family:industrial", "ckt9*", "nope"])
def test_empty_selector_is_an_error(selector):
    with pytest.raises(KeyError):
        resolve_selectors([selector])


def test_expand_design_refs_expands_selectors():
    from repro.runner import expand_design_refs

    # Selector entries expand and dedup; non-selector refs pass through
    # verbatim (unregistered ad-hoc names stay legal until resolution).
    assert expand_design_refs(("family:imported", "adhoc", "imp_uart")) \
        == ("imp_uart", "imp_noc", "adhoc")
