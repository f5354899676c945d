import importlib

import pytest

import musearch

from conftest import run_fresh_python


def test_import_loads_no_numpy():
    out = run_fresh_python("import sys, musearch; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_cli_import_leaves_out_simulation_and_oracle():
    # `musearch run` needs none of them, nor the statistics and dataclasses
    # modules behind simulation, oracle and fixtures
    out = run_fresh_python(
        "import sys, musearch.cli; print(sorted({'musearch.simulation', "
        "'musearch.oracle', 'musearch.fixtures', 'statistics', 'dataclasses'} "
        "& set(sys.modules)))"
    )
    assert out.strip() == "[]"


def test_public_names_resolve_to_their_modules():
    assert set(musearch.__all__) <= set(dir(musearch))
    for name in musearch.__all__:
        value = getattr(musearch, name)
        if name != "__version__":
            owner = importlib.import_module(value.__module__)
            assert getattr(owner, name) is value
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        musearch.nope


def test_submodules_resolve_as_attributes():
    out = run_fresh_python(
        "import musearch; print(musearch.search.select_maxima is musearch.select_maxima)"
    )
    assert out.strip() == "True"
    for name in ("matrix", "search", "oracle", "simulation"):
        assert getattr(musearch, name) is importlib.import_module(f"musearch.{name}")


def test_count_from_partner_groups_stays_in_search():
    # it counts from a PartnerGroups, which only search.group_partners makes,
    # and neither of those is a package name
    assert "count_identity_submatrices" not in musearch.__all__
    with pytest.raises(AttributeError):
        musearch.count_identity_submatrices
    from musearch.search import count_identity_submatrices

    assert musearch.search.count_identity_submatrices is count_identity_submatrices
