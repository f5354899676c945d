import importlib
from pathlib import Path

import pytest

import musearch
from musearch.simulation import ScenarioConfig

from conftest import run_fresh_python

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(info):
    """The README's fenced blocks whose opening fence reads ```info, in
    order, as text."""
    blocks, current = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if not line.startswith("```"):
            if current is not None:
                current.append(line)
        elif current is None:
            opened, current = line[3:], []
        else:
            if opened == info:
                blocks.append("\n".join(current) + "\n")
            current = None
    return blocks


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


@pytest.mark.parametrize(
    "module", ["matrix", "search", "oracle", "simulation", "fileio", "fixtures", "cli"]
)
def test_submodule_public_names_resolve(module):
    owner = importlib.import_module(f"musearch.{module}")
    assert [name for name in owner.__all__ if not hasattr(owner, name)] == []


def test_fixtures_import_leaves_out_dataclasses():
    out = run_fresh_python("import sys, musearch.fixtures; print('dataclasses' in sys.modules)")
    assert out.strip() == "False"


def test_oracle_import_leaves_out_dataclasses():
    out = run_fresh_python("import sys, musearch.oracle; print('dataclasses' in sys.modules)")
    assert out.strip() == "False"


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


def test_readme_library_example_prints_its_comments():
    (code,) = readme_blocks("python")
    expected = [line.rsplit("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["[6, 8]", "True"]
    assert run_fresh_python(code).splitlines() == expected


def test_readme_simulate_configs_parse():
    example, paper = (ScenarioConfig.parse(text) for text in readme_blocks(""))
    assert example == ScenarioConfig((100, 500), (2, 3, 4), (1, 5, 10, 20), (0.8, 0.5, 0.2), 42)
    assert paper == ScenarioConfig(
        n_values=(100, 500, 1000),
        k_values=(2, 3, 4),
        m_bar_values=(1, 5, 10, 20),
        p_values=(0.8, 0.5, 0.2),
        seed=20160801,
        repetitions=1,
    )
