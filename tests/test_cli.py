import csv
import io
import json

import pytest

from musearch.cli import main, parse_scenario_config
from musearch.fixtures import extract

from conftest import strip_timing


@pytest.fixture
def fixture_files(tmp_path):
    paths = {}
    for name in ("fig1", "tennis"):
        matrix_path, groups_path = extract(name, tmp_path)
        paths[name] = (str(matrix_path), str(groups_path))
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_tennis(fixture_files, capsys):
    matrix, groups = fixture_files["tennis"]
    code, out, _ = run_cli(
        capsys, "run", "--matrix", matrix, "--groups", groups, "--m-bar", "3"
    )
    assert code == 0
    assert "maxima: 6 8" in out
    assert "group 1: unit 6  count=3" in out
    assert "group 2: unit 8  count=5" in out
    assert "identity_verified: true" in out


def test_run_fig1(fixture_files, capsys):
    matrix, groups = fixture_files["fig1"]
    code, out, _ = run_cli(
        capsys, "run", "--matrix", matrix, "--groups", groups, "--m-bar", "2"
    )
    assert code == 0
    assert "maxima: 2 6 9" in out
    assert "identity_verified: true" in out


def test_run_not_found_exit_code(tmp_path, capsys):
    matrix = tmp_path / "ones.csv"
    matrix.write_text("\n".join(",".join("1" for _ in range(4)) for _ in range(4)) + "\n")
    groups = tmp_path / "groups.csv"
    groups.write_text("1,1\n2,1\n3,2\n4,2\n")
    code, out, _ = run_cli(capsys, "run", "--matrix", str(matrix), "--groups", str(groups))
    assert code == 2
    assert "not-found" in out
    assert "maxima: -" in out


def test_run_formats_agree(fixture_files, capsys):
    matrix, groups = fixture_files["tennis"]
    base = ["run", "--matrix", matrix, "--groups", groups, "--m-bar", "3"]
    _, text_out, _ = run_cli(capsys, *base)
    _, json_out, _ = run_cli(capsys, *base, "--format", "json")
    _, csv_out, _ = run_cli(capsys, *base, "--format", "csv")

    payload = json.loads(json_out)
    assert payload["maxima"] == [6, 8]
    assert payload["identity_verified"] is True

    rows = list(csv.DictReader(io.StringIO(csv_out)))
    for row, group in zip(rows, payload["groups"]):
        assert int(row["group"]) == group["group"]
        assert row["status"] == group["status"]
        assert int(row["selected"]) == group["selected"]
        assert int(row["count"]) == group["count"]
        packed = [
            tuple(int(x) for x in chunk.split(":"))
            for chunk in row["candidates"].split(";")
        ]
        assert packed == [
            (c["unit"], c["cross_group_zeros"], c["count"])
            for c in group["candidates"]
        ]
    for group in payload["groups"]:
        assert f"group {group['group']}: unit {group['selected']}" in text_out
        for c in group["candidates"]:
            assert f"unit {c['unit']} zeros={c['cross_group_zeros']} count={c['count']}" in text_out


def test_run_size_mismatch(fixture_files, tmp_path, capsys):
    matrix, _ = fixture_files["tennis"]
    groups = tmp_path / "short.csv"
    groups.write_text("1,1\n2,2\n")
    code, _, err = run_cli(capsys, "run", "--matrix", matrix, "--groups", str(groups))
    assert code == 1
    assert "error:" in err


def test_run_malformed_matrix(tmp_path, capsys):
    matrix = tmp_path / "bad.csv"
    matrix.write_text("1,0\nnope,1\n")
    groups = tmp_path / "g.csv"
    groups.write_text("1,1\n2,2\n")
    code, _, err = run_cli(capsys, "run", "--matrix", str(matrix), "--groups", str(groups))
    assert code == 1
    assert "bad.csv:2" in err


def test_run_missing_file(tmp_path, capsys):
    groups = tmp_path / "g.csv"
    groups.write_text("1,1\n2,2\n")
    code, _, err = run_cli(
        capsys, "run", "--matrix", str(tmp_path / "absent.csv"), "--groups", str(groups)
    )
    assert code == 1
    assert "error:" in err


def test_oracle_tennis(fixture_files, capsys):
    matrix, groups = fixture_files["tennis"]
    code, out, _ = run_cli(capsys, "oracle", "--matrix", matrix, "--groups", groups)
    assert code == 0
    assert "group 1: max=3 argmax={6, 7}" in out
    assert "group 2: max=5 argmax={8}" in out
    assert "search agrees with oracle" in out


def test_oracle_json(fixture_files, capsys):
    matrix, groups = fixture_files["fig1"]
    code, out, _ = run_cli(
        capsys, "oracle", "--matrix", matrix, "--groups", groups, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["groups"][0]["argmax"] == [2, 3]
    assert payload["search_agrees"] is True


def test_oracle_csv(fixture_files, capsys):
    matrix, groups = fixture_files["tennis"]
    code, out, _ = run_cli(
        capsys, "oracle", "--matrix", matrix, "--groups", groups, "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_unit = {int(r["unit"]): r for r in rows}
    assert int(by_unit[8]["count"]) == 5
    assert by_unit[8]["is_argmax"] == "true"
    assert by_unit[6]["is_argmax"] == "true"
    assert by_unit[3]["is_argmax"] == "false"
    assert int(by_unit[3]["group"]) == 1


def test_oracle_size_guard(tmp_path, capsys):
    n, k = 404, 4
    rows = "\n".join(",".join("1" for _ in range(n)) for _ in range(n))
    matrix = tmp_path / "big.csv"
    matrix.write_text(rows + "\n")
    groups = tmp_path / "groups.csv"
    groups.write_text("\n".join(f"{i + 1},{i % k + 1}" for i in range(n)) + "\n")
    code, _, err = run_cli(capsys, "oracle", "--matrix", str(matrix), "--groups", str(groups))
    assert code == 1
    assert "too large" in err


def test_simulate_deterministic(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text(
        "n = 30\nk = 2, 3\nm_bar = 1, 2\np = 0.5\nseed = 42\nrepetitions = 1\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1, stdout1, _ = run_cli(
        capsys, "simulate", "--config", str(config), "--out-dir", str(out1)
    )
    code2, stdout2, _ = run_cli(
        capsys, "simulate", "--config", str(config), "--out-dir", str(out2)
    )
    assert code1 == code2 == 0
    assert "## p = 0.5" in stdout1
    csv_a = (out1 / "grid.csv").read_text()
    csv_b = (out2 / "grid.csv").read_text()
    assert strip_timing(csv_a) == strip_timing(csv_b)


def test_simulate_seed_override(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text("n = 30\nk = 2\nm_bar = 1\np = 0.5\nseed = 42\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "simulate", "--config", str(config), "--out-dir", str(out1))
    run_cli(
        capsys, "simulate", "--config", str(config), "--out-dir", str(out2),
        "--seed", "43",
    )
    a = strip_timing((out1 / "grid.csv").read_text())
    b = strip_timing((out2 / "grid.csv").read_text())
    assert a != b


def test_simulate_rejects_bad_p(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text("n = 30\nk = 2\nm_bar = 1\np = 1.2\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 1
    assert "p outside (0,1)" in err


def test_simulate_rejects_empty_grid(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text("n =\nk = 2\nm_bar = 1\np = 0.5\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 1
    assert "empty grid list" in err


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text("n = 30\nk = 2\nm_bar = 1\np = 0.5\nbogus = 1\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 1
    assert "unknown key 'bogus'" in err


def test_config_parser_accepts_comments():
    cfg = parse_scenario_config("# grid\nn = 10, 20 # sizes\nk = 2\nm_bar = 1\np = 0.5\n")
    assert cfg.n_values == (10, 20)
    assert cfg.seed == 0
    assert cfg.repetitions == 1


def test_config_parser_requires_grids():
    with pytest.raises(ValueError, match="missing required key 'p'"):
        parse_scenario_config("n = 10\nk = 2\nm_bar = 1\n")


def test_fixtures_list(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    assert "fig1:" in out
    assert "tennis:" in out


def test_fixtures_extract(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "fixtures", "--extract", "fig1", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert (tmp_path / "fig1.csv").exists()
    assert (tmp_path / "fig1_groups.csv").exists()


def test_fixtures_unknown_name(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "fixtures", "--extract", "nope", "--out-dir", str(tmp_path)
    )
    assert code == 1
    assert "unknown fixture" in err


def test_run_triplet_input(tmp_path, capsys):
    # all ones except the unlisted (2,3) entry, which is therefore zero
    matrix = tmp_path / "m.txt"
    matrix.write_text(
        "1 1 1\n1 2 1\n1 3 1\n1 4 1\n2 2 1\n2 4 1\n3 3 1\n3 4 1\n4 4 1\n"
    )
    groups = tmp_path / "g.csv"
    groups.write_text("1,1\n2,1\n3,2\n4,2\n")
    code, out, _ = run_cli(capsys, "run", "--matrix", str(matrix), "--groups", str(groups))
    assert code == 0
    assert "maxima: 2 3" in out


@pytest.mark.parametrize(
    "name, text, entry",
    [
        ("m.csv", "1,nan,0\nnan,1,0\n0,0,1\n", "(1,2)"),
        ("m.csv", "1,0,0\n0,1,0\n0,0,inf\n", "(3,3)"),
        ("m.txt", "1 1 1\n2 3 -inf\n3 3 1\n", "(2,3)"),
        ("m.txt", "1 2 nan\n3 3 1\n", "(1,2)"),
    ],
)
def test_run_rejects_non_finite(tmp_path, capsys, name, text, entry):
    matrix = tmp_path / name
    matrix.write_text(text)
    groups = tmp_path / "g.csv"
    groups.write_text("1,1\n2,2\n3,2\n")
    code, _, err = run_cli(capsys, "run", "--matrix", str(matrix), "--groups", str(groups))
    assert code == 1
    assert f"entry {entry} is not finite" in err
    assert name in err
