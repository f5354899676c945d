import codecs
import csv
import dataclasses
import gc
import importlib
import io
import json
import os
import re
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from musearch import cli, search
from musearch.cli import main
from musearch.fileio import _load_fixed_width, write_grouping_csv, write_matrix_csv
from musearch.fixtures import extract, load
from musearch.matrix import ZeroPattern
from musearch.search import GroupOutcome, PivotResult
from musearch.simulation import ScenarioConfig, generate_bernoulli_matrix, random_grouping

from conftest import fresh_python, run_fresh_python, strip_timing


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


def test_run_reports_candidates_1_based(fixture_files, capsys):
    # fig1's candidates at m_bar 2 as (unit, cross_group_zeros, count), in
    # candidate order; the text and CSV reports agree with these (above)
    matrix, groups = fixture_files["fig1"]
    argv = ["run", "--matrix", matrix, "--groups", groups, "--m-bar", "2", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    candidates = [[tuple(c.values()) for c in g["candidates"]] for g in json.loads(out)["groups"]]
    assert candidates == [[(2, 4, 3), (3, 4, 3)], [(6, 5, 6), (4, 3, 2)], [(8, 5, 3), (9, 5, 5)]]


def test_run_size_mismatch(fixture_files, tmp_path, capsys):
    matrix, _ = fixture_files["tennis"]
    groups = tmp_path / "short.csv"
    groups.write_text("1,1\n2,2\n")
    code, _, err = run_cli(capsys, "run", "--matrix", matrix, "--groups", str(groups))
    assert code == 1
    assert "error:" in err


def test_run_size_mismatch_names_both_files(tmp_path, capsys):
    matrix = tmp_path / "small.csv"
    matrix.write_text("1,0\n0,1\n")
    groups = tmp_path / "g.csv"
    groups.write_text("1,1\n2,2\n3,2\n")
    code, _, err = run_cli(capsys, "run", "--matrix", str(matrix), "--groups", str(groups))
    assert code == 1
    assert f"{matrix} has 2 units but {groups} covers 3" in err


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
    # the exact number of identity tuples, the counts of group 1 (units 1-3)
    # summed, with no truncation flag
    assert payload["identity_tuples"] == 8
    assert "truncated" not in payload


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


def test_oracle_names_each_disagreeing_group(fixture_files, capsys, monkeypatch):
    # the search made to pick unit 3 of group 1, outside the oracle's argmax
    # {6, 7}, and to find nothing in group 2, whose argmax is {8}
    outcomes = (GroupOutcome(0, 2, 1, ((2, 1),)), GroupOutcome(1, None, 0, ()))
    result = PivotResult(outcomes, None, False, None)
    monkeypatch.setattr(cli, "select_maxima", lambda *args: result)
    matrix, groups = fixture_files["tennis"]
    argv = ["oracle", "--matrix", matrix, "--groups", groups]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert out.splitlines()[-2:] == [
        "WARNING: search disagrees with oracle in group 1: search picks unit 3 count=1, "
        "oracle max=3 argmax={6, 7}",
        "WARNING: search disagrees with oracle in group 2: search picks no unit count=0, "
        "oracle max=5 argmax={8}",
    ]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["search_agrees"] is False
    picks = [(g["group"], g["search_pick"], g["search_count"]) for g in payload["groups"]]
    assert picks == [(1, 3, 1), (2, None, 0)]
    assert [g["argmax"] for g in payload["groups"]] == [[6, 7], [8]]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert [int(r["unit"]) for r in rows if r["search_pick"] == "true"] == [3]
    assert {int(r["unit"]) for r in rows if r["is_argmax"] == "true"} == {6, 7, 8}
    # the search as it is agrees: each found group's pick is in its argmax
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    picked = [r for r in csv.DictReader(io.StringIO(out)) if r["search_pick"] == "true"]
    assert [(r["unit"], r["group"], r["is_argmax"]) for r in picked] == [
        ("6", "1", "true"),
        ("8", "2", "true"),
    ]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    picks = [(g["search_pick"], g["search_count"]) for g in json.loads(out)["groups"]]
    assert picks == [(6, 3), (8, 5)]


def test_oracle_checks_the_count_of_every_candidate(fixture_files, capsys, monkeypatch):
    # both picks lie in the oracle's argmax sets, {6, 7} and {8}, but the
    # search counts unit 7 twice where the oracle counts it three times
    outcomes = (
        GroupOutcome(0, 5, 3, ((5, 3), (6, 2), (2, 1), (3, 1), (4, 1))),
        GroupOutcome(1, 7, 5, ((7, 5), (0, 2), (1, 2))),
    )
    result = PivotResult(outcomes, (5, 7), True, None)
    monkeypatch.setattr(cli, "select_maxima", lambda *args: result)
    matrix, groups = fixture_files["tennis"]
    argv = ["oracle", "--matrix", matrix, "--groups", groups]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert out.splitlines()[-1] == (
        "WARNING: search disagrees with oracle in group 1: search counts unit 7 count=2, "
        "oracle count=3"
    )
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(out)["search_agrees"] is False
    code, _, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 2


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


def test_simulate_names_the_line_of_an_undecodable_config_byte(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_bytes(b"n = 30\nk = 2\nm_bar = 1\n# sizes \xff\np = 0.5\n")
    argv = ["simulate", "--config", str(config), "--out-dir", str(tmp_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {config}:4: byte 0xff is not UTF-8 (invalid start byte)\n"


def test_simulate_reads_its_config_as_utf8_whatever_the_locale(tmp_path):
    ascii_locale = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    encoding = fresh_python(
        ["-c", "import locale; print(locale.getpreferredencoding(False))"], **ascii_locale
    ).stdout.strip()
    if codecs.lookup(encoding).name == "utf-8":
        pytest.skip("the C locale reads UTF-8 here")
    config = tmp_path / "grid.cfg"
    config.write_bytes("# café\nn = 12\nk = 2\nm_bar = 1\np = 0.5\n".encode())
    argv = ["simulate", "--config", str(config), "--out-dir", str(tmp_path)]
    done = fresh_python(["-m", "musearch.cli", *argv], **ascii_locale)
    wrote = f"wrote {tmp_path / 'grid.csv'} and {tmp_path / 'grid.md'}\n"
    assert (done.returncode, done.stderr) == (0, wrote)
    assert (tmp_path / "grid.csv").read_text().count("\n") == 2  # the header and one cell


@pytest.mark.parametrize("short", [False, True], ids=["field-names", "without-_values"])
def test_config_round_trips_every_field_by_either_name(short):
    # every field differs from its default, so none can be left unread
    cfg = ScenarioConfig(
        n_values=(12, 30), k_values=(2, 5), m_bar_values=(1, 4), p_values=(0.25, 0.5),
        seed=2**64 - 1, repetitions=3,
    )
    lines = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        key = field.name.removesuffix("_values") if short else field.name
        shown = ", ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        lines.append(f"{key} = {shown}")
    assert ScenarioConfig.parse("\n".join(lines)) == cfg


def test_config_parser_accepts_comments():
    cfg = ScenarioConfig.parse("# grid\nn = 10, 20 # sizes\nk = 2\nm_bar = 1\np = 0.5\n")
    assert cfg.n_values == (10, 20)
    assert cfg.seed == 0
    assert cfg.repetitions == 1


def test_config_parser_requires_grids():
    with pytest.raises(ValueError, match="missing required key 'p'"):
        ScenarioConfig.parse("n = 10\nk = 2\nm_bar = 1\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "n = 100\nk = 2\nm_bar = 1\np = 0.5\nn_values = 7\n",
            "5: 'n_values' is set twice (first as 'n' on line 1)",
        ),
        (
            "n = 10\nseed = 3\nk = 2\nm_bar = 1\np = 0.5\nseed = 4\n",
            "6: 'seed' is set twice (first as 'seed' on line 2)",
        ),
        (
            "p_values = 0.5\nn = 10\nk = 2\nm_bar = 1\np = 0.2\n",
            "5: 'p' is set twice (first as 'p_values' on line 1)",
        ),
    ],
    ids=["alias", "same-key", "name-after-alias"],
)
def test_config_parser_refuses_a_key_set_twice(text, message):
    with pytest.raises(ValueError, match=re.escape(f"grid.cfg:{message}")):
        ScenarioConfig.parse(text, source="grid.cfg")


@pytest.mark.parametrize(
    "text, message",
    [
        ("n = 10\nk 2\n", "2: expected 'key = value', got 'k 2'"),
        ("n = 10\nseed = 1, 2\n", "2: invalid value for seed: expected a single value"),
        ("n = 10\nk = 2\nm_bar = x\n", "3: invalid value for m_bar: invalid literal"),
        ("n = 10\nk = 2\nm_bar = 1\np = half\n", "4: invalid value for p: could not convert"),
    ],
    ids=["no-equals", "two-seeds", "bad-int", "bad-float"],
)
def test_config_parser_names_the_bad_line(text, message):
    with pytest.raises(ValueError, match=re.escape(f"grid.cfg:{message}")):
        ScenarioConfig.parse(text, source="grid.cfg")


@pytest.mark.parametrize(
    "char", ["\x0c", "\x85", "\u2028"], ids=["form-feed", "next-line", "line-separator"]
)
def test_config_lines_end_only_at_newlines(char):
    # str.splitlines() would also break at these, shifting every later line
    # number and reading what follows them as a key
    cfg = ScenarioConfig.parse(f"n = 10 # a{char}seed = 5\nk = 2\nm_bar = 1\np = 0.5\n")
    assert cfg.seed == 0
    in_comment = f"# a{char}b\nn = 10\nk 2\n"
    with pytest.raises(ValueError, match=re.escape("grid.cfg:3: expected 'key = value'")):
        ScenarioConfig.parse(in_comment, source="grid.cfg")
    in_value = f"n = 10{char}seed = 5\nk = 2\nm_bar = 1\np = 0.5\n"
    with pytest.raises(ValueError, match=re.escape("grid.cfg:1: invalid value for n")):
        ScenarioConfig.parse(in_value, source="grid.cfg")


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
    with pytest.raises(ValueError, match="unknown fixture 'nope'; available: fig1, tennis"):
        load("nope")


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


def test_run_triplets_last_unit_without_entries(tmp_path, capsys):
    # unit 4 is listed nowhere, so all its entries are zero; the grouping
    # says it exists
    matrix = tmp_path / "m.txt"
    matrix.write_text("1 1 1\n1 2 1\n1 3 1\n2 2 1\n3 3 1\n")
    groups = tmp_path / "g.csv"
    groups.write_text("1,1\n2,1\n3,2\n4,2\n")
    code, out, _ = run_cli(capsys, "run", "--matrix", str(matrix), "--groups", str(groups))
    assert code == 0
    assert "group 2: unit 4  count=2  [found]" in out
    assert "maxima: 2 4" in out


@pytest.mark.parametrize(
    "name, text",
    [
        ("m.csv", "1,1,1,0\n1,1,0,0\n1,0,1,0\n0,0,0,1\n"),
        ("m.txt", "1 1 1\n1 2 1\n\n1 3 1\n2 2 1\n3 3 1\n4 4 1\n"),
    ],
    ids=["dense", "triplets"],
)
def test_run_reads_matrix_from_pipe(tmp_path, capsys, name, text):
    # a pipe can be read only once, as with --matrix <(zcat m.csv.gz)
    groups = tmp_path / "g.csv"
    groups.write_text("1,1\n2,1\n3,2\n4,2\n")
    matrix = tmp_path / name
    matrix.write_text(text)
    expected = run_cli(capsys, "run", "--matrix", str(matrix), "--groups", str(groups))
    fifo = tmp_path / f"fifo-{name}"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    got = run_cli(capsys, "run", "--matrix", str(fifo), "--groups", str(groups))
    writer.join(timeout=10)
    assert expected[0] == 0
    assert got == expected


@pytest.mark.parametrize(
    "data, message",
    [
        (b"1,0\nx,1\n", ":2: invalid number 'x'"),
        (b"1 1 1\n2 x 1\n", ":2: invalid triplet '2 x 1'"),
        (b"1,0\n0,\xff1\n", ":2: byte 0xff is not UTF-8 (invalid start byte)"),
        (b"1 1 1\n2 2 \xff\n", ":2: byte 0xff is not UTF-8 (invalid start byte)"),
    ],
    ids=["dense", "triplets", "dense-undecodable", "triplets-undecodable"],
)
def test_run_names_bad_line_of_pipe(tmp_path, data, message):
    # naming the bad line must not read the pipe again: its writer is gone,
    # so a second open would block for ever. The run gets its own process,
    # so that such a hang fails the test when the timeout kills it.
    groups = tmp_path / "g.csv"
    groups.write_text("1,1\n2,2\n")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    done = fresh_python(
        ["-m", "musearch.cli", "run", "--matrix", str(fifo), "--groups", str(groups)],
        timeout=20,
    )
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert done.returncode == 1
    assert f"error: {fifo}{message}" in done.stderr


def test_run_names_line_of_undecodable_grouping_byte(fixture_files, tmp_path, capsys):
    matrix, _ = fixture_files["fig1"]
    groups = tmp_path / "g.csv"
    groups.write_bytes(b"1,1\n2,\xff2\n")
    code, out, err = run_cli(capsys, "run", "--matrix", matrix, "--groups", str(groups))
    assert (code, out) == (1, "")
    assert err == f"error: {groups}:2: byte 0xff is not UTF-8 (invalid start byte)\n"


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
def test_run_names_a_grouping_too_large_for_its_triplet_matrix(tmp_path):
    # the grouping sizes the triplet matrix, and its 10^10 cells cannot be
    # allocated within the 4 GiB of address space the run is capped at, so
    # that no machine lazily grants them
    matrix = tmp_path / "m.txt"
    matrix.write_text("1 2 1\n")
    groups = tmp_path / "g.csv"
    groups.write_text("".join(f"{u},{u % 4 + 1}\n" for u in range(1, 100_001)))
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32))\n"
        "from musearch.cli import run_main\n"
        "run_main()\n"
    )
    argv = ["run", "--matrix", str(matrix), "--groups", str(groups)]
    done = fresh_python(["-c", code, *argv], OPENBLAS_NUM_THREADS="1")
    assert (done.returncode, done.stdout, done.stderr) == (
        1,
        "",
        f"error: {matrix}: n=100000 asks for a 100000-by-100000 matrix, more than can be "
        "allocated\n",
    )

@pytest.mark.parametrize("user_value", [None, "2"])
def test_cli_sets_one_blas_thread_unless_set(user_value):
    # OpenBLAS reads the variable when numpy loads, so only a fresh
    # process shows what importing the CLI does
    out = run_fresh_python(
        "import os, musearch.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
        OPENBLAS_NUM_THREADS=user_value,
    )
    assert out.strip() == (user_value or "1")


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


@pytest.mark.parametrize(
    "text, dtype, values",
    [
        ("1.5,0.5\n0.2,1.5\n", np.uint8, "0.5 but (2,1) is 0.2"),
        ("10.25,00.50\n00.05,10.25\n", np.uint16, "0.5 but (2,1) is 0.05"),
        (
            "1.23456789,0.12345678\n0.12345679,1.23456789\n",
            np.uint32,
            "0.12345678 but (2,1) is 0.12345679",
        ),
        (
            "1.00000000000000,0.10000000000001\n0.10000000000003,1.00000000000000\n",
            np.uint64,
            "0.10000000000001 but (2,1) is 0.10000000000003",
        ),
    ],
)
def test_run_rejects_asymmetric_fixed_width(tmp_path, capsys, text, dtype, values):
    # the check runs on the digits, at each mantissa width, and the message
    # names both values as the float parser read them
    assert _load_fixed_width(io.BytesIO(text.encode()))[0].dtype == dtype
    matrix = tmp_path / "m.csv"
    matrix.write_text(text)
    groups = tmp_path / "g.csv"
    groups.write_text("1,1\n2,2\n")
    code, _, err = run_cli(capsys, "run", "--matrix", str(matrix), "--groups", str(groups))
    assert code == 1
    assert err == f"error: {matrix}: matrix not symmetric: entry (1,2) is {values}\n"


# The call sites perfbench/layers.py wraps to time a run (its SITES, less
# ("musearch.cli", "select_candidates"), which the run no longer looks up).
# The traced benchmark divides by the read_matrix time and by the number of
# count_identity_submatrices calls, so a site the run stops calling crashes
# it with ZeroDivisionError instead of reporting the layer missing. Relax
# this once the tracer tolerates a missing layer.
_TRACE_SITES = (
    ("musearch.cli", "main"),
    ("musearch.fileio", "read_matrix"),
    ("musearch.fileio", "read_grouping"),
    ("musearch.fileio", "SymmetricMatrix"),
    ("musearch.cli", "build_zero_pattern"),
    ("musearch.matrix", "ZeroPattern"),
    ("musearch.search", "select_candidates"),
    ("musearch.cli", "select_maxima"),
    ("musearch.search", "group_partners"),
    ("musearch.search", "count_identity_submatrices"),
    ("musearch.search", "verify_identity"),
)


def test_run_calls_every_benchmark_trace_site(fixture_files, capsys, monkeypatch):
    calls = Counter()

    def counted(site, fn):
        def wrapper(*args, **kwargs):
            calls[site] += 1
            return fn(*args, **kwargs)

        return wrapper

    for site in _TRACE_SITES:
        module = importlib.import_module(site[0])
        monkeypatch.setattr(module, site[1], counted(site, getattr(module, site[1])))
    matrix, groups = fixture_files["fig1"]
    code = cli.main(
        ["run", "--matrix", matrix, "--groups", groups, "--m-bar", "2", "--format", "json"]
    )
    capsys.readouterr()
    assert code == 0
    assert [site for site in _TRACE_SITES if not calls[site]] == []


def test_run_never_rebuilds_the_bool_matrix(fixture_files, tmp_path, capsys, monkeypatch):
    # the search reads packed rows only; ZeroPattern.to_array is the one way
    # back to the n-by-n bool matrix. main() reports a ValueError as an
    # input error, so the patch raises an AssertionError, which it does not
    def refused(self):
        raise AssertionError("the run path rebuilt the n-by-n bool matrix")

    monkeypatch.setattr(ZeroPattern, "to_array", refused)
    tables, set_counts = [], set()
    build, count = search._GroupTables, search._count_cliques
    monkeypatch.setattr(
        search, "_GroupTables", lambda *args: tables.append(args[2]) or build(*args)
    )
    monkeypatch.setattr(
        search, "_count_cliques", lambda zp, sets: set_counts.add(len(sets)) or count(zp, sets)
    )
    runs = [(*fixture_files["fig1"], 2)]
    # groups of about 50 with partner sets of about 40: at K = 4 the shared
    # tables pay for 20 candidates a group; K = 6 fixes units of five sets
    for k, m_bar in ((4, 20), (5, 5), (6, 3)):
        matrix, groups = tmp_path / f"m{k}.csv", tmp_path / f"g{k}.csv"
        write_matrix_csv(generate_bernoulli_matrix(200, 0.2, 11), matrix)
        write_grouping_csv(random_grouping(200, k, 12), groups)
        runs.append((str(matrix), str(groups), m_bar))
    for matrix, groups, m_bar in runs:
        code, _, err = run_cli(
            capsys, "run", "--matrix", matrix, "--groups", groups, "--m-bar", str(m_bar)
        )
        assert (code, err) == (0, ""), matrix
    assert sorted(tables) == [0, 1, 2, 3]
    assert set_counts == {2, 3, 4, 5}


def run_script(*argv, **env):
    """``python -m musearch.cli *argv`` in a fresh process."""
    return fresh_python(["-m", "musearch.cli", *argv], timeout=30, **env)


@pytest.mark.parametrize("name", ["fig1", "tennis"])
def test_script_entry_gives_what_main_gives(fixture_files, capsys, name):
    matrix, groups = fixture_files[name]
    for fmt in ("text", "json", "csv"):
        argv = ["run", "--matrix", matrix, "--groups", groups, "--format", fmt]
        done = run_script(*argv)
        assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv)


def test_script_entry_exit_codes_match_main(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0\nnope,1\n")
    ones = tmp_path / "ones.csv"
    ones.write_text("1,1,1,1\n" * 4)
    groups2, groups4 = tmp_path / "g2.csv", tmp_path / "g4.csv"
    groups2.write_text("1,1\n2,2\n")
    groups4.write_text("1,1\n2,1\n3,2\n4,2\n")
    malformed = ["run", "--matrix", str(bad), "--groups", str(groups2)]
    not_found = ["run", "--matrix", str(ones), "--groups", str(groups4)]
    for argv, code, err in ((malformed, 1, f"error: {bad}:2"), (not_found, 2, "")):
        done = run_script(*argv)
        assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv)
        assert done.returncode == code
        assert done.stderr.startswith(err)


def test_run_main_freezes_the_heap_the_imports_left():
    done = fresh_python(
        [
            "-c",
            "import gc, musearch.cli as cli\n"
            "print(gc.get_freeze_count())\n"
            "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
            "cli.run_main()\n",
        ]
    )
    assert done.returncode == 0
    before, during = map(int, done.stdout.split())
    assert before == 0 < during


def test_main_leaves_the_collector_as_it_was(fixture_files, capsys):
    matrix, groups = fixture_files["tennis"]
    state = gc.get_freeze_count(), gc.isenabled()
    code, _, _ = run_cli(capsys, "run", "--matrix", matrix, "--groups", groups)
    assert code == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == state


# run_main() ends the process with os._exit once it has flushed the output,
# which skips the interpreter's teardown; and the module disables the
# collector while a script's imports load. Each of these runs in a fresh
# process.


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_script_output_to_a_file_is_what_main_gives(fixture_files, tmp_path, capsys, unbuffered):
    matrix, groups = fixture_files["tennis"]
    for fmt in ("text", "json", "csv"):
        argv = ["run", "--matrix", matrix, "--groups", groups, "--format", fmt]
        out = tmp_path / f"out.{fmt}"
        with out.open("w") as file:
            done = run_script(*argv, stdout=file, PYTHONUNBUFFERED=unbuffered)
        assert (done.returncode, out.read_text(), done.stderr) == run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["run", "--help"], 0), ([], 1), (["run", "--m-bar", "x"], 1)],
    ids=["help", "run-help", "no-command", "usage-error"],
)
def test_script_exits_as_argparse_does(capsys, argv, code):
    done = run_script(*argv)
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == done.returncode == code
    assert (done.stdout, done.stderr) == (captured.out, captured.err)


@pytest.mark.parametrize("enabled", [True, False])
def test_importing_the_cli_leaves_the_collector_as_it_was(enabled):
    switch = "gc.enable()" if enabled else "gc.disable()"
    out = run_fresh_python(f"import gc; {switch}; import musearch.cli; print(gc.isenabled())")
    assert out.strip() == str(enabled)


def test_script_runs_no_collection_while_its_imports_load(fixture_files):
    # counted from when the module's package imports start, with the first
    # of them, until run_main() freezes the heap; the stdlib imports before
    # them may collect. The callback writes straight to the descriptor,
    # which os._exit leaves as it is.
    matrix, groups = fixture_files["tennis"]
    code = (
        "import gc, os, runpy, sys\n"
        "def seen(phase, info):\n"
        "    if phase == 'start' and not gc.get_freeze_count()"
        " and 'musearch.fileio' in sys.modules:\n"
        "        os.write(2, b'collected\\n')\n"
        "gc.callbacks.append(seen)\n"
        "runpy.run_module('musearch.cli', run_name='__main__', alter_sys=True)\n"
    )
    done = fresh_python(["-c", code, "run", "--matrix", matrix, "--groups", groups])
    assert (done.returncode, done.stderr) == (0, "")
    assert "maxima:" in done.stdout


def test_main_registers_no_exit_handler(fixture_files):
    # os._exit would skip an atexit handler, and weakref.finalize registers one
    matrix, groups = fixture_files["tennis"]
    out = run_fresh_python(
        "import atexit, musearch.cli as cli\n"
        "before = atexit._ncallbacks()\n"
        f"code = cli.main(['run', '--matrix', {matrix!r}, '--groups', {groups!r}])\n"
        "print(code, before, atexit._ncallbacks())\n"
    )
    code, before, after = map(int, out.split()[-3:])
    assert code == 0
    assert after == before


@pytest.fixture
def large_report_files(tmp_path):
    # every off-diagonal entry is zero, so all 300 units are candidates and
    # the JSON report (about 27 KB) overflows stdout's buffer
    n = 300
    matrix = tmp_path / "eye.csv"
    matrix.write_text("".join(",".join("1" if j == i else "0" for j in range(n)) + "\n" for i in range(n)))
    groups = tmp_path / "g.csv"
    groups.write_text("".join(f"{i + 1},{i % 2 + 1}\n" for i in range(n)))
    return str(matrix), str(groups)


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("size", ["small", "large", "help"])
def test_run_into_a_closed_pipe_fails_once(fixture_files, large_report_files, unbuffered, size):
    # a buffered stdout is flushed once more at interpreter exit, where a
    # failure can only print "Exception ignored" and exit with code 120
    if size == "small":
        matrix, groups = fixture_files["tennis"]
        argv = ["run", "--matrix", matrix, "--groups", groups]
    elif size == "large":
        matrix, groups = large_report_files
        argv = ["run", "--matrix", matrix, "--groups", groups]
        argv += ["--m-bar", "150", "--format", "json"]
    else:
        argv = ["--help"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_script(*argv, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == "error: [Errno 32] Broken pipe\n"
