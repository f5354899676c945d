import csv
import gc
import importlib
import io
import json
import os
import re
import threading
from collections import Counter

import numpy as np
import pytest

from musearch import cli, search
from musearch.cli import main, parse_scenario_config
from musearch.fileio import _load_fixed_width, write_grouping_csv, write_matrix_csv
from musearch.fixtures import extract
from musearch.matrix import ZeroPattern
from musearch.simulation import generate_bernoulli_matrix, random_grouping

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
        parse_scenario_config(text, source="grid.cfg")


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
    assert _load_fixed_width(text.encode())[0].dtype == dtype
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
    build, count = search._shared_tables, search._count_cliques
    monkeypatch.setattr(
        search, "_shared_tables", lambda *args: tables.append(args[2]) or build(*args)
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
    assert set_counts == {2, 4, 5}


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
    if size == "help" and unbuffered:
        # argparse itself drops the error of its unbuffered write and exits 0
        assert (done.returncode, done.stderr) == (0, "")
    else:
        assert done.returncode == 1
        assert done.stderr == "error: [Errno 32] Broken pipe\n"
