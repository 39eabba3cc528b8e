import csv
import gzip
import hashlib
import json
from pathlib import Path

import pytest

import dicond.datasets
from dicond.cli import build_parser, main, parse_grid
from dicond.graph import load_edge_list
from dicond.oracle import LIMIT
from dicond.solver import SolverConfig


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.el"
    path.write_text("1 2\n2 3\n3 1\n")
    return path


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.el"
    path.write_text("1 2\n2 3\n")
    return path


def test_solve_json(c3_file, capsys):
    assert main(["solve", str(c3_file), "--seed", "1", "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_r"] == 0.5
    assert doc["certificate"] == "stop-by-V_b-empty"
    assert doc["is_flip_local_opt"] is True
    assert doc["wall_time"] == 0.0
    assert set(doc["best_set"]) < {"1", "2", "3"}


def test_oracle_json(p3_file, capsys):
    assert main(["oracle", str(p3_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"phi_d_min", "argmin_d", "subsets_enumerated", "n", "m"}
    assert doc["phi_d_min"] == 0.0
    assert doc["subsets_enumerated"] == 3


def test_oracle_size_limit(p3_file, capsys):
    assert main(["oracle", str(p3_file), "--limit", "2"]) == 4


def test_missing_file_is_data_error(tmp_path):
    assert main(["solve", str(tmp_path / "nope.el")]) == 3


def test_weights_whose_volume_overflows_are_data_errors(tmp_path, capsys):
    # finite weights: two parallel arcs that sum to inf, and a cycle whose
    # volume 2·Σw is inf
    parallel = tmp_path / "parallel.el"
    parallel.write_text("1 2 1e308\n1 2 1e308\n2 1 1\n")
    cycle = tmp_path / "cycle.el"
    cycle.write_text("1 2 1e308\n2 3 1e308\n3 1 1e308\n")
    for argv in (["solve", str(parallel)], ["sweep", str(parallel)], ["oracle", str(cycle)]):
        assert main(argv) == 3
        assert "overflows" in capsys.readouterr().err


def test_repeated_labels_are_a_data_error(tmp_path, monkeypatch, capsys):
    # an edge list cannot repeat a label, so a loader that builds such a
    # graph stands in for one: build_graph's ValueError exits 3
    import dicond.cli
    from dicond import build_graph

    monkeypatch.setattr(dicond.cli, "load_edge_list",
                        lambda path: build_graph(2, [0, 1], [1, 0], labels=[1, "1"]))
    assert main(["solve", str(tmp_path / "g.el")]) == 3
    assert "repeated" in capsys.readouterr().err


def test_usage_error():
    assert main([]) == 2
    assert main(["solve"]) == 2
    assert main(["bench", "--suite", "weird"]) == 2


def test_gen_dsbm_and_solve_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.el"
    assert main([
        "gen-dsbm", "--n", "12", "--p", "0.4", "--q", "0.2", "--eta", "0.1",
        "--seed", "3", "--out", str(out),
    ]) == 0
    labels = (tmp_path / "g.el.labels").read_text().splitlines()
    assert len(labels) == 24
    assert labels[0].split() == ["1", "0"]
    assert (tmp_path / "g.el.manifest.json").exists()
    assert main(["solve", str(out), "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_r"] >= 0.0


def test_isolated_vertices_left_out_of_an_edge_list_are_reported(tmp_path, capsys):
    # an edge list cannot hold a vertex with no arcs, so both commands say
    # how many they leave out. This DSBM graph has one isolated vertex
    out = tmp_path / "g.el"
    assert main(["gen-dsbm", "--n", "200", "--p", "0.02", "--q", "0.02", "--eta", "0.1",
                 "--seed", "4", "--out", str(out)]) == 0
    assert "leaves out 1 isolated vertex" in capsys.readouterr().err
    assert len((tmp_path / "g.el.labels").read_text().splitlines()) == 400
    assert load_edge_list(out).n == 399
    # a vertex whose only arc is a self-loop has no arcs once it is dropped
    src = tmp_path / "in.el"
    src.write_text("a b\nc c\n")
    assert main(["convert", str(src), str(tmp_path / "out.el")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "dropped 1 self-loop(s)", "the edge list leaves out 1 isolated vertex(es): it holds only vertices with arcs"]
    assert (tmp_path / "out.el").read_text() == "a b 1.0\n"
    assert main(["convert", str(tmp_path / "out.el"), str(tmp_path / "again.el")]) == 0
    assert capsys.readouterr().err == ""


def test_convert_gzip_roundtrip(tmp_path, capsys):
    src = tmp_path / "in.el"
    src.write_text("# c\na b 2.0\nb c\nb c\n")
    gz = tmp_path / "out.el.gz"
    assert main(["convert", str(src), str(gz)]) == 0
    with gzip.open(gz, "rt") as fh:
        lines = fh.read().splitlines()
    assert lines == ["a b 2.0", "b c 2.0"]


def test_convert_gzip_output_is_byte_reproducible(tmp_path):
    src = tmp_path / "g.el"
    src.write_text("a b 2.0\nb c\n")
    gz = tmp_path / "out.el.gz"
    outs = []
    for _ in range(2):
        assert main(["convert", str(src), str(gz)]) == 0
        outs.append(gz.read_bytes())
    assert outs[0] == outs[1]
    # a zero header time, so runs in different seconds agree as well
    assert outs[0][4:8] == bytes(4)


def test_fetch_local_registry(tmp_path, capsys, monkeypatch):
    data = tmp_path / "tiny.el"
    data.write_text("1 2\n2 1\n")
    sha = hashlib.sha256(data.read_bytes()).hexdigest()
    reg = tmp_path / "registry.json"
    reg.write_text(json.dumps({
        "tiny": {"url": data.as_uri(), "format": "edgelist", "sha256": sha},
        "bad": {"url": data.as_uri(), "format": "edgelist", "sha256": "0" * 64},
    }))
    monkeypatch.setenv("DICOND_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["fetch", "tiny", "--registry", str(reg)]) == 0
    fetched = Path(capsys.readouterr().out.strip())
    assert fetched.read_text() == "1 2\n2 1\n"
    # cached reuse
    assert main(["fetch", "tiny", "--registry", str(reg)]) == 0
    # checksum mismatch is a data error, and it leaves nothing in the cache
    assert main(["fetch", "bad", "--registry", str(reg)]) == 3
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["tiny.el"]
    # unknown dataset
    assert main(["fetch", "who", "--registry", str(reg)]) == 3


@pytest.mark.parametrize("entry", [
    {"sha256": "0" * 64},  # no url
    "file:///tiny.el",  # not an object
    {"url": ["file:///tiny.el"]},  # a url that is not a string
    {"url": "file:///tiny.el", "sha256": 0},  # a sha256 that is not a string
    {"url": "file:///tiny.el", "sha256": ""},  # an empty sha256
    {"url": "file:///tiny.el", "sha256": "xyz"},  # a sha256 that is not 64 hex digits
    {"url": "tiny.el"},  # well formed: only a bad name makes it malformed
])
def test_fetch_refuses_a_malformed_registry_entry(tmp_path, capsys, monkeypatch, entry):
    monkeypatch.chdir(tmp_path)
    Path("tiny.el").write_text("1 2\n2 1\n")
    monkeypatch.setenv("DICOND_CACHE_DIR", str(tmp_path / "cache"))
    # the cache file is named after the entry, so a name must not be a path
    bad_names = ["", ".", "..", "../escaped", "a\\b"]
    for name in bad_names if entry == {"url": "tiny.el"} else ["tiny", *bad_names]:
        Path("registry.json").write_text(json.dumps({name: entry}))
        assert main(["fetch", name, "--registry", "registry.json"]) == 3
        assert f"registry entry {name!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["registry.json", "tiny.el"]  # nothing written


def test_fetch_deletes_the_part_file_when_the_copy_fails(tmp_path, monkeypatch):
    data = tmp_path / "tiny.el"
    data.write_text("1 2\n2 1\n")
    reg = tmp_path / "registry.json"
    reg.write_text(json.dumps({"tiny": {"url": data.as_uri()}}))
    monkeypatch.setenv("DICOND_CACHE_DIR", str(tmp_path / "cache"))

    def copy_then_fail(src, dst):
        dst.write(src.read(3))
        raise OSError("connection reset")

    monkeypatch.setattr(dicond.datasets.shutil, "copyfileobj", copy_then_fail)
    with pytest.raises(OSError, match="connection reset"):
        dicond.datasets.fetch("tiny", reg)
    assert list((tmp_path / "cache").iterdir()) == []


def test_parse_grid():
    grid = parse_grid("p=q=0.02;eta=0,0.05,...,0.3;n=200;seeds=5")
    assert grid["p"] == grid["q"] == [0.02]
    assert grid["eta"] == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    assert grid["n"] == [200]
    assert grid["seeds"] == [0, 1, 2, 3, 4]
    assert parse_grid("seeds=3,9")["seeds"] == [3, 9]
    with pytest.raises(ValueError):
        parse_grid("eta=0,...,1")
    assert parse_grid("names=a, b;seeds=2") == {"names": ["a", "b"], "seeds": [0, 1]}
    for bad in ("seeds=2.5", "seeds=1,2.5", "n=7.9", "n=100,100.5,...,101", "seeds=0", "seeds=-1"):
        with pytest.raises(ValueError):
            parse_grid(bad)
    # an axis with no values would make bench write a header-only CSV
    for empty in ("eta=0.3,0.35,...,0.1", "names=", "names= , ;seeds=2"):
        with pytest.raises(ValueError, match="no values"):
            parse_grid(empty)


def test_parse_grid_long_progressions_do_not_drift():
    # the i-th value is a + i*step rounded, so the end is kept and no
    # value carries the error of a running sum
    for step, count in ((0.01, 10001), (0.1, 1001)):
        etas = parse_grid(f"eta=0,{step},...,100")["eta"]
        assert etas == [round(i * step, 12) for i in range(count)]
        assert etas[-1] == 100.0
    assert parse_grid("eta=1,0.5,0.55,...,0.7")["eta"] == [1.0, 0.5, 0.55, 0.6, 0.65, 0.7]


@pytest.mark.parametrize("grid", [
    "names=x", "eta=0;seeds=2.5", "eta=0;n=7.9", "eta=0;seeds=0", "p=q=0.3;etas=0.3;n=6;seeds=1",
    "eta=0.3,0.35,...,0.1",
])
def test_bench_rejects_bad_grid(grid, capsys):
    assert main(["bench", "--suite", "dsbm", "--grid", grid]) == 3
    assert capsys.readouterr().out == ""


def test_superscript_digit_labels_sort_as_text(tmp_path, capsys):
    # "²".isdigit() holds, but int("²") raises
    path = tmp_path / "sup.el"
    path.write_text("a ²\n² 10\n10 a\n9 a\n")
    for command in ("solve", "oracle", "sweep"):
        assert main([command, str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        labels = doc["set" if command == "sweep" else "best_set" if command == "solve" else "argmin_d"]
        numbers = [lab for lab in labels if lab.isdecimal()]
        assert labels == sorted(numbers, key=int) + sorted(set(labels) - set(numbers))


def test_flag_defaults_are_the_solver_config_defaults():
    cfg = SolverConfig()
    solve = build_parser().parse_args(["solve", "g.el"])
    assert (solve.restarts, solve.max_iters, solve.seed) == (cfg.restarts, cfg.max_iters, cfg.seed)
    bench = build_parser().parse_args(["bench", "--suite", "dsbm"])
    assert (bench.restarts, bench.max_iters) == (cfg.restarts, cfg.max_iters)
    assert build_parser().parse_args(["oracle", "g.el"]).limit == LIMIT


def test_bench_dsbm_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main([
        "bench", "--suite", "dsbm",
        "--grid", "p=q=0.3;eta=0,0.25;n=8;seeds=2",
        "--with-oracle", "--out-csv", str(out), "--no-timings",
    ]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert list(rows[0]) == [
        "instance", "params", "dsi_phi", "sweep_phi", "oracle_phi",
        "iters", "wall_time", "certificate",
    ]
    for row in rows:
        dsi, sweep = float(row["dsi_phi"]), float(row["sweep_phi"])
        assert dsi <= sweep + 1e-9
        if row["oracle_phi"]:
            assert float(row["oracle_phi"]) <= dsi + 1e-9
    assert (tmp_path / "bench.csv.manifest.json").exists()


def test_bench_real_suite(tmp_path, monkeypatch):
    data = tmp_path / "tiny.el"
    data.write_text("1 2\n2 3\n3 1\n1 3\n")
    reg = tmp_path / "registry.json"
    reg.write_text(json.dumps({"tiny": {"url": data.as_uri(), "format": "edgelist"}}))
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("DICOND_CACHE_DIR", str(cache))
    # a key the real suite does not read is rejected before any fetch
    assert main([
        "bench", "--suite", "real", "--grid", "names=tiny;eta=0.1", "--registry", str(reg),
    ]) == 3
    assert list(cache.iterdir()) == []
    out = tmp_path / "real.csv"
    assert main([
        "bench", "--suite", "real", "--grid", "names=tiny;seeds=1",
        "--registry", str(reg), "--out-csv", str(out), "--no-timings", "--with-oracle",
    ]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["instance"] == "tiny"
    man = json.loads((tmp_path / "real.csv.manifest.json").read_text())
    cached = tmp_path / "cache" / "tiny.el"
    assert man["inputs"] == [
        {"path": str(cached), "sha256": hashlib.sha256(data.read_bytes()).hexdigest()}
    ]


def test_byte_identical_outputs(tmp_path, c3_file):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main([
            "solve", str(c3_file), "--seed", "7", "--no-timings", "--out", str(out),
        ]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    man1 = json.loads((tmp_path / "a.json.manifest.json").read_text())
    man2 = json.loads((tmp_path / "b.json.manifest.json").read_text())
    man1["outputs"] = man2["outputs"] = []
    man1["command"] = man2["command"] = []
    assert man1 == man2
    assert man1["inputs"][0]["sha256"] == hashlib.sha256(c3_file.read_bytes()).hexdigest()
    # exactly the settings that reproduce the run
    cfg = SolverConfig(seed=7)
    assert man1["config"] == {"solver": {"restarts": cfg.restarts, "max_iters": cfg.max_iters, "seed": cfg.seed}}


def test_manifest_command_is_the_argv(tmp_path, c3_file):
    solve = ["solve", str(c3_file), "--no-timings", "--out", str(tmp_path / "r.json")]
    bench = ["bench", "--suite", "dsbm", "--grid", "p=q=0.4;n=6;seeds=1",
             "--out-csv", str(tmp_path / "b.csv"), "--no-timings"]
    for argv, out in ((solve, "r.json"), (bench, "b.csv")):
        assert main(argv) == 0
        manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
        assert manifest["command"] == argv


def test_bench_byte_identical(tmp_path):
    outs = []
    for name in ("x.csv", "y.csv"):
        out = tmp_path / name
        assert main([
            "bench", "--suite", "dsbm", "--grid", "p=q=0.4;eta=0.2;n=6;seeds=2",
            "--out-csv", str(out), "--no-timings",
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_trace_csv(tmp_path, p3_file, capsys):
    trace = tmp_path / "trace.csv"
    assert main([
        "solve", str(p3_file), "--no-timings", "--trace-csv", str(trace),
    ]) == 0
    rows = trace.read_text().splitlines()
    assert rows[0] == "step,r"
    assert len(rows) >= 2
    # the trace CSV is a file output too: alone it gets its own manifest,
    # and next to --out it is listed in the report's manifest
    manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(trace)]
    out = tmp_path / "r.json"
    assert main([
        "solve", str(p3_file), "--no-timings", "--out", str(out), "--trace-csv", str(trace),
    ]) == 0
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert manifest["outputs"] == [str(out), str(trace)]


def test_solve_refuses_one_file_for_report_and_trace(tmp_path, p3_file, monkeypatch, capsys):
    # two spellings of one path: refused before anything is written
    monkeypatch.chdir(tmp_path)
    assert main([
        "solve", str(p3_file), "--no-timings", "--out", "same.out", "--trace-csv", str(tmp_path / "same.out"),
    ]) == 3
    assert "same file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["p3.el"]


@pytest.mark.parametrize("argv", [
    ["solve", "p3.el", "--no-timings", "--out", "p3.el"],
    ["convert", "p3.el", "./p3.el"],
])
def test_an_output_that_names_an_input_is_refused(tmp_path, p3_file, monkeypatch, capsys, argv):
    # refused before anything is written: the input keeps its bytes and
    # no manifest records the hash of an output in the input's place
    monkeypatch.chdir(tmp_path)
    before = p3_file.read_bytes()
    assert main(argv) == 3
    assert "same file" in capsys.readouterr().err
    assert p3_file.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["p3.el"]


def test_solve_rejects_a_negative_seed_before_the_precheck(p3_file, capsys):
    # p3 is settled by the precheck, which draws no random restart
    assert main(["solve", str(p3_file), "--seed", "-1"]) == 3
    assert "seed must be >= 0" in capsys.readouterr().err
