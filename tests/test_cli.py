import csv
import gzip
import hashlib
import json
from pathlib import Path

import pytest

from dicond.cli import main, parse_grid


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
    assert doc["phi_d_min"] == 0.0
    assert doc["subsets_enumerated"] == 3


def test_oracle_size_limit(p3_file, capsys):
    assert main(["oracle", str(p3_file), "--limit", "2"]) == 4


def test_missing_file_is_data_error(tmp_path):
    assert main(["solve", str(tmp_path / "nope.el")]) == 3


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


def test_convert_gzip_roundtrip(tmp_path, capsys):
    src = tmp_path / "in.el"
    src.write_text("# c\na b 2.0\nb c\nb c\n")
    gz = tmp_path / "out.el.gz"
    assert main(["convert", str(src), str(gz)]) == 0
    with gzip.open(gz, "rt") as fh:
        lines = fh.read().splitlines()
    assert lines == ["a b 2.0", "b c 2.0"]


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
    # checksum mismatch is a data error
    assert main(["fetch", "bad", "--registry", str(reg)]) == 3
    # unknown dataset
    assert main(["fetch", "who", "--registry", str(reg)]) == 3


def test_parse_grid():
    grid = parse_grid("p=q=0.02;eta=0,0.05,...,0.3;n=200;seeds=5")
    assert grid["p"] == grid["q"] == [0.02]
    assert grid["eta"] == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    assert grid["n"] == [200]
    assert grid["seeds"] == [0, 1, 2, 3, 4]
    assert parse_grid("seeds=3,9")["seeds"] == [3, 9]
    with pytest.raises(ValueError):
        parse_grid("eta=0,...,1")


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
    monkeypatch.setenv("DICOND_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "real.csv"
    assert main([
        "bench", "--suite", "real", "--grid", "names=tiny;seeds=1",
        "--registry", str(reg), "--out-csv", str(out), "--no-timings", "--with-oracle",
    ]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["instance"] == "tiny"


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
