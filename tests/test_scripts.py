"""Command-line checks of the scripts under scripts/."""

import importlib.util
import json
import subprocess
import tempfile
from pathlib import Path

import pytest

from qbm.measures import N_U, N_X

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kurtosis_table_writes_rows(capsys):
    assert load("kurtosis_table").main(["--qs", "0.5", "--r-max", "2", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 3


@pytest.mark.parametrize(
    "args, message",
    [
        (["--r-max", "-1"], "--r-max must be >= 0"),
        (["--r-max", "nan"], "--r-max must be >= 0"),
        (["--steps", "0"], "--steps must be >= 1"),
        (["--steps", "-3"], "--steps must be >= 1"),
    ],
)
def test_kurtosis_table_rejects_bad_ranges(args, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load("kurtosis_table").main(args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_ito_convergence_small_run(capsys):
    args = ["--qs", "0.5", "--depths", "5,10", "--paths", "2", "--polys", "2"]
    assert load("ito_convergence").main(args) == 0
    captured = capsys.readouterr()
    assert "K=  5" in captured.out and "K= 10" in captured.out and "PASS" in captured.out
    assert captured.err.startswith("convergence suite wall time: ")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--depths", "0"], "depths must be"),
        (["--depths", "0,10"], "depths must be"),
        (["--depths", "40,20"], "depths must be"),
        (["--depths", "20,20"], "depths must be"),
        (["--depths", ""], "depths must be"),
        (["--paths", "0"], "n_paths and n_polys must be at least 1"),
        (["--polys", "0"], "n_paths and n_polys must be at least 1"),
    ],
)
def test_ito_convergence_rejects_bad_inputs(args, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load("ito_convergence").main(["--qs", "0.5"] + args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_table_build_reports_time_and_defect(capsys):
    assert load("table_build").main(["--q", "0.5", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# gates: u-error")
    # both tables, and a repeated q is built and timed again
    assert [line.split()[1] for line in lines[1:]] == ["marginal", "transition"] * 2
    for line in lines[1:]:
        fields = line.split()
        assert line.startswith("q=0.5") and 0.0 < float(fields[fields.index("defect") + 1]) <= 1e-6
        # wall and CPU time of the build, each in seconds
        assert fields[3:5] == ["s", "wall"] and fields[6:8] == ["s", "cpu"]
        assert float(fields[2]) > 0.0 and float(fields[5]) >= 0.0
        assert 0.0 < float(fields[fields.index("u-error") + 1]) <= 1e-9
        # four float64 coefficients per knot interval, N_U of them per row;
        # the transition's blend loss per pair of adjacent rows
        rows = int(fields[fields.index("rows") - 1])
        assert rows == (1 if "marginal" in line else N_X)
        sizes = [int(fields[fields.index(name) + 1]) for name in ("cubic", "blend_loss")]
        assert sizes == [rows * N_U * 4 * 8, (rows - 1) * 8]


@pytest.mark.parametrize("args", [["--q", "0"], ["--q", "0.5", "1"], ["--q", "nan"], ["--q", "-0.2"]])
def test_table_build_rejects_bad_q(args, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load("table_build").main(args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "every --q must lie in (0, 1)" in captured.err and captured.out == ""


def test_path_crossover_checks_the_walks_bits(monkeypatch, capsys):
    import math

    from qbm import process

    script = load("path_crossover")
    monkeypatch.setattr(script, "SIZES", (1, 3))
    monkeypatch.setattr(script, "DEPTHS", (4,))
    cross = process._STREAM_CROSSOVER
    assert script.main(["--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 2 and process._STREAM_CROSSOVER == cross
    # one-state draws one float off: the path-by-path walk no longer matches
    real = process._transition_at

    def off(table, x, cell, t):
        return math.nextafter(real(table, x, cell, t), math.inf)

    monkeypatch.setattr(process, "_transition_at", off)
    assert script.main(["--repeats", "1"]) == 1
    assert "differ at (depth, paths) [(4, 1), (4, 3)]" in capsys.readouterr().out


def test_sampler_layers_times_each_layer(capsys):
    assert load("sampler_layers").main(["--repeats", "1", "--q", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# nproc ") and " numpy " in lines[0] and len(lines) == 3
    fields = lines[2].split()
    assert fields[:2] == ["0.5", "20"] and all(float(v) > 0.0 for v in fields[2:])


@pytest.mark.parametrize("args, message", [(["--repeats", "0"], "--repeats must be >= 1"), (["--q", "1"], "--q must lie")])
def test_sampler_layers_rejects_bad_inputs(args, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load("sampler_layers").main(args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_density_layers_times_each_layer(capsys):
    assert load("density_layers").main(["--repeats", "1", "--q", "0.5", "0.8", "0.99"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# nproc ") and " numpy " in lines[0] and len(lines) == 5
    for line, q in zip(lines[2:], ("0.5", "0.8", "0.99")):
        fields = line.split()
        assert fields[0] == q and len(fields) == 7 and all(float(v) > 0.0 for v in fields[1:5])
        # delta_numeric is timed up to q = 0.95 only
        assert fields[5:] == ["-", "-"] if q == "0.99" else all(float(v) > 0.0 for v in fields[5:])


@pytest.mark.parametrize("args, message", [(["--repeats", "0"], "--repeats must be >= 1"), (["--q", "0"], "--q must lie")])
def test_density_layers_rejects_bad_inputs(args, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load("density_layers").main(args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_path_layers_times_each_call(capsys):
    assert load("path_layers").main(["--repeats", "1", "--q", "0.5", "0.8", "--depth", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# nproc ") and " numpy " in lines[0] and len(lines) == 4
    assert lines[1].split() == ["q", "depth", "forms", "simulate", "ito", "def", "byparts", "sde"]
    for line, q in zip(lines[2:], ("0.5", "0.8")):
        fields = line.split()
        assert fields[:2] == [q, "4"] and len(fields) == 8 and all(float(v) > 0.0 for v in fields[2:])


@pytest.mark.parametrize(
    "args, message",
    [(["--repeats", "0"], "--repeats must be >= 1"), (["--q", "1"], "--q must lie"), (["--depth", "0"], "--depth must be >= 1")],
)
def test_path_layers_rejects_bad_inputs(args, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load("path_layers").main(args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_bench_pairs_runs_both_trees_from_fresh_copies(tmp_path, monkeypatch):
    # on a temporary repository: the base is the commit, the change a copy
    # of the working tree with its uncommitted edit and untracked file, and
    # neither holds an ignored directory; the scratch directory goes after
    repo, scratch = tmp_path / "repo", tmp_path / "tmp"
    (repo / "perfbench" / "out").mkdir(parents=True)
    scratch.mkdir()
    run = lambda *args: subprocess.run(["git", *args], cwd=repo, capture_output=True, check=True)
    try:
        run("init", "-q")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs git")
    (repo / ".gitignore").write_text(".hypothesis/\n/perfbench/out/\n")
    (repo / "kept.py").write_text("base\n")
    (repo / "gone.py").write_text("deleted on disk\n")
    run("add", "-A")
    run("-c", "user.name=bench", "-c", "user.email=bench@example.org", "commit", "-q", "-m", "base")
    (repo / "kept.py").write_text("edited\n")
    (repo / "gone.py").unlink()
    (repo / "new.py").write_text("untracked\n")
    (repo / ".hypothesis").mkdir()
    (repo / ".hypothesis" / "db").write_text("ignored\n")
    (repo / "perfbench" / "out" / "run.json").write_text("ignored\n")
    bench = load("bench_pairs")
    monkeypatch.setattr(bench, "ROOT", repo)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    files = lambda tree: sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())
    with bench.trees(bench.git("rev-parse", "HEAD")) as (work, paths):
        assert set(paths.values()) <= set(work.iterdir()) and work.parent == scratch
        assert files(paths["base"]) == [".gitignore", "gone.py", "kept.py"]
        assert files(paths["change"]) == [".gitignore", "kept.py", "new.py"]
        assert (paths["base"] / "kept.py").read_text() == "base\n"
        assert (paths["change"] / "kept.py").read_text() == "edited\n"
    assert list(scratch.iterdir()) == []


def test_bench_pairs_runs_one_short_pair(tmp_path, monkeypatch, capsys):
    # the committed HEAD against the working tree, one short quadrature pair;
    # the extracted tree goes under a temporary directory that is emptied
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=SCRIPTS.parent, capture_output=True)
    if head.returncode != 0:
        pytest.skip("needs a git checkout with a commit")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    out = tmp_path / "BENCH.json"
    args = ["--base", "HEAD", "--workload", "quadrature", "--first-seed", "1", "--pairs", "1", "--seconds", "0.2"]
    assert load("bench_pairs").main(args + ["--out", str(out)]) == 0
    assert list(scratch.iterdir()) == []
    (entry,) = json.loads(out.read_text(encoding="utf-8"))
    assert entry["base"] == head.stdout.decode().strip() and entry["seeds"] == [1]
    assert entry["trees"].startswith("both run from fresh copies")
    assert {"nproc", "cpus_usable", "python", "numpy"} <= set(entry["environment"])
    for name in ("setup_s", "ops_per_s", "peak_rss_mb", "run.wall_s", "run.cpu_s"):
        m = entry["metrics"][name]
        assert len(m["base"]["runs"]) == len(m["change"]["runs"]) == m["pairs"] == 1 and 0 <= m["pairs_won"] <= 1
        assert m["base"]["runs"][0] > 0 and m["change"]["runs"][0] > 0
    assert entry["ops"]["base"][0][1] == entry["ops"]["change"][0][1] == 0
    assert entry["src_lines"]["base"]["total"] > 0 and "process.py" in entry["src_lines"]["change"]
    assert "ops_per_s" in capsys.readouterr().out
