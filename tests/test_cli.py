"""Flag parsing, config precedence, exit codes, artifact determinism."""

import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import pytest

import qbm
from qbm.cli import ConfigError, RunConfig, build_config, main
from qbm.verify import CHECKS


def run_main(args):
    return main(args)


def test_defaults():
    cfg = build_config([])
    assert cfg.suite == "all" and cfg.q == 0.5 and cfg.seed == 2024
    assert cfg.format == "json" and cfg.out == "qbm_out"


def test_flag_parsing():
    cfg = build_config(
        ["--suite", "verify", "--q", "0.8", "--t", "2.5", "--depth", "30",
         "--paths", "123", "--seed", "9", "--format", "csv", "--only", "wdw,bdb"]
    )
    assert cfg.suite == "verify" and cfg.q == 0.8 and cfg.depth == 30
    assert cfg.paths == 123 and cfg.only_set() == {"wdw", "bdb"}


def test_invalid_q_rejected():
    with pytest.raises(ConfigError):
        build_config(["--q", "1.2"])
    with pytest.raises(ConfigError):
        build_config(["--q", "0.0"])


def test_unknown_check_name_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown check"):
        build_config(["--only", "definitely-not-a-check"])
    # the conditional-moment checks report under their own three names
    with pytest.raises(ConfigError, match="unknown check 'cond-moments'"):
        build_config(["--only", "cond-moments"])
    assert run_main(["--only", "variance,typo", "--out", str(tmp_path)]) == 2


def test_only_accepts_every_registered_name():
    for name in CHECKS:
        assert build_config(["--only", name]).only_set() == {name}


def test_config_file_and_precedence(tmp_path, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text("q=0.8\nseed=99\npaths=7\n# comment line\n\nwide=true\n")
    monkeypatch.setenv("QBM_SEED", "123")
    cfg = build_config(["--config", str(conf), "--t", "2.0"])
    # file seed beats env; flags beat file
    assert cfg.seed == 99 and cfg.q == 0.8 and cfg.t == 2.0
    assert cfg.paths == 7 and cfg.wide is True
    cfg = build_config(["--config", str(conf), "--seed", "1"])
    assert cfg.seed == 1


def test_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("QBM_SEED", "777")
    assert build_config([]).seed == 777
    monkeypatch.setenv("QBM_SEED", "not-an-int")
    with pytest.raises(ConfigError):
        build_config([])


def test_bad_config_file_lines(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("q 0.8\n")
    with pytest.raises(ConfigError, match="key=value"):
        build_config(["--config", str(conf)])
    conf.write_text("qq=0.8\n")
    with pytest.raises(ConfigError, match="unknown key"):
        build_config(["--config", str(conf)])
    conf.write_text("q=abc\n")
    with pytest.raises(ConfigError, match="bad value"):
        build_config(["--config", str(conf)])


def test_main_config_error_exit_code(tmp_path, capsys):
    assert run_main(["--q", "1.2", "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_identities_run_writes_reports(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_main(["--suite", "identities", "--out", str(out)]) == 0
    assert "45/45" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["suite"] == "identities"
    assert manifest["seed"] == 2024
    assert manifest["build"].startswith("qbm ")
    reports = json.loads((out / "identities.json").read_text())
    assert len(reports) == 45
    assert all(r["passed"] for r in reports)


def test_identities_only_filter(tmp_path):
    out = tmp_path / "run"
    assert run_main(["--suite", "identities", "--only", "wdw", "--out", str(out)]) == 0
    reports = json.loads((out / "identities.json").read_text())
    assert {r["name"] for r in reports} == {"wdw"}
    assert len(reports) == 3


def test_identities_csv_format(tmp_path):
    out = tmp_path / "run"
    assert run_main(
        ["--suite", "identities", "--only", "bdb", "--format", "csv", "--out", str(out)]
    ) == 0
    lines = (out / "identities.csv").read_text().splitlines()
    assert lines[0].startswith("name,params,oracle")
    assert len(lines) == 4


def test_simulate_artifacts_and_determinism(tmp_path):
    args = ["--suite", "simulate", "--paths", "2", "--seed", "7", "--q", "0.5",
            "--depth", "6"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_main(args + ["--out", str(out1)]) == 0
    assert run_main(args + ["--out", str(out2)]) == 0
    files1 = sorted((out1 / "paths").iterdir())
    assert [f.name for f in files1] == ["path_00000.csv", "path_00001.csv"]
    for f in files1:
        text = f.read_text()
        assert text.splitlines()[0] == "k,t_k,B_k"
        assert len(text.splitlines()) == 8
        assert text.encode() == (out2 / "paths" / f.name).read_bytes()


def test_simulate_wide(tmp_path):
    out = tmp_path / "w"
    assert run_main(
        ["--suite", "simulate", "--paths", "3", "--wide", "--depth", "5",
         "--out", str(out)]
    ) == 0
    lines = (out / "paths" / "paths_wide.csv").read_text().splitlines()
    assert lines[0] == "k,t_k,B_0,B_1,B_2"


def test_verify_small_run_and_plot_artifacts(tmp_path, capsys):
    out = tmp_path / "v"
    code = run_main(
        ["--suite", "verify", "--paths", "3000", "--only", "ez2", "--out", str(out)]
    )
    assert code == 0
    reports = json.loads((out / "verify.json").read_text())
    assert {r["name"] for r in reports} == {"ez2"}
    density = (out / "density_curves.csv").read_text().splitlines()
    assert density[0] == "q,t,y,density"
    assert len(density) == 1 + 3 * 201
    kurt = (out / "kurtosis_vs_r.csv").read_text().splitlines()
    assert kurt[0] == "q,r,ez2,ez4,ratio"
    row = kurt[1].split(",")
    assert float(row[4]) == pytest.approx(2.2)


def test_verify_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "f"
    code = run_main(
        ["--suite", "verify", "--paths", "2000", "--only", "ez2",
         "--z-threshold", "1e-9", "--out", str(out)]
    )
    assert code == 1
    assert "FAIL ez2" in capsys.readouterr().out


def test_runconfig_validate_direct():
    cfg = RunConfig(suite="simulate", q=0.5, t=1.0)
    cfg.validate()
    with pytest.raises(ConfigError):
        RunConfig(format="xml").validate()
    with pytest.raises(ConfigError):
        RunConfig(z_threshold=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(suite="bogus").validate()


@pytest.mark.parametrize(
    "args",
    [
        ["--seed", "-1"],
        ["--seed", str(2**128 - 3), "--paths", "4"],
        ["--t", "inf"],
        ["--t", "nan"],
        ["--q", "nan"],
        ["--depth", "0"],
        ["--q", "0.5", "--depth", "1100"],
    ],
)
def test_simulate_rejects_bad_seed_and_grid(tmp_path, capsys, args):
    out = tmp_path / "bad"
    assert run_main(["--suite", "simulate", *args, "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    # rejected before the manifest or any path is written
    assert not out.exists()


@pytest.mark.parametrize("suite", ["verify", "all"])
def test_monte_carlo_needs_two_paths(tmp_path, capsys, suite):
    out = tmp_path / "one"
    assert run_main(["--suite", suite, "--paths", "1", "--only", "variance-horizon",
                     "--out", str(out)]) == 2
    assert "at least 2 paths" in capsys.readouterr().err
    assert not out.exists()
    # a single simulated path is still a valid run
    assert build_config(["--suite", "simulate", "--paths", "1"]).paths == 1


@pytest.mark.parametrize("suite", ["verify", "all"])
def test_verify_horizon_floor(tmp_path, capsys, suite):
    # the densities take any normal t (their kernel forms 1 / t, never t**2),
    # so the floor is the grid's: its deepest time t q**K must be normal
    out = tmp_path / "tiny"
    assert run_main(["--suite", suite, "--t", "1e-163", "--only", "variance",
                     "--out", str(out)]) == 0
    rows = (out / "density_curves.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 * 201 and all(math.isfinite(float(v)) for row in rows for v in row.split(","))
    capsys.readouterr()
    # at q = 0.5 the grid is 20 deep: t q**20 is about 9.5e-310, subnormal
    below = tmp_path / "below"
    assert run_main(["--suite", suite, "--t", "1e-303", "--only", "variance",
                     "--out", str(below)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "underflows the normal float range" in err
    assert not below.exists()


def test_seed_range_follows_the_run():
    top = 2**128
    RunConfig(suite="simulate", seed=top - 4, paths=4).validate()
    RunConfig(suite="identities", seed=top - 1).validate()
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(suite="simulate", seed=top - 3, paths=4).validate()
    # verify draws a Monte Carlo batch and its rerun batch from the seed,
    # and the convergence suite's 20 x 20 path batch reaches seed + 399
    RunConfig(suite="verify", seed=top - 40000, paths=20000).validate()
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(suite="verify", seed=top - 39999, paths=20000).validate()
    RunConfig(suite="all", seed=top - 400, paths=10).validate()
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(suite="all", seed=top - 399, paths=10).validate()
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(suite="identities", seed=-1).validate()


def test_simulate_at_the_largest_seeds(tmp_path):
    out = tmp_path / "top"
    args = ["--suite", "simulate", "--seed", str(2**128 - 4), "--paths", "4", "--wide"]
    assert run_main(args + ["--out", str(out)]) == 0
    assert len((out / "paths" / "paths_wide.csv").read_text().splitlines()) == 22


#: SHA-256 of every artifact but manifest.json (which echoes --out) for seven
#: small runs, recorded with NumPy 2.4 on x86-64 Linux: identities.json and
#: kurtosis_vs_r.csv at qbm 0.2.0 (see CHANGES.md for the digests of 0.1.0),
#: the density curves at qbm 0.4.0 (the q-Pochhammer density kernel), the
#: verify.json of the run with delta-numeric at 0.6.1 (the delta inner leg's
#: moments), and the paths and the two Monte Carlo verify.json at 0.6.0 (the
#: mirrored transition-table rows); the last two, recorded at 0.6.0, cover
#: the sampler-bias and convergence reports and the CSV writer.  CHANGES.md
#: lists the old digests
PINNED_DIGESTS = [
    (
        ["--suite", "identities"],
        {"identities.json": "0744628d2793c22afaca59afb50654f0c2cfb5afe0e1a242cca9df06bf721af6"},
    ),
    (
        ["--suite", "simulate", "--q", "0.5", "--paths", "4", "--seed", "7", "--wide"],
        {"paths/paths_wide.csv": "8f14e5ef3911abc24252a1e3bc530bb55be7151d7b235c214f3802f5844c0487"},
    ),
    (
        ["--suite", "verify", "--only", "variance,ez2", "--paths", "3000"],
        {
            "density_curves.csv": "6fc0cc448acd154790a426d0f7afa1c537ae915ba95bfb54d43ee691afeaa591",
            "kurtosis_vs_r.csv": "6cd6ea26eb4317d3f4fbacc053999085a280bf8c4852b4ad5e338d97f81add59",
            "verify.json": "3dd56474859735c71e44a729dde5777d1c41b5ac5455c0b45882f0d287ad2006",
        },
    ),
    (
        ["--suite", "verify", "--only",
         "normalization,variance,fourth-moment,martingale,cond-quadratic,cond-cubic,"
         "cond-quartic,orthogonality,chapman,nabla-numeric,delta-numeric"],
        {
            "density_curves.csv": "6fc0cc448acd154790a426d0f7afa1c537ae915ba95bfb54d43ee691afeaa591",
            "kurtosis_vs_r.csv": "6cd6ea26eb4317d3f4fbacc053999085a280bf8c4852b4ad5e338d97f81add59",
            "verify.json": "168e556d4322e317059f0237f2d5cfa273ee6ffc2bdded99551dc84ac4f2c20a",
        },
    ),
    # 20000 paths: three simulation blocks at each q
    (
        ["--suite", "verify", "--only", "isometry", "--paths", "20000"],
        {
            "density_curves.csv": "6fc0cc448acd154790a426d0f7afa1c537ae915ba95bfb54d43ee691afeaa591",
            "kurtosis_vs_r.csv": "6cd6ea26eb4317d3f4fbacc053999085a280bf8c4852b4ad5e338d97f81add59",
            "verify.json": "90ea05de869582ac952e61fa4e36e64a4f37f22ee4715c9c4f10e9b1623bf73d",
        },
    ),
    # the reports no other entry reaches, through the CSV writer
    (
        ["--suite", "verify", "--format", "csv", "--only",
         "sampler-bias,ito-convergence,sde-residual,stoch-exp-mean", "--paths", "3000"],
        {
            "density_curves.csv": "6fc0cc448acd154790a426d0f7afa1c537ae915ba95bfb54d43ee691afeaa591",
            "kurtosis_vs_r.csv": "6cd6ea26eb4317d3f4fbacc053999085a280bf8c4852b4ad5e338d97f81add59",
            "verify.csv": "8f72c35b869dfd49cb118007ff1dcc2243b1069ddfc418e265dbeb901ba3373f",
        },
    ),
    (
        ["--suite", "identities", "--format", "csv"],
        {"identities.csv": "db5d5b794949d64e87b4a51abb6d3c7cccd8f6dc25304458c06f81501dd4cd01"},
    ),
]


def test_artifact_digests_pinned(tmp_path, monkeypatch):
    """Outputs cannot change silently.

    A changed digest means a changed output stream (a new RNG stream, a
    different float expression, a new report field).  Such a change needs an
    entry in CHANGES.md that says what changed and why, and only then new
    digests here.
    """
    monkeypatch.delenv("QBM_SEED", raising=False)
    for i, (args, expected) in enumerate(PINNED_DIGESTS):
        out = tmp_path / str(i)
        assert run_main(args + ["--out", str(out)]) == 0
        got = {
            f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*"))
            if f.is_file() and f.name != "manifest.json"
        }
        assert got == expected, args


def test_table_gate_failure_exits_2(tmp_path, capsys):
    # at q = 0.999 the kernel's direct product under- and overflows, so the
    # transition table's first block, at the centre, has mass 0 and fails
    # the mass gate; the run stops with a one-line configuration error, not a
    # traceback, and the kernel's 0/0 at the edge rows raises no warning
    # (pytest keeps warnings out of capsys, so they are recorded here)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_main(["--suite", "simulate", "--q", "0.999", "--out", str(tmp_path / "high")]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == "configuration error: the sampling tables fail their gates at q = 0.999: tabulated density mass off by 1.000e+00 (> 1e-06)\n"
    assert not (tmp_path / "high" / "paths").exists()
    # q = 0.995 still builds its tables and simulates
    out = tmp_path / "ok"
    assert run_main(["--suite", "simulate", "--q", "0.995", "--depth", "40", "--wide", "--out", str(out)]) == 0
    rows = (out / "paths" / "paths_wide.csv").read_text().splitlines()[1:]
    assert len(rows) == 41 and all(math.isfinite(float(v)) for row in rows for v in row.split(",")[2:])


def test_version_matches_pyproject():
    # the manifest writes qbm.__version__, while CI compares outputs with the
    # base commit's by pyproject.toml's version; a regex, as Python 3.10 has
    # no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1) == qbm.__version__
