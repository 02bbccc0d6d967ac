"""Command-line checks of the scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

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
