"""Every text reader rejects a missing, directory or non-UTF-8 path with its
documented error class, and the CLI turns that into its documented exit code."""

import argparse
import json

import pytest

from cloudguard.baseline import load_rules
from cloudguard.cli import _load_config, main
from cloudguard.errors import CheckpointError, ConfigError, InputError
from cloudguard.policy import load_qtables, read_convergence_csv
from cloudguard.simulate import read_events
from cloudguard.telemetry import read_stream_jsonl

SCENARIO = {"duration_ms": 5000}


def _bad_path(tmp_path, kind):
    path = tmp_path / "bad"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-UTF-8":
        path.write_bytes(b'{"a": 1}\n\xff\n')
    return str(path)


def _labels(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("start,end,label\n0,1000,benign\n")
    return str(path)


def _events(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    path.write_text("")
    return str(path)


READERS = {
    "config": (lambda tmp, p: _load_config(argparse.Namespace(config=p, command="simulate")),
               ConfigError),
    "rules": (lambda tmp, p: load_rules(p), InputError),
    "event log": (lambda tmp, p: read_events(p), InputError),
    "q-table": (lambda tmp, p: load_qtables(p), CheckpointError),
    "convergence": (lambda tmp, p: read_convergence_csv(p), CheckpointError),
    "telemetry.jsonl": (lambda tmp, p: read_stream_jsonl(p, _labels(tmp)), InputError),
    "labels.csv": (lambda tmp, p: read_stream_jsonl(_events(tmp), p), InputError),
}
KINDS = ("missing", "directory", "non-UTF-8")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("reader", READERS)
def test_reader_rejects_an_unreadable_file(tmp_path, reader, kind):
    read, error = READERS[reader]
    path = _bad_path(tmp_path, kind)
    with pytest.raises(error, match="cannot read") as caught:
        read(tmp_path, path)
    assert path in str(caught.value)


def _cli_argv(tmp_path, case, path):
    """The command line that reads ``path`` as the ``case`` input."""
    if case == "report":
        return ["compare", path, path]
    if case == "config":
        return ["simulate", "--config", path, "--out", str(tmp_path / "o")]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"scenario": SCENARIO, case: path}))
    return ["simulate", "--config", str(cfg), "--format", "csv",
            "--out", str(tmp_path / "o")]


@pytest.mark.parametrize("kind", ("directory", "non-UTF-8"))
@pytest.mark.parametrize("case,code", [("config", 2), ("policy", 4),
                                       ("convergence", 4), ("report", 3)])
def test_cli_exits_with_the_readers_code(tmp_path, capsys, case, code, kind):
    path = _bad_path(tmp_path, kind)
    assert main(_cli_argv(tmp_path, case, path)) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and path in err
    assert not (tmp_path / "o").exists()


def test_a_report_that_is_not_json_is_named(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("{nope")
    assert main(["compare", str(path), str(path)]) == 3
    assert f"report {path} is not valid JSON" in capsys.readouterr().err
