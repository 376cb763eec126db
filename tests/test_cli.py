"""Tests for the command-line interface (repro.cli)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def test_import_leaves_networkx_unloaded():
    """networkx is a test-side graph oracle; CLI start-up must not pay for it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, repro.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_machine_overrides(self):
        args = build_parser().parse_args(
            ["timeline", "--L", "20", "--o", "3", "--g", "7", "--G", "0.1", "--procs", "4"]
        )
        assert args.L == 20.0 and args.procs == 4


class TestTimeline:
    def test_sample_standard(self, capsys):
        assert main(["timeline", "--pattern", "sample"]) == 0
        out = capsys.readouterr().out
        assert "completion:" in out
        assert "P0" in out

    def test_worstcase_slower_than_standard(self, capsys):
        main(["timeline", "--algorithm", "standard"])
        std = capsys.readouterr().out
        main(["timeline", "--algorithm", "worstcase"])
        wc = capsys.readouterr().out
        get = lambda s: float(s.rsplit("completion:", 1)[1].split("us")[0])
        assert get(wc) > get(std)

    def test_ring_pattern(self, capsys):
        assert main(["timeline", "--pattern", "ring", "--procs", "4", "--size", "100"]) == 0
        assert "completion:" in capsys.readouterr().out


class TestPredict:
    def test_predict_without_measured(self, capsys):
        assert main(["predict", "-n", "120", "-b", "24", "--no-measured"]) == 0
        out = capsys.readouterr().out
        assert "simulated_standard" in out
        assert "measured_with_caching" not in out

    def test_predict_with_measured(self, capsys):
        assert main(["predict", "-n", "120", "-b", "24"]) == 0
        assert "measured_with_caching" in capsys.readouterr().out

    def test_indivisible_block_is_reported_cleanly(self, capsys):
        assert main(["predict", "-n", "100", "-b", "7", "--no-measured"]) == 2
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_sweep_prints_figure(self, capsys):
        code = main(
            ["sweep", "-n", "120", "--blocks", "12", "24", "40",
             "--layout", "diagonal", "--no-measured"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted optimal block size" in out
        assert "diagonal mapping" in out

    def test_sweep_bad_blocks(self, capsys):
        assert main(["sweep", "-n", "100", "--blocks", "7"]) == 2
        assert "do not divide" in capsys.readouterr().err


class TestOps:
    def test_calibrated_table(self, capsys):
        assert main(["ops", "-b", "10", "40", "--source", "calibrated"]) == 0
        out = capsys.readouterr().out
        assert "op1" in out and "op4" in out

    def test_measured_table(self, capsys):
        assert main(["ops", "-b", "8", "--source", "measured", "--repeats", "1"]) == 0
        assert "host-measured" in capsys.readouterr().out


class TestTrace:
    def test_trace_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        assert main(["trace", "-n", "96", "-b", "24", "-o", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["kind"] == "program_trace"
        assert "wrote" in capsys.readouterr().out

    def test_trace_round_trips_through_loader(self, tmp_path):
        from repro.trace import load_trace

        out_file = tmp_path / "t.json"
        main(["trace", "-n", "96", "-b", "24", "-o", str(out_file)])
        trace = load_trace(out_file)
        assert trace.meta["app"] == "gauss"
        assert trace.total_ops() > 0
