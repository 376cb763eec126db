"""The ``repro serve`` CLI verb (``--check`` self-test mode).

The long-running server loop itself is exercised hermetically in
``tests/test_serve_server.py`` (same handler class, in-memory streams);
here the CLI wiring is pinned: flag parsing, the self-test exit code,
machine-readable output, and the run manifest.
"""

import json

import pytest

from repro.cli import build_parser, main


class TestServeCheck:
    def test_check_exits_zero(self, capsys):
        assert main(["serve", "--check", "--no-manifest"]) == 0
        out = capsys.readouterr().out
        assert "serve self-test: ok" in out
        assert "computed -> memory" in out

    def test_check_json_document(self, capsys):
        assert main(["serve", "--check", "--json", "--no-manifest"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok"
        assert doc["tiers"] == ["computed", "memory"]
        stats = doc["stats"]
        assert stats["requests"] == {"total": 2, "ok": 2, "error": 0}
        assert stats["tiers"]["computed"] == 1
        assert stats["tiers"]["memory"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["batches"]["count"] == 1

    def test_check_with_store_and_serve_manifests(self, tmp_path, capsys):
        store = tmp_path / "store"
        serve_runs = tmp_path / "serve-runs"
        assert main([
            "serve", "--check", "--json", "--no-manifest",
            "--store", str(store), "--serve-manifests", str(serve_runs),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["store_dir"] == str(store)
        # one store entry, one batch manifest, two request manifests
        assert len(list(store.glob("ge_*.json"))) == 1
        assert len(list(serve_runs.glob("serve-batch-*.json"))) == 1
        assert len(list(serve_runs.glob("serve-req-*.json"))) == 2

    def test_check_writes_run_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "serve.json"
        assert main([
            "serve", "--check", "--manifest-out", str(manifest),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(manifest.read_text())
        assert doc["command"] == "serve"
        assert doc["engine"] == "serve"
        assert doc["workload"]["check"] is True
        assert doc["extra"]["serve"]["requests"]["ok"] == 2
        assert doc["extra"]["digest"]


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.cache_size == 4096
        assert args.batch_window_ms == pytest.approx(10.0)
        assert args.batch_max == 64
        assert args.check is False

    def test_machine_flags_reach_the_service_defaults(self, capsys):
        # a custom -P flows into the self-test request's fingerprint
        assert main([
            "serve", "--check", "--json", "--no-manifest", "-P", "4",
        ]) == 0
        small = json.loads(capsys.readouterr().out)["digest"]
        assert main(["serve", "--check", "--json", "--no-manifest"]) == 0
        default = json.loads(capsys.readouterr().out)["digest"]
        assert small != default

    def test_workers_flag_rejects_garbage(self, capsys):
        # ``serve`` has no --workers; the parser still serves sweep and uq
        for verb in ("sweep", "uq"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb, "--workers", "many"])
            assert "workers must be an integer" in capsys.readouterr().err

    def test_workers_flag_is_rejected(self, capsys):
        # misses are evaluated in the server process: no pool to size
        for flag in (["--workers", "2"], ["--executor", "serial"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", *flag])
            assert "unrecognized arguments" in capsys.readouterr().err
