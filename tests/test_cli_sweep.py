"""CLI tests for the parallel ``repro sweep`` verb.

Covers the sweep-engine flags (``--workers``, ``--store``, ``--resume``,
``--chunk-size``, ``--progress``) and the two satellite guarantees:
``--resume`` re-dispatches only the missing points of a partial run, and
``--workers 1`` vs ``--workers N`` produce identical results and
manifests modulo timing fields.
"""

import json

import pytest

from repro.cli import main

BASE = ["sweep", "-n", "120", "--blocks", "24", "40",
        "--layout", "diagonal", "--no-measured", "--seed", "0"]

#: manifest keys that legitimately differ between runs of the same sweep
VOLATILE_KEYS = {"argv", "started_unix", "wall_s", "events_per_sec", "host",
                 "resource"}
#: extra keys that describe execution, not results
VOLATILE_EXTRA = {"sweep"}


def manifest_core(path):
    """A manifest reduced to its semantic payload (drops timing/exec)."""
    doc = json.loads(path.read_text())
    core = {k: v for k, v in doc.items() if k not in VOLATILE_KEYS}
    core["extra"] = {
        k: v for k, v in core.get("extra", {}).items() if k not in VOLATILE_EXTRA
    }
    return core


def run_json(argv, capsys):
    assert main([*argv, "--json", "--no-manifest"]) == 0
    return json.loads(capsys.readouterr().out)


class TestWorkersFlag:
    def test_workers_parallel_output_equals_serial(self, capsys):
        serial = run_json([*BASE, "--workers", "1"], capsys)
        parallel = run_json([*BASE, "--workers", "2"], capsys)
        assert parallel == serial

    def test_manifests_identical_modulo_timing(self, tmp_path, capsys):
        m1, m2 = tmp_path / "w1.json", tmp_path / "w2.json"
        assert main([*BASE, "--workers", "1", "--manifest-out", str(m1)]) == 0
        assert main([*BASE, "--workers", "2", "--manifest-out", str(m2)]) == 0
        capsys.readouterr()
        core1, core2 = manifest_core(m1), manifest_core(m2)
        assert core1 == core2
        assert core1["extra"]["results_sha256"] == core2["extra"]["results_sha256"]

    def test_manifest_records_sweep_stats(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        assert main([*BASE, "--workers", "2", "--manifest-out", str(m)]) == 0
        capsys.readouterr()
        doc = json.loads(m.read_text())
        stats = doc["extra"]["sweep"]
        assert stats["total"] == 2
        assert stats["computed"] == 2
        assert stats["cached"] == 0
        assert stats["workers"] == 2


class TestStoreAndResume:
    def test_resume_requires_store(self, capsys):
        assert main([*BASE, "--resume", "--no-manifest"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_resume_redispatches_only_missing_points(self, tmp_path, capsys):
        store = tmp_path / "store"
        # partial run: one block only
        partial = ["sweep", "-n", "120", "--blocks", "24", "--layout", "diagonal",
                   "--no-measured", "--store", str(store), "--no-manifest"]
        assert main(partial) == 0
        capsys.readouterr()
        # full run with --resume: only the missing b=40 point is computed
        m = tmp_path / "resume.json"
        assert main([*BASE, "--store", str(store), "--resume",
                     "--manifest-out", str(m)]) == 0
        capsys.readouterr()
        stats = json.loads(m.read_text())["extra"]["sweep"]
        assert stats == {**stats, "total": 2, "cached": 1, "computed": 1}

    def test_resumed_results_equal_cold_results(self, tmp_path, capsys):
        store = tmp_path / "store"
        cold = run_json([*BASE, "--workers", "1"], capsys)
        assert main(["sweep", "-n", "120", "--blocks", "40", "--layout", "diagonal",
                     "--no-measured", "--store", str(store), "--no-manifest"]) == 0
        capsys.readouterr()
        resumed = run_json(
            [*BASE, "--workers", "2", "--store", str(store), "--resume"], capsys
        )
        assert resumed == cold

    def test_store_without_resume_recomputes(self, tmp_path, capsys):
        store = tmp_path / "store"
        m = tmp_path / "m.json"

        def sweep(*extra):
            assert main([*BASE, "--store", str(store), *extra,
                         "--manifest-out", str(m)]) == 0
            return json.loads(m.read_text())["extra"]

        fresh = sweep()["results_sha256"]
        # a readable entry holding a wrong value: --resume serves it ...
        entry = sorted(store.glob("*.json"))[0]
        doc = json.loads(entry.read_text())
        doc["pred_standard_total"] = -1.0
        entry.write_text(json.dumps(doc))
        assert sweep("--resume")["results_sha256"] != fresh
        # ... and a run without --resume recomputes it and rewrites it
        extra = sweep()
        capsys.readouterr()
        assert extra["sweep"]["cached"] == 0
        assert extra["results_sha256"] == fresh
        assert json.loads(entry.read_text())["pred_standard_total"] != -1.0


class TestProgressAndChunking:
    def test_progress_lines_on_stderr(self, capsys):
        assert main([*BASE, "--workers", "2", "--chunk-size", "1",
                     "--progress", "--no-manifest"]) == 0
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if ln.startswith("sweep [")]
        assert len(lines) == 2
        assert "sweep [2/2]" in lines[-1]

    def test_no_progress_by_default(self, capsys):
        assert main([*BASE, "--no-manifest"]) == 0
        assert "sweep [" not in capsys.readouterr().err

    def test_figure_output_unchanged_by_engine_flags(self, capsys):
        assert main([*BASE, "--no-manifest"]) == 0
        plain = capsys.readouterr().out
        assert main([*BASE, "--workers", "2", "--chunk-size", "1",
                     "--no-manifest"]) == 0
        assert capsys.readouterr().out == plain


class TestExecutorFlag:
    def test_executor_outputs_equal_legacy_serial(self, capsys):
        legacy = run_json([*BASE, "--workers", "1"], capsys)
        for workers in ("2", "auto"):
            got = run_json([*BASE, "--workers", workers], capsys)
            assert got == legacy, workers

    def test_workers_default_is_auto(self, tmp_path, capsys):
        # no --workers: the auto rule decides, and the manifest records
        # both the strategy and the full decision rationale
        m = tmp_path / "auto.json"
        assert main([*BASE, "--manifest-out", str(m)]) == 0
        capsys.readouterr()
        stats = json.loads(m.read_text())["extra"]["sweep"]
        assert stats["executor"] in ("serial", "process")
        decision = stats["decision"]
        assert decision["requested"] == "auto"
        assert decision["executor"] == stats["executor"]
        assert decision["reason"]
        assert decision["cpu_count"] >= 1
        assert "est_total_s" not in decision
        assert "spawn_overhead_s" not in decision

    def test_workers_auto_equals_default(self, capsys):
        assert run_json([*BASE, "--workers", "auto"], capsys) == run_json(
            BASE, capsys
        )

    def test_forced_executor_recorded_in_manifest(self, tmp_path, capsys):
        m = tmp_path / "forced.json"
        assert main([*BASE, "--workers", "2", "--manifest-out", str(m)]) == 0
        capsys.readouterr()
        stats = json.loads(m.read_text())["extra"]["sweep"]
        assert stats["executor"] == "process"
        assert stats["workers"] == 2
        assert stats["decision"]["requested"] == 2
        assert stats["decision"]["reason"] == "forced by caller"

    def test_bad_workers_value_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*BASE, "--workers", "many", "--no-manifest"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["-1", "0"])
    def test_bad_chunk_size_rejected(self, capsys, size):
        # rejected before dispatch: a process pool fed no chunks used to
        # end in "sweep lost results" with a traceback
        code = main([*BASE, "--workers", "2", "--chunk-size", size,
                     "--no-manifest"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: chunk_size must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["sweep", "uq"])
    def test_zero_workers_rejected(self, capsys, verb):
        # 0 names no strategy: rejected before dispatch, not run serial
        code = main([verb, *BASE[1:], "--workers", "0", "--no-manifest"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: workers must be >= 1 or 'auto', got 0" in err
        assert "Traceback" not in err

    def test_bad_executor_value_rejected(self, capsys):
        # --workers is the one execution knob: the old --executor flag
        # exits 2 instead of being silently ignored
        for value in ("serial", "process", "auto"):
            with pytest.raises(SystemExit) as exc:
                main([*BASE, "--executor", value, "--no-manifest"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
