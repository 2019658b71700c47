import json
import re
from pathlib import Path

import pytest

from wavekit import cli, eigen
from wavekit.cli import emit_report, load_config, main, run_config
from wavekit.errors import InputError

README = Path(__file__).resolve().parents[1] / "README.md"

MODE = {"kt": 0, "kx": [0], "cos": 1.0, "sin": 0.0}


def scalar_config(tasks, l_amp=1.0, extra_params=None):
    cfg = {
        "system": {
            "N": 1, "n": 1,
            "fields": {
                "A": [[[[MODE]]]],
                "q": [[[]]],
                "L": [[[{"kt": 0, "kx": [0], "cos": l_amp, "sin": 0.0}]]],
                "B": [[[MODE]]],
            },
        },
        "tasks": tasks,
        "params": {"e": [1]},
        "seed": 0,
    }
    if extra_params:
        cfg["params"].update(extra_params)
    return cfg


def write_config(tmp_path, cfg, name="job.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestConfigParsing:
    def test_prerequisites_auto_inserted(self, tmp_path):
        p = write_config(tmp_path, scalar_config(["dispersion"]))
        cfg = load_config(p)
        assert cfg.tasks == ["validate", "eigen", "dispersion"]

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ nope }")
        with pytest.raises(InputError, match="line"):
            load_config(p)

    def test_unknown_task_rejected(self, tmp_path):
        p = write_config(tmp_path, scalar_config(["fly"]))
        with pytest.raises(InputError):
            load_config(p)

    def test_wave_requires_speed(self, tmp_path):
        p = write_config(tmp_path, scalar_config(["wave"]))
        with pytest.raises(InputError, match="params.c"):
            load_config(p)

    def test_unparsable_speed_rejected(self, tmp_path):
        p = write_config(tmp_path, scalar_config(["dispersion"], extra_params={"c": "fast"}))
        with pytest.raises(InputError, match="params.c"):
            load_config(p)
        assert run_config(p, out=tmp_path / "out") == 2

    def test_validate_subcommand_exit_codes(self, tmp_path):
        p = write_config(tmp_path, scalar_config(["validate"]))
        assert main(["validate", str(p)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["validate", str(bad)]) == 2


class TestRunConfig:
    def test_dispersion_summary_has_c_star(self, tmp_path):
        p = write_config(tmp_path, scalar_config(["dispersion"]))
        out = tmp_path / "out"
        assert run_config(p, out=out) == 0
        doc = json.loads((out / "dispersion.json").read_text())
        assert abs(doc["c_star"] - 2.0) < 1e-3
        assert abs(doc["mu_star"] - 1.0) < 1e-3
        assert (out / "dispersion_curve.svg").exists()
        assert (out / "report.json").exists()

    def test_empty_tasks_exit_zero_no_artifacts(self, tmp_path):
        p = write_config(tmp_path, scalar_config([]))
        out = tmp_path / "out_empty"
        assert run_config(p, out=out) == 0
        assert not list(out.glob("*.json"))

    def test_extinct_wave_exits_three(self, tmp_path):
        cfg = scalar_config(["wave"], l_amp=-1.0,
                            extra_params={"c": 2.0, "wave": {"a": 8.0, "n_z": 401}})
        p = write_config(tmp_path, cfg)
        out = tmp_path / "out_extinct"
        assert run_config(p, out=out) == 3
        doc = json.loads((out / "wave.json").read_text())
        assert doc["status"] == "failed"
        assert "extinct" in doc["error"]

    def test_missing_config_exit_two(self, tmp_path):
        assert run_config(tmp_path / "nope.json") == 2

    def test_wave_task_supercritical(self, tmp_path):
        cfg = scalar_config(
            ["wave"],
            extra_params={"c": 2.5, "wave": {"a": 16.0, "n_z": 801, "tol": 1e-7}},
        )
        p = write_config(tmp_path, cfg)
        out = tmp_path / "out_wave"
        assert run_config(p, out=out) == 0
        doc = json.loads((out / "wave.json").read_text())
        assert doc["pipeline"] == "supercritical"
        assert doc["diagnostics"]["trapping_violation"] < 1e-6
        assert doc["verification"]["decay_pass"]
        assert (out / "wave_profile.csv").exists()
        assert (out / "wave_profile.svg").exists()

    def test_wave_task_critical_routes(self, tmp_path):
        cfg = scalar_config(
            ["wave"],
            extra_params={"c": 2.0, "wave": {"a": 16.0, "n_z": 801, "tol": 1e-7}},
        )
        p = write_config(tmp_path, cfg)
        out = tmp_path / "out_crit"
        assert run_config(p, out=out) == 0
        doc = json.loads((out / "wave.json").read_text())
        assert doc["pipeline"] == "critical"
        assert doc["diagnostics"]["trapping_violation"] < 1e-5

    def test_probe_task(self, tmp_path):
        cfg = scalar_config(["probe"], extra_params={
            "probe": {"t_final": 20.0, "X": 60.0, "n_x": 1024},
        })
        p = write_config(tmp_path, cfg)
        out = tmp_path / "out_probe"
        assert run_config(p, out=out) == 0
        doc = json.loads((out / "probe.json").read_text())
        assert doc["probe_status"] in ("no_wave_signature", "inconclusive")
        assert doc["c"] == pytest.approx(doc["c_star"] / 2, rel=1e-6)

    def test_probe_rational_speed(self, tmp_path):
        cfg = scalar_config(["probe"], extra_params={
            "probe": {"c": "1/2", "t_final": 20.0, "X": 60.0, "n_x": 1024},
        })
        out = tmp_path / "out_probe"
        assert run_config(write_config(tmp_path, cfg), out=out) == 0
        doc = json.loads((out / "probe.json").read_text())
        assert doc["status"] == "ok"
        assert doc["c"] == 0.5

    def test_probe_unparsable_speed_exits_two(self, tmp_path):
        cfg = scalar_config(["probe"], extra_params={"probe": {"c": "abc"}})
        p = write_config(tmp_path, cfg)
        with pytest.raises(InputError, match="params.probe.c"):
            load_config(p)
        assert run_config(p, out=tmp_path / "out") == 2

    def test_critical_wave_needs_space_homogeneous_coefficients(self, tmp_path):
        # the cell_periodic benchmark system: l(z) = 1 + 0.5 cos(2 pi z)
        cfg = scalar_config(["dispersion"])
        cfg["system"]["fields"]["L"] = [[[
            {"kt": 0, "kx": [0], "cos": 1.0, "sin": 0.0},
            {"kt": 0, "kx": [1], "cos": 0.5, "sin": 0.0},
        ]]]
        out = tmp_path / "out_disp"
        assert run_config(write_config(tmp_path, cfg), out=out) == 0
        c_star = json.loads((out / "dispersion.json").read_text())["c_star"]
        cfg["tasks"] = ["wave"]
        cfg["params"].update({"c": c_star, "wave": {"a": 20.0, "n_t": 64}})
        out = tmp_path / "out_wave"
        assert run_config(write_config(tmp_path, cfg, "wave.json"), out=out) == 3
        doc = json.loads((out / "wave.json").read_text())
        assert doc["status"] == "failed"
        assert doc["error_type"] == "InputError"
        assert "critical waves are built only for space-homogeneous" in doc["error"]
        assert "traceback" not in doc

    def test_dispersion_and_simulate_run(self, tmp_path):
        cfg = scalar_config(["dispersion", "simulate"], extra_params={
            "simulate": {"X": 40.0, "n_x": 512, "t_final": 8.0},
        })
        p = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(p, out=out) == 0
        assert json.loads((out / "simulate.json").read_text())["status"] == "ok"
        assert json.loads((out / "dispersion.json").read_text())["status"] == "ok"
        import numpy as np
        track = np.loadtxt(out / "front_track.csv", delimiter=",", skiprows=1)
        assert track.shape[1] == 3
        snap = np.loadtxt(out / "snapshot_0.csv", delimiter=",", skiprows=1)
        assert snap.shape[1] == 3

    def test_readme_example_config(self, tmp_path):
        # the JSON block of README.md exactly as written ("c": "5/2" included)
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
        assert len(blocks) == 1
        p = tmp_path / "job.json"
        p.write_text(blocks[0])
        out = tmp_path / "out"
        assert run_config(p, out=out) == 0
        assert (out / "report.json").exists()
        wave = json.loads((out / "wave.json").read_text())
        assert wave["status"] == "ok"
        assert wave["c"] == 2.5
        assert wave["pipeline"] == "supercritical"
        disp = json.loads((out / "dispersion.json").read_text())
        assert disp["c_star"] == pytest.approx(2.0, abs=1e-8)
        assert disp["roots"]["mu_wedge"] == pytest.approx(0.5, abs=1e-7)

    def test_unexpected_error_exits_three_with_traceback(self, tmp_path, monkeypatch):
        def broken(ctx, outdir):
            raise ValueError("boom")

        monkeypatch.setitem(cli._RUNNERS, "dispersion", broken)
        p = write_config(tmp_path, scalar_config(["dispersion"]))
        out = tmp_path / "out"
        assert run_config(p, out=out) == 3
        doc = json.loads((out / "dispersion.json").read_text())
        assert doc["status"] == "failed"
        assert doc["error_type"] == "ValueError"
        assert "ValueError: boom" in doc["traceback"]
        assert json.loads((out / "eigen.json").read_text())["status"] == "ok"
        assert (out / "report.json").exists()

    def test_each_eigenpair_solved_once(self, tmp_path, monkeypatch):
        solved = []
        persistence_calls = []
        solve = eigen.principal_eigenvalue
        check = cli.persistence_check

        def counting_solve(op, *args, **kwargs):
            frame = op.fsys.frame
            solved.append((frame.mode, tuple(frame.e_floats()), frame.c_float(),
                           op.grid, op.mu, kwargs.get("normalization", "max-one")))
            return solve(op, *args, **kwargs)

        def counting_check(*args, **kwargs):
            persistence_calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(eigen, "principal_eigenvalue", counting_solve)
        monkeypatch.setattr(cli, "persistence_check", counting_check)
        cfg = scalar_config(["dispersion", "wave"], extra_params={
            "c": 2.5, "wave": {"a": 16.0, "n_z": 401, "tol": 1e-7},
        })
        p = write_config(tmp_path, cfg)
        assert run_config(p, out=tmp_path / "out") == 0
        assert len(persistence_calls) == 1
        assert solved
        assert len(set(solved)) == len(solved)

    def test_bit_reproducible_artifacts(self, tmp_path):
        cfg = scalar_config(["simulate"], extra_params={
            "simulate": {"X": 40.0, "n_x": 512, "t_final": 8.0},
        })
        p = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_config(p, out=out1) == 0
        assert run_config(p, out=out2) == 0
        names = sorted(f.name for f in out1.iterdir())
        assert names == sorted(f.name for f in out2.iterdir())
        for name in names:
            if name == "report.json":
                d1 = json.loads((out1 / name).read_text())
                d2 = json.loads((out2 / name).read_text())
                d1.pop("wall_times_s"), d2.pop("wall_times_s")
                assert d1 == d2
            else:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestEmitReport:
    def test_single_section(self, tmp_path):
        (tmp_path / "validate.json").write_text(json.dumps({"task": "validate", "status": "ok"}))
        report = emit_report(tmp_path)
        assert list(report["sections"]) == ["validate"]
        assert (tmp_path / "index.svg").exists()

    def test_duplicate_latest_mtime_wins(self, tmp_path):
        import os
        import time

        a = tmp_path / "validate.json"
        b = tmp_path / "validate_2.json"
        a.write_text(json.dumps({"task": "validate", "status": "ok", "v": 1}))
        b.write_text(json.dumps({"task": "validate", "status": "ok", "v": 2}))
        now = time.time()
        os.utime(a, (now - 100, now - 100))
        os.utime(b, (now, now))
        report = emit_report(tmp_path)
        assert report["sections"]["validate"]["v"] == 2
        assert any("duplicate" in w for w in report["warnings"])

    def test_cross_reference_speed_ratio(self, tmp_path):
        (tmp_path / "dispersion.json").write_text(json.dumps(
            {"task": "dispersion", "status": "ok", "c_star": 2.0}))
        (tmp_path / "simulate.json").write_text(json.dumps(
            {"task": "simulate", "status": "ok", "speed_left": 1.9, "speed_right": 1.95}))
        report = emit_report(tmp_path)
        assert report["speed_cross_check"]["ratio"] == pytest.approx(0.975)

    def test_no_artifacts_raises(self, tmp_path):
        with pytest.raises(InputError):
            emit_report(tmp_path)
