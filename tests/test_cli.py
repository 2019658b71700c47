import json
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from wavekit import cli, eigen, pde_core
from wavekit.cli import emit_report, load_config, main, run_config
from wavekit.errors import InputError
from wavekit.pde_core import GridField

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


def cell_config(tasks, extra_params=None, l_modes=()):
    """The cell system: L = 1 + 0.5 cos(2 pi x), plus l_modes."""
    cfg = scalar_config(tasks, extra_params=extra_params)
    cfg["system"]["fields"]["L"] = [[[MODE, {"kt": 0, "kx": [1], "cos": 0.5, "sin": 0.0},
                                      *l_modes]]]
    return cfg


def advection_config(tasks, e, extra_params=None):
    """A = q = L = B = 1: c*(e) = 1 along e = [1] and 3 along e = [-1]."""
    cfg = scalar_config(tasks, extra_params={"e": e, **(extra_params or {})})
    cfg["system"]["fields"]["q"] = [[[MODE]]]
    return cfg


def tper_config(tasks, extra_params=None):
    """The 2x2 system with L12 = 1 + sin(2 pi t), L21 = 1 and B = 1 everywhere."""
    cfg = scalar_config(tasks, extra_params=extra_params)
    cfg["system"] = {
        "N": 2, "n": 1,
        "fields": {
            "A": [[[[MODE]]], [[[MODE]]]],
            "q": [[[]], [[]]],
            "L": [[[], [MODE, {"kt": 1, "kx": [0], "cos": 0.0, "sin": 1.0}]], [[MODE], []]],
            "B": [[[MODE], [MODE]], [[MODE], [MODE]]],
        },
    }
    return cfg


def assert_config_error(tmp_path, capsys, cfg, text):
    """validate and run both exit 2 with text in the error; no task JSON."""
    p = write_config(tmp_path, cfg)
    assert main(["validate", str(p)]) == 2
    assert run_config(p, out=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 2 and text in err, err
    assert not list(tmp_path.glob("out/*.json"))


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

    @pytest.mark.parametrize("params", [
        {"e": [0]},
        {"frame": {"e": [1], "c": "abc"}},
        {"mu_list": "abc"},
        {"wave": {"a": "x"}},
        {"wave": [1]},
        {"probe": [1]},
        {"simulate": "x"},
        {"simulate": {"initial": {"kind": "front", "e": 0}}},
        {"probe": {"e": 0.5}},
        {"e": [1, 0]},
        {"frame": {"e": [1]}},
        {"frame": {"e": [1], "c": 2.5}},
        {"frame": {"e": [0.5], "c": 3}},
        {"frame": {"e": [1, 0], "c": 3}},
        {"wave": {"a_schedule": [20, 30], "dz": 0.05, "window": 50}},
        {"mu_list": [1, 1]},
        {"wave": {"a_schedule": [20, 20]}},
    ])
    def test_malformed_params_exit_two(self, tmp_path, capsys, params):
        cfg = scalar_config(["wave", "simulate", "probe"], extra_params={"c": 2.5, **params})
        p = write_config(tmp_path, cfg)
        assert main(["validate", str(p)]) == 2
        assert run_config(p, out=tmp_path / "out") == 2
        assert capsys.readouterr().err.count("config error:") == 2
        assert not list(tmp_path.glob("out/*.json"))

    @pytest.mark.parametrize("task", ["simulate", "probe"])
    def test_simulate_and_probe_need_one_dimension(self, tmp_path, capsys, task):
        # the Cauchy layer is one-dimensional; probe ran eigen and dispersion first
        mode = {"kt": 0, "kx": [0, 0], "cos": 1.0, "sin": 0.0}
        cfg = {
            "system": {"N": 1, "n": 2, "fields": {
                "A": [[[[mode], []], [[], [mode]]]],
                "q": [[[], []]],
                "L": [[[mode, {"kt": 0, "kx": [1, 0], "cos": 0.5, "sin": 0.0}]]],
                "B": [[[mode]]],
            }},
            "tasks": [task],
            "params": {"e": [1, 0]},
        }
        p = write_config(tmp_path, cfg)
        assert main(["validate", str(p)]) == 2
        assert run_config(p, out=tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 2 and "n = 1" in err
        assert not list(tmp_path.glob("out/*.json"))

    @pytest.mark.parametrize("params", [{"e": [1.5]}, {"e": [-0.5]}])
    def test_fractional_direction_exit_two(self, tmp_path, capsys, params):
        # x-dependent coefficients need an integer direction; 1.0 is one
        cfg = scalar_config(["validate"], extra_params=params)
        cfg["system"]["fields"]["L"] = [[[MODE, {"kt": 0, "kx": [1], "cos": 0.5, "sin": 0.0}]]]
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 2
        assert "must be integers" in capsys.readouterr().err
        assert not list(tmp_path.glob("out/*.json"))
        cfg["params"] = {"e": [1.0]}
        assert load_config(write_config(tmp_path, cfg)).param("e") == [1.0]

    def test_n_z_with_a_schedule_exit_two(self, tmp_path, capsys):
        # n_z fixes the node count, so each half-length would get its own dz
        cfg = scalar_config(["wave"], extra_params={
            "c": 2.5, "wave": {"a_schedule": [8.0, 16.0], "n_z": 401},
        })
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 2
        assert "wave.dz" in capsys.readouterr().err
        assert not list(tmp_path.glob("out/*.json"))

    def test_a_with_a_schedule_exit_two(self, tmp_path, capsys):
        # a_schedule gives every half-length, so wave.a would be ignored
        cfg = scalar_config(["wave"], extra_params={
            "c": 2.5, "wave": {"a": 1000.0, "a_schedule": [8.0, 16.0], "dz": 0.05},
        })
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "wave.a" in err
        assert not list(tmp_path.glob("out/*.json"))

    def test_transverse_dependence_exit_two(self, tmp_path, capsys):
        # L = 1 + 0.5 cos(2 pi x_1) varies across e = (0, 1): no 1-D reduction
        mode = {"kt": 0, "kx": [0, 0], "cos": 1.0, "sin": 0.0}
        cfg = {
            "system": {"N": 1, "n": 2, "fields": {
                "A": [[[[mode], []], [[], [mode]]]],
                "q": [[[], []]],
                "L": [[[mode, {"kt": 0, "kx": [1, 0], "cos": 0.5, "sin": 0.0}]]],
                "B": [[[mode]]],
            }},
            "tasks": ["wave"],
            "params": {"e": [0, 1], "c": 3},
        }
        p = write_config(tmp_path, cfg)
        assert main(["validate", str(p)]) == 2
        assert run_config(p, out=tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 2 and "transverse" in err
        assert not list(tmp_path.glob("out/*.json"))

    def test_y_dependent_mixed_diffusion_exit_two(self, tmp_path, capsys):
        # A_12 = 0.5 cos(2 pi x_1) is A'_yz along e = (0, 1): a planar profile
        # reads it through d_y(A'_yz d_z u), so there is no 1-D reduction
        mode = {"kt": 0, "kx": [0, 0], "cos": 1.0, "sin": 0.0}
        a12 = [{"kt": 0, "kx": [1, 0], "cos": 0.5, "sin": 0.0}]
        cfg = {
            "system": {"N": 1, "n": 2, "fields": {
                "A": [[[[mode], a12], [a12, [mode]]]],
                "q": [[[], []]],
                "L": [[[mode]]],
                "B": [[[mode]]],
            }},
            "tasks": ["dispersion"],
            "params": {"e": [0, 1]},
        }
        assert_config_error(tmp_path, capsys, cfg, "transverse")

    def test_points_per_cell_without_cell_exit_two(self, tmp_path, capsys):
        # a space-homogeneous frame has no z-cell: its cylinder takes n_z or dz
        cfg = scalar_config(["wave"], extra_params={
            "c": 2.5, "wave": {"a": 16.0, "points_per_cell": 8}})
        assert_config_error(tmp_path, capsys, cfg, "points_per_cell")

    @pytest.mark.parametrize("case", ["root_key", "out_type", "out_is_file"])
    def test_config_root_and_out_exit_two(self, tmp_path, capsys, case):
        # the root keys are system, tasks, params, out and seed (accepted, unused),
        # and out names a directory that run can create
        cfg = scalar_config(["dispersion"])
        out = tmp_path / "out"
        if case == "root_key":
            cfg["task"] = cfg.pop("tasks")
        elif case == "out_type":
            cfg["out"] = 5
        else:
            out = tmp_path / "taken"
            out.write_text("")
        p = write_config(tmp_path, cfg)
        assert main(["validate", str(p)]) == (0 if case == "out_is_file" else 2)
        assert main(["run", str(p), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert list(tmp_path.glob("**/*.json")) == [p]

    def test_wave_n_z_on_cell_periodic_system_exit_two(self, tmp_path, capsys):
        # the cylinder of an x-dependent system takes points_per_cell
        cfg = cell_config(["wave"], {"c": "3", "wave": {"a": 20.0, "n_z": 401}})
        assert_config_error(tmp_path, capsys, cfg, "points_per_cell")

    def test_wave_dz_on_cell_periodic_system_exit_two(self, tmp_path, capsys):
        # the cell fixes dz = L_z / points_per_cell: a dz would be ignored
        cfg = cell_config(["wave"], {"c": "3", "wave": {"a": 20.0, "dz": 0.5}})
        assert_config_error(tmp_path, capsys, cfg, "points_per_cell")

    def test_float_speed_on_cell_periodic_system_exit_two(self, tmp_path, capsys):
        # the rational frame of x-dependent coefficients needs an exact speed
        cfg = cell_config(["wave"], {"c": 3.5, "wave": {"a": 20.0, "points_per_cell": 32}})
        assert_config_error(tmp_path, capsys, cfg, "exact rational")

    def test_wave_n_t_below_frame_frequency_exit_two(self, tmp_path, capsys):
        # at c = 9/2 a cos(4 pi x) mode has time frequency 18 in the frame
        cfg = cell_config(["wave"], {"c": "9/2", "wave": {"a": 20.0, "n_t": 16}},
                          l_modes=[{"kt": 0, "kx": [2], "cos": 0.1, "sin": 0.0}])
        assert_config_error(tmp_path, capsys, cfg, "n_t >= 4 k_t")

    @pytest.mark.parametrize("params, key", [
        ({"wave": {"nz": 100}}, "params.wave.nz"),
        ({"frame": {"e": [1], "c": 3}}, "params.frame"),
        ({"probe": {"e": -1}}, "params.probe.e"),
        ({"simulate": {"initial": {"kind": "front", "e": -1}}}, "params.simulate.initial.e"),
        ({"tol": "abc"}, "params.tol"),
        ({"tol": -1}, "params.tol"),
        ({"sampling_factor": "x"}, "params.sampling_factor"),
    ])
    def test_unknown_param_key_exit_two(self, tmp_path, capsys, params, key):
        # e and c are the run's only direction and speed; a typo is no default
        cfg = scalar_config(["wave", "simulate", "probe"], extra_params={"c": 2.5, **params})
        assert_config_error(tmp_path, capsys, cfg, f"config.{key} is not a known key")

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

    def test_dispersion_summary_counts_its_solves(self, tmp_path):
        # the evaluator's own count of the eigen solves each search made: mu = 0
        # is persistence's, and the eigen task's mu_list points are reused
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cell_config(["dispersion"])), out=out) == 0
        doc = json.loads((out / "dispersion.json").read_text())
        assert 1 <= doc["solves"]["c_star"] <= 12 and doc["solves"]["roots"] is None
        assert doc["solves"]["c_star"] < len(doc["curve"])
        assert doc["c_star"] == pytest.approx(2.002871947265092, abs=1e-10)
        out = tmp_path / "roots"
        p = write_config(tmp_path, cell_config(["dispersion"], extra_params={"c": 3}), "roots.json")
        assert run_config(p, out=out) == 0
        doc = json.loads((out / "dispersion.json").read_text())
        assert doc["solves"]["c_star"] <= 12 and 1 <= doc["solves"]["roots"] <= 20

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
        index = (out / "index.svg").read_text()
        assert "wave: failed" in index and "wave: ok" not in index

    def test_report_covers_this_run_only(self, tmp_path):
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, scalar_config(["dispersion"])), out=out) == 0
        assert run_config(write_config(tmp_path, scalar_config(["validate"])), out=out) == 0
        assert (out / "dispersion.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert list(report["sections"]) == ["validate"]

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
        # Newton sweeps on a steady frame: one band LU each
        diag = doc["diagnostics"]
        assert 1 <= diag["newton_steps"] <= diag["iterations"] <= 12
        assert diag["factorizations"] == diag["iterations"]
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
        assert doc["diagnostics"]["newton_steps"] == doc["diagnostics"]["iterations"] <= 12
        assert doc["diagnostics"]["factorizations"] == doc["diagnostics"]["newton_steps"]

    def test_refined_time_periodic_wave_is_not_pinned_to_ubar(self, tmp_path):
        # at dz = 0.1 the discrete profile lies above the discrete ubar by the
        # envelopes' truncation error; cutting Newton iterates back onto ubar
        # pinned it there, with a residual of 5.9e-5 against a tol of 1e-7
        cfg = tper_config(["dispersion", "wave"], extra_params={
            "c": 3, "wave": {"a": 40.0, "n_t": 64, "n_z": 801, "tol": 1e-7},
        })
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 0
        diag = json.loads((out / "wave.json").read_text())["diagnostics"]
        assert diag["pde_residual"] <= 1e-7
        assert diag["trapping_violation"] <= 1e-5

    @pytest.mark.parametrize("n_t", [64, 128, 256])
    def test_time_periodic_wave_residual_does_not_grow_with_n_t(self, tmp_path, n_t):
        # a relaxed period's whole residual sits on slice 0, its wrap mismatch
        # over dt, which grows with n_t unless the final sweeps hold it to tol/10
        cfg = tper_config(["dispersion", "wave"], extra_params={
            "c": 3, "wave": {"a": 40.0, "n_t": n_t, "n_z": 401, "tol": 1e-7},
        })
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 0
        diag = json.loads((out / "wave.json").read_text())["diagnostics"]
        assert diag["pde_residual"] <= 2e-8

    def test_cell_wave_reuses_slice_lus(self, tmp_path):
        # the Newton loop keeps its slice LUs within LU_REUSE: the profile lies
        # within tol of one factored afresh at every sweep, and factorizations
        # counts the LUs computed
        cfg = cell_config(["wave"], {"c": "3", "wave": {"a": 20.0, "n_t": 64,
                                                        "points_per_cell": 32}})
        p = write_config(tmp_path, cfg)
        runs = {}
        for name, bound in (("reuse", pde_core.LU_REUSE), ("fresh", -1.0)):
            with mock.patch.object(pde_core, "LU_REUSE", bound), \
                 mock.patch.object(pde_core, "_band_lu", wraps=pde_core._band_lu) as lu:
                assert run_config(p, out=tmp_path / name) == 0
            diag = json.loads((tmp_path / name / "wave.json").read_text())["diagnostics"]
            assert diag["factorizations"] == lu.call_count
            runs[name] = diag, GridField.from_csv(tmp_path / name / "wave_profile.csv").values
        (reuse, u), (fresh, u_fresh) = runs["reuse"], runs["fresh"]
        assert fresh["factorizations"] == 64 * fresh["newton_steps"]
        assert reuse["factorizations"] < 64 * reuse["newton_steps"]
        assert np.abs(u - u_fresh).max() <= 1e-7

    @pytest.mark.parametrize("ppc", [12, 24, 128])
    def test_points_per_cell_off_the_eigen_cell(self, tmp_path, ppc):
        # none divides the default 64-node eigen cell: the wave's cell has the
        # cylinder's own nodes (two cells of them for 12, a Grid's 16 nodes)
        cfg = cell_config(["wave"], {"c": "3", "wave": {"a": 20.0, "n_t": 64,
                                                        "points_per_cell": ppc}})
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 0
        diag = json.loads((out / "wave.json").read_text())["diagnostics"]
        assert diag["pde_residual"] <= 1e-7 and diag["trapping_violation"] <= 1e-5
        header = (out / "wave_profile.csv").read_text().splitlines()[0]
        assert f"n_z={2 * 20 * ppc + 1} " in header

    def test_reducible_coupling_exits_three(self, tmp_path):
        # l11 = 1 + 0.5 cos 2 pi x, l22 = 0.3, no coupling: the eigensolve
        # converges onto the first component alone and must be refused
        cfg = cell_config(["eigen", "dispersion", "wave"],
                          {"c": "3", "wave": {"a": 20.0, "n_t": 64, "points_per_cell": 32}})
        l11 = cfg["system"]["fields"]["L"][0][0]
        cfg["system"].update(N=2, fields={
            "A": [[[[MODE]]], [[[MODE]]]], "q": [[[]], [[]]],
            "L": [[l11, []], [[], [dict(MODE, cos=0.3)]]],
            "B": [[[MODE], [MODE]], [[MODE], [MODE]]]})
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 3
        doc = json.loads((out / "eigen.json").read_text())
        assert doc["status"] == "failed" and "reducible" in doc["error"]
        for task in ("dispersion", "wave"):
            assert json.loads((out / f"{task}.json").read_text())["status"] == "skipped"

    def test_z_independent_eigenfunction_has_one_z_node(self, tmp_path):
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, tper_config(["eigen"])), out=out) == 0
        lines = (out / "eigenfunction_mu0.csv").read_text().splitlines()
        assert "n_t=256 n_z=1 " in lines[0]
        assert len(lines) == 2 + 2 * 256

    @pytest.mark.parametrize("c, pipeline", [(2.5, "supercritical"), (2.0, "critical")])
    def test_wave_a_schedule(self, tmp_path, c, pipeline):
        wave = {"a_schedule": [8.0, 16.0, 24.0, 32.0, 40.0], "window": 4.0, "dz": 0.05}
        cfg = scalar_config(["wave"], extra_params={"c": c, "wave": wave})
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 0
        doc = json.loads((out / "wave.json").read_text())
        assert doc["status"] == "ok"
        assert doc["pipeline"] == pipeline
        assert doc["diagnostics"]["stabilization_gap"] < 1e-3  # the default gap_tol

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

    def test_probe_direction_defaults_to_sign_of_e(self, tmp_path):
        # e = [2] is a valid direction; the probe runs along its sign, +1
        cfg = scalar_config(["probe"], extra_params={
            "e": [2], "probe": {"t_final": 20.0, "X": 60.0, "n_x": 1024},
        })
        out = tmp_path / "out_probe"
        assert run_config(write_config(tmp_path, cfg), out=out) == 0
        assert json.loads((out / "probe.json").read_text())["status"] == "ok"

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
        # a float speed has no rational frame: refused at load
        assert run_config(write_config(tmp_path, cfg, "float.json"), out=tmp_path / "f") == 2
        assert not list(tmp_path.glob("f/*.json"))
        # a rational inside the criticality band 1e-7, with an n_t that
        # resolves its frame frequency (the numerator), reaches the wave task
        c = Fraction(c_star).limit_denominator(3000)
        assert abs(c - Fraction(c_star)) < 1e-7
        cfg["params"].update({"c": str(c), "wave": {"a": 20.0, "n_t": 4 * c.numerator}})
        out = tmp_path / "out_wave"
        assert run_config(write_config(tmp_path, cfg, "wave.json"), out=out) == 3
        doc = json.loads((out / "wave.json").read_text())
        assert doc["status"] == "failed"
        assert doc["error_type"] == "InputError"
        assert "critical waves are built only for space-homogeneous" in doc["error"]
        assert "traceback" not in doc

    def test_direction_off_the_last_axis(self, tmp_path):
        # L = 1 + 0.5 cos(2 pi x_1) along e = (1, 0) is the 1-D cell_periodic
        # system: persistence, like dispersion, reduces along e
        mode = {"kt": 0, "kx": [0, 0], "cos": 1.0, "sin": 0.0}
        two_d = {
            "system": {"N": 1, "n": 2, "fields": {
                "A": [[[[mode], []], [[], [mode]]]],
                "q": [[[], []]],
                "L": [[[mode, {"kt": 0, "kx": [1, 0], "cos": 0.5, "sin": 0.0}]]],
                "B": [[[mode]]],
            }},
            "tasks": ["dispersion"],
            "params": {"e": [1, 0]},
        }
        one_d = scalar_config(["dispersion"])
        one_d["system"]["fields"]["L"] = [[[
            {"kt": 0, "kx": [0], "cos": 1.0, "sin": 0.0},
            {"kt": 0, "kx": [1], "cos": 0.5, "sin": 0.0},
        ]]]
        c_star = []
        for name, cfg in (("two_d", two_d), ("one_d", one_d)):
            out = tmp_path / name
            assert run_config(write_config(tmp_path, cfg, f"{name}.json"), out=out) == 0
            c_star.append(json.loads((out / "dispersion.json").read_text())["c_star"])
        assert c_star[0] == c_star[1]

    def test_dispersion_and_simulate_run(self, tmp_path):
        cfg = scalar_config(["dispersion", "simulate"], extra_params={
            "simulate": {"X": 40.0, "n_x": 512, "t_final": 8.0},
        })
        p = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(p, out=out) == 0
        assert json.loads((out / "simulate.json").read_text())["status"] == "ok"
        assert json.loads((out / "dispersion.json").read_text())["status"] == "ok"
        track = np.loadtxt(out / "front_track.csv", delimiter=",", skiprows=1)
        assert track.shape[1] == 3
        snap = np.loadtxt(out / "snapshot_0.csv", delimiter=",", skiprows=1)
        assert snap.shape[1] == 3

    @staticmethod
    def run_2x2_simulate(tmp_path, simulate):
        """dispersion and simulate on the 2 x 2 system l12 = l21 = 2, B = 1
        (c* = 2^1.5); returns c* and simulate.json."""
        two = dict(MODE, cos=2.0)
        cfg = scalar_config(["dispersion", "simulate"], extra_params={"simulate": simulate})
        cfg["system"].update(N=2, fields={
            "A": [[[[MODE]]], [[[MODE]]]], "q": [[[]], [[]]],
            "L": [[[], [two]], [[two], []]], "B": [[[MODE], [MODE]], [[MODE], [MODE]]]})
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 0
        c_star = json.loads((out / "dispersion.json").read_text())["c_star"]
        assert c_star == pytest.approx(2.0 ** 1.5, rel=1e-8)
        return c_star, json.loads((out / "simulate.json").read_text())

    def test_simulate_default_level_from_the_plateau(self, tmp_path):
        # the system settles at u* = (1, 1), far below its logistic bound
        # K = 2: the default level is half the run's plateau, not K/2, which
        # no front reaches
        c_star, doc = self.run_2x2_simulate(tmp_path, {"X": 60.0, "n_x": 1024, "t_final": 16.0})
        assert doc["K"] == 2.0 and doc["theta"] == pytest.approx(0.5, abs=1e-3)
        for side in ("left", "right"):
            assert doc[f"speed_{side}"] == pytest.approx(c_star, rel=0.05)

    def test_default_domain_follows_c_star(self, tmp_path):
        # at c* = 2.83 the front travels about 170 by t_final = 60, past the
        # guard at 0.9 X of X = 150: without X the domain is 1.25 c* t_final
        c_star, doc = self.run_2x2_simulate(tmp_path, {"n_x": 1024})
        for side in ("left", "right"):
            assert doc[f"speed_{side}"] == pytest.approx(c_star, rel=0.05)
        snap = np.loadtxt(tmp_path / "out" / "snapshot_0.csv", delimiter=",", skiprows=1)
        assert snap[:, 1].max() == pytest.approx(1.25 * c_star * 60.0, rel=1e-12)

    @pytest.mark.parametrize("e", [1, -1])
    def test_front_tracks_its_moving_side(self, tmp_path, e):
        # a front filling x e > 0 invades towards -e at c* = 2; its other edge
        # stays at the domain end and is not measured
        cfg = scalar_config(["simulate"], extra_params={"e": [e], "simulate": {
            "X": 100.0, "n_x": 1024, "t_final": 40.0, "initial": {"kind": "front"},
        }})
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 0

        def refuse(name):
            raise ValueError(name)

        doc = json.loads((out / "simulate.json").read_text(), parse_constant=refuse)
        moving, still = ("left", "right") if e > 0 else ("right", "left")
        assert doc[f"speed_{moving}"] == pytest.approx(2.0, rel=0.05)
        assert doc[f"speed_{still}"] is None and doc[f"r2_{still}"] is None

    @pytest.mark.parametrize("e, c_star", [(1, 1.0), (-1, 3.0)])
    def test_cross_check_and_probe_read_direction_e(self, tmp_path, e, c_star):
        # with drift c*(e) != c*(-e): the report compares c*(e) with the front
        # that invades along -e, from a bump and from a front filling x e > 0;
        # the probe's front invades along -e too, so it reads the same c*(e)
        sim = {"X": 150.0, "n_x": 2048, "t_final": 40.0}
        probe = {"t_final": 20.0, "X": 60.0, "n_x": 1024}
        for kind in ("bump", "front"):
            cfg = advection_config(["dispersion", "simulate", "probe"], [e], {
                "simulate": {**sim, "initial": {"kind": kind}}, "probe": probe})
            out = tmp_path / kind
            assert run_config(write_config(tmp_path, cfg, f"{kind}.json"), out=out) == 0
            check = json.loads((out / "report.json").read_text())["speed_cross_check"]
            assert check["c_star"] == pytest.approx(c_star, rel=1e-6)
            assert 0.9 <= check["ratio"] <= 1.05, check
            doc = json.loads((out / "probe.json").read_text())
            assert doc["c_star"] == pytest.approx(c_star, rel=1e-6)

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

    @pytest.mark.parametrize("c", [25, 40])
    def test_readme_system_fast_speed_roots(self, tmp_path, c):
        # mu_vee = (c + sqrt(c^2 - 4))/2 lies far out on lambda = -(1 + mu^2)
        cfg = json.loads(re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)[0])
        cfg["tasks"] = ["dispersion"]
        cfg["params"]["c"] = c
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 0
        roots = json.loads((out / "dispersion.json").read_text())["roots"]
        disc = (c * c - 4) ** 0.5
        assert roots["mu_wedge"] == pytest.approx((c - disc) / 2, abs=1e-9)
        assert roots["mu_vee"] == pytest.approx((c + disc) / 2, abs=1e-9)

    def test_readme_quick_start(self, capsys):
        # the Python block of README.md exactly as written
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], str(README), "exec"), {})
        printed = capsys.readouterr().out
        assert printed.startswith("WaveVerification(")
        for check in ("downstream_pass", "decay_pass", "upstream_pass"):
            assert f"{check}=True" in printed

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

    @pytest.mark.parametrize("fault", ["non-finite", "dgeev-info"])
    def test_dense_eigensolver_failure_is_reported_not_a_traceback(self, tmp_path, monkeypatch, fault):
        # a non-finite Hill matrix and a dgeev that does not converge both fail
        # the task with a NumericalError summary, exit 3 and no traceback
        if fault == "non-finite":
            hill = eigen._hill

            def nan_hill(*args):
                f = hill(*args)
                return lambda mu: tuple(np.full_like(X, np.nan) for X in f(mu))

            monkeypatch.setattr(eigen, "_hill", nan_hill)
        else:
            monkeypatch.setattr(eigen, "dgeev", lambda A, lwork: (None, None, None, None, 2))
        p = write_config(tmp_path, scalar_config(["eigen"]))
        out = tmp_path / "out"
        assert run_config(p, out=out) == 3
        doc = json.loads((out / "eigen.json").read_text())
        assert doc["status"] == "failed" and doc["error_type"] == "NumericalError", doc
        assert "traceback" not in doc

    def test_each_eigenpair_solved_once(self, tmp_path, monkeypatch):
        # every pair, the wave's included, comes from the run's one evaluator
        solved = []
        persistence_calls = []
        solve = eigen._hill_modes
        check = cli.persistence_check

        def counting_solve(fields, mu, grid, K):
            solved.append((id(fields), grid, mu))
            return solve(fields, mu, grid, K)

        def counting_check(*args, **kwargs):
            persistence_calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(eigen, "_hill_modes", counting_solve)
        monkeypatch.setattr(cli, "persistence_check", counting_check)
        cfg = scalar_config(["dispersion", "wave"], extra_params={
            "c": 2.5, "wave": {"a": 16.0, "n_z": 401, "tol": 1e-7},
        })
        p = write_config(tmp_path, cfg)
        assert run_config(p, out=tmp_path / "out") == 0
        assert len(persistence_calls) == 1
        assert solved and len({key[0] for key in solved}) == 1
        assert len(set(solved)) == len(solved)

    def test_validate_k_is_the_row_sum_bound_of_its_extrema(self, tmp_path):
        # L11 = 1 + 0.5 sin 8 pi x and L22 = 1 + 0.2 cos 18 pi x peak off each
        # other's own sample points: K = (1.5 + 0.5) / 1 read from overline_L
        # and underline_B, not from a sampling of its own (1.9755)
        def mode(c, s, kx):
            return {"kt": 0, "kx": [kx], "cos": c, "sin": s}

        cfg = scalar_config(["validate"])
        half = [mode(0.5, 0.0, 0)]
        cfg["system"] = {"N": 2, "n": 1, "fields": {
            "A": [[[[MODE]]], [[[MODE]]]], "q": [[[]], [[]]],
            "L": [[[MODE, mode(0.0, 0.5, 4)], half], [half, [MODE, mode(0.2, 0.0, 9)]]],
            "B": [[[MODE], [MODE]], [[MODE], [MODE]]]}}
        out = tmp_path / "out"
        assert run_config(write_config(tmp_path, cfg), out=out) == 0
        doc = json.loads((out / "validate.json").read_text())
        bound = (np.maximum(doc["overline_L"], 0.0).sum(axis=1).max()
                 / np.min(doc["underline_B"]))
        assert doc["logistic_envelope"]["K"] == bound == 2.0

    def test_one_static_evaluator_per_run(self, tmp_path, monkeypatch):
        # persistence, c* and the decay roots read the run's one c = 0 evaluator
        speeds = []
        init = eigen.EigenEvaluator.__init__

        def counting_init(self, fsys, *args, **kwargs):
            speeds.append(fsys.frame.c_float())
            init(self, fsys, *args, **kwargs)

        monkeypatch.setattr(eigen.EigenEvaluator, "__init__", counting_init)
        cfg = scalar_config(["dispersion", "wave"], extra_params={
            "c": 2.5, "wave": {"a": 16.0, "n_z": 401, "tol": 1e-7},
        })
        p = write_config(tmp_path, cfg)
        assert run_config(p, out=tmp_path / "out") == 0
        assert speeds.count(0.0) == 1
        doc = json.loads((tmp_path / "out" / "dispersion.json").read_text())
        assert doc["curve"] and all(s["mu"] > 0 for s in doc["curve"])

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
        report = emit_report(tmp_path, {"validate": {"task": "validate", "status": "ok"}})
        assert list(report["sections"]) == ["validate"]
        assert (tmp_path / "index.svg").exists()

    def test_cross_reference_speed_ratio(self, tmp_path):
        report = emit_report(tmp_path, {
            "dispersion": {"task": "dispersion", "status": "ok", "c_star": 2.0},
            "simulate": {"task": "simulate", "status": "ok",
                         "speed_left": 1.9, "speed_right": 1.95},
        })
        # c*(e) for e > 0 predicts the left front, whatever the right one does
        assert report["speed_cross_check"]["ratio"] == pytest.approx(0.95)

    def test_cross_check_reads_tracked_side_only(self, tmp_path):
        report = emit_report(tmp_path, {
            "dispersion": {"task": "dispersion", "status": "ok", "c_star": 2.0, "e": [-1.0]},
            "simulate": {"task": "simulate", "status": "ok",
                         "speed_left": None, "speed_right": 1.9},
        })
        assert report["speed_cross_check"]["ratio"] == pytest.approx(0.95)

    def test_no_artifacts_raises(self, tmp_path):
        with pytest.raises(InputError):
            emit_report(tmp_path, {})
