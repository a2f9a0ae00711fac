"""Configuration parsing and the command-line exit-code contract."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import fragkit
from fragkit.cli import main
from fragkit.config import (ConfigError, fmt, load_config, load_weight_csv, save_weight_csv,
                            write_csv)
from fragkit.weights import Weight


def write(path, text):
    path.write_text(text)
    return str(path)


BB_EXP = """
[kernel]
family = boundary_binary

[weight]
family = exponential
base = 2.718281828459045

[params]
eta0 = 2.0
y_max = 100.0
"""

BB_POW = """
[kernel]
family = boundary_binary

[weight]
family = power
p = 2.0

[params]
eta0 = 2.0
y_max = 200.0
"""

HOM_POW = """
[kernel]
family = homogeneous_power
nu = -1.0

[weight]
family = power
p = 2.0

[params]
eta0 = 1.0
y_max = 100.0
"""

TWO_WEIGHTS = HOM_POW.replace("[params]", "[weight2]\nfamily = power\np = 1.0\n\n[params]")

SIM = """
[kernel]
family = homogeneous_power
nu = 0

[rate]
family = power
alpha = 1

[weight]
family = power
p = 1

[params]
x_min = 1e-3
x_max = 20
n_nodes = 128
t_end = 0.25
dt = 2e-3
u0 = bump:1,10
sample_every = 10
"""
SIM_PARAMS = SIM.split("[params]\n")[1]


class TestConfigParsing:
    def test_full_roundtrip(self, tmp_path):
        cfg = load_config(write(tmp_path / "a.cfg", SIM))
        assert cfg.kernel.family == "homogeneous_power"
        assert cfg.rate.family == "power"
        assert cfg.weight.family == "power"
        assert cfg.param("t_end") == 0.25

    def test_unknown_key_rejected(self, tmp_path):
        bad = "[kernel]\nfamily = boundary_binary\nshape = round\n"
        with pytest.raises(ConfigError):
            load_config(write(tmp_path / "b.cfg", bad))

    def test_unknown_section_rejected(self, tmp_path):
        bad = "[kernel]\nfamily = boundary_binary\n\n[extras]\nfoo = 1\n"
        with pytest.raises(ConfigError):
            load_config(write(tmp_path / "c.cfg", bad))

    def test_custom_expr_kernel(self, tmp_path):
        cfg = load_config(write(tmp_path / "d.cfg",
                                "[kernel]\nfamily = custom\nexpr = x / y**2\n"))
        assert cfg.kernel(1.0, 2.0) == 0.25

    def test_expr_disallows_names(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path / "e.cfg",
                              "[kernel]\nfamily = custom\nexpr = __import__('os')\n"))

    @pytest.mark.parametrize("expr", ["(lambda q: q.__class__)(x)",
                                      "[t.__class__.__name__ for t in (x,)][0]",
                                      "np.save('f', x)"])
    def test_expr_sandbox_rejects_escapes(self, tmp_path, expr):
        cfg = write(tmp_path / "e.cfg", f"[kernel]\nfamily = custom\nexpr = {expr}\n")
        with pytest.raises(ConfigError):
            load_config(cfg)
        assert main(["kernel-info", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_expr_sandbox_accepts_numpy_arithmetic(self, tmp_path):
        cfg = load_config(write(tmp_path / "h.cfg",
                                "[kernel]\nfamily = custom\n"
                                "expr = (-0.5 + 2) * x**(-0.5) / y**(-0.5 + 1) + 0 * np.cos(x)\n"))
        assert cfg.kernel(1.0, 4.0) == pytest.approx(0.75)

    def test_kernel_table_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path / "f.cfg",
                              "[kernel]\nfamily = boundary_binary\ntable = 1:1\n"))

    def test_rate_table(self, tmp_path):
        cfg = load_config(write(tmp_path / "g.cfg",
                                "[rate]\nfamily = tabulated\ntable = 0:0, 2:4\n"))
        assert cfg.rate(1.0) == 2.0

    def test_weight_csv_roundtrip(self, tmp_path):
        w = Weight.tabulated([1.0, 2.0, 4.0], [0.0, 1.5, 3.25])
        path = tmp_path / "w.csv"
        save_weight_csv(w, path)
        back = load_weight_csv(path)
        xs = np.linspace(1.0, 4.0, 17)
        np.testing.assert_allclose(back.log_eval(xs), w.log_eval(xs), atol=1e-15)


class TestWriteCsv:
    SPECIAL = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e22, 1e16, 0.1, 1 / 3]

    def test_bytes_are_fmt_of_each_value(self, tmp_path):
        # one % format per row on Python floats writes what fmt writes of each numpy value
        rng = np.random.default_rng(5)
        n = len(self.SPECIAL)
        cols = {"special": np.array(self.SPECIAL), "reversed": np.array(self.SPECIAL[::-1]),
                "random": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
                "whole": np.arange(-7.0, n - 7.0), "list": list(np.linspace(-1.0, 1.0, n))}
        path = tmp_path / "c.csv"
        write_csv(path, cols)
        ref = "special,reversed,random,whole,list\n" + "".join(
            ",".join(fmt(v) for v in row) + "\n" for row in zip(*cols.values()))
        assert path.read_bytes() == ref.encode()
        first = [line.split(",")[0] for line in path.read_text().splitlines()[1:9]]
        assert first == ["inf", "-inf", "nan", "-0", "0", "4.9406564584124654e-324",
                         "-4.9406564584124654e-324", "1.7976931348623157e+308"]

    def test_one_column_and_no_rows(self, tmp_path):
        write_csv(tmp_path / "a.csv", {"x": np.array([2.5, -0.0])})
        assert (tmp_path / "a.csv").read_bytes() == b"x\n2.5\n-0\n"
        write_csv(tmp_path / "b.csv", {"x": np.zeros(0), "y": np.zeros(0)})
        assert (tmp_path / "b.csv").read_bytes() == b"x,y\n"


class TestExitCodes:
    def test_check_weight_pass(self, tmp_path):
        cfg = write(tmp_path / "a.cfg", BB_EXP)
        assert main(["check-weight", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_check_weight_n_samples_0_is_the_default_grid(self, tmp_path):
        outs = []
        for name, text in (("absent", BB_EXP), ("zero", BB_EXP + "n_samples = 0\n")):
            cfg = write(tmp_path / f"{name}.cfg", text)
            assert main(["check-weight", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name / "admissibility.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_check_weight_inconclusive(self, tmp_path):
        cfg = write(tmp_path / "b.cfg", BB_POW)
        assert main(["check-weight", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_check_weight_pass_homogeneous(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", HOM_POW)
        assert main(["check-weight", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_check_weight_failed_samples_inconclusive(self, tmp_path, monkeypatch, capsys):
        from fragkit import quadrature
        monkeypatch.setattr(quadrature, "_MAX_REFINEMENTS", 1)
        cfg = write(tmp_path / "osc.cfg",
                    "[kernel]\nfamily = custom\nexpr = (1 + np.cos(40 * x / y)) * 2 / y\n\n"
                    "[weight]\nfamily = power\np = 1\n\n[params]\neta0 = 1\ny_max = 10\n")
        assert main(["check-weight", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "failed samples = 385 below / 65 above" in capsys.readouterr().out

    def test_build_weight_failed_quadrature_inconclusive(self, tmp_path, monkeypatch, capsys):
        # build_h needs every n_w sample below eta0; one that does not converge leaves
        # the construction undecided, not the input invalid
        from fragkit import quadrature
        monkeypatch.setattr(quadrature, "_MAX_REFINEMENTS", 1)
        cfg = write(tmp_path / "osc.cfg",
                    "[kernel]\nfamily = custom\nexpr = (1 + np.cos(40 * x / y)) * 2 / y\n\n"
                    "[weight]\nfamily = power\np = 1\n\n"
                    "[params]\neta0 = 1\nkappa = 1\ny_max = 3\n")
        assert main(["build-weight", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: n_w quadrature did not converge at ")
        assert not (tmp_path / "out" / "weight.csv").exists()

    def test_check_weight_divergent_pair_inconclusive(self, tmp_path, capsys):
        # b w ~ x^-1.1 at 0: n_w diverges, so every sample fails
        cfg = write(tmp_path / "div.cfg",
                    "[kernel]\nfamily = homogeneous_power\nnu = -1.5\n\n"
                    "[weight]\nfamily = power\np = 0.4\n\n[params]\neta0 = 1\ny_max = 10\n")
        assert main(["check-weight", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "failed samples = 385 below / 65 above" in capsys.readouterr().out

    def test_check_weight_near_the_integrability_limit_passes(self, tmp_path, capsys):
        # b w ~ x^-0.94 at 0 converges, to the ratio 0.05/0.06 at every y
        cfg = write(tmp_path / "lim.cfg",
                    "[kernel]\nfamily = homogeneous_power\nnu = -1.95\n\n"
                    "[weight]\nfamily = power\np = 1.01\n\n[params]\neta0 = 1\ny_max = 10\n")
        assert main(["check-weight", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "failed samples" not in out and "kappa_hat  = 0.833333333333" in out

    def test_kernel_info(self, tmp_path, capsys):
        cfg = write(tmp_path / "d.cfg",
                    "[kernel]\nfamily = boundary_binary\n\n[params]\ny_samples = 3,5,10\n")
        assert main(["kernel-info", "--config", cfg]) == 0
        assert "conserving" in capsys.readouterr().out

    def test_kernel_info_sub_conserving(self, tmp_path, capsys):
        cfg = write(tmp_path / "e.cfg",
                    "[kernel]\nfamily = custom\nexpr = x / y**2\n\n[params]\ny_samples = 1,2\n")
        assert main(["kernel-info", "--config", cfg]) == 0
        assert "sub_conserving" in capsys.readouterr().out

    def test_kernel_info_failed_samples_inconclusive(self, tmp_path, capsys):
        # 3000/(2 pi) periods per unit length: the y = 5 sample cannot settle
        cfg = write(tmp_path / "osc.cfg",
                    "[kernel]\nfamily = custom\nexpr = (1 + np.cos(3000 * x)) * 2 / y\n\n"
                    "[params]\ny_samples = 1,2,5\n")
        assert main(["kernel-info", "--config", cfg]) == 3
        assert "quadrature failed at sample indices [2]" in capsys.readouterr().out

    def test_kernel_info_every_sample_failed_inconclusive(self, tmp_path, capsys):
        # the daughter mass int_0^y x b dx has x b ~ x^-1.1 at 0: it diverges at every sample
        cfg = write(tmp_path / "div.cfg",
                    "[kernel]\nfamily = custom\nexpr = x**(-2.1) * y**1.1\n\n"
                    "[params]\ny_samples = 1,2,5\n")
        assert main(["kernel-info", "--config", cfg]) == 3
        out = capsys.readouterr().out
        assert "mass balance: inconclusive" in out and "max excess m(y)/y - 1 = nan" in out
        assert "quadrature failed at sample indices [0, 1, 2]" in out

    def test_kernel_info_near_the_integrability_limit_conserving(self, tmp_path, capsys):
        # homogeneous_power(-1.95) as an expr: x b ~ x^-0.95 at 0, and m(y) = y
        cfg = write(tmp_path / "lim.cfg",
                    "[kernel]\nfamily = custom\nexpr = (-1.95 + 2) * x**(-1.95) / y**(-0.95)\n\n"
                    "[params]\ny_samples = 1,2,5\n")
        assert main(["kernel-info", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "mass balance: conserving" in out and "quadrature failed" not in out
        excess = float(out.split("max excess m(y)/y - 1 = ")[1].split()[0])
        assert abs(excess) <= 1e-10

    def test_expr_failing_at_evaluation_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "np.cfg", "[kernel]\nfamily = custom\nexpr = exp(np)\n")
        assert main(["kernel-info", "--config", cfg]) == 2
        assert "'exp(np)'" in capsys.readouterr().err

    def test_simulate_positivity_checks_before_clipping(self, tmp_path, monkeypatch, capsys):
        # a slightly negative gain row makes implicit Euler produce round-off-sized
        # negatives in cell 0, which the step clips to 0 before the final state
        from fragkit import simulator
        real = simulator.discretize

        def leaky(kernel, rate, grid):
            gen = real(kernel, rate, grid)
            matrix = gen.matrix.copy()
            matrix[1, 2:] = -1e-20  # the gain into cell 0
            return dataclasses.replace(gen, matrix=matrix)

        monkeypatch.setattr(simulator, "discretize", leaky)
        cfg = write(tmp_path / "sim.cfg", SIM)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--assert", "positivity"]) == 1
        assert "assertion failed: positivity" in capsys.readouterr().err
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("params", [
        {"u0": "csv:{tmp}/neg.csv"},            # negative density in the table
        {"u0": "csv:{tmp}/nan.csv"},            # NaN in the table
        {"dt": "0"},
        {"scheme": "foo"},
        {"dt": "-0.01"},                        # ran no step and exited 0
        {"t_end": "nan"},
        {"sample_every": "0"},
        {"n_nodes": "2"},
        {"u0": "bump:1"},
        {"u0": "csv:{tmp}/text.csv"},           # a value that is not a number
        {"sample_every": "2.5"},                # these two were truncated to 2 and 16
        {"n_nodes": "16.7"},
        # these hung, and ended in an OverflowError and a ValueError from numpy
        {"dt": "1e-300", "t_end": "0.01"},
        {"dt": "1e-10", "t_end": "1e308"},
        {"n_nodes": "1e300"},
    ], ids=lambda p: ",".join(f"{k}={v.split('/')[-1]}" for k, v in p.items()))
    def test_simulate_bad_input_exit_2(self, tmp_path, capsys, params):
        (tmp_path / "neg.csv").write_text("x,u\n0.5,1\n2,-1\n5,1\n")
        (tmp_path / "nan.csv").write_text("x,u\n0.5,1\n2,nan\n5,1\n")
        (tmp_path / "text.csv").write_text("x,u\n0.5,1\n2,abc\n")
        lines = [ln for ln in SIM.splitlines() if ln.split(" = ")[0] not in params]
        lines += [f"{k} = {v.format(tmp=tmp_path)}" for k, v in params.items()]  # [params] is last
        cfg = write(tmp_path / "bad.cfg", "\n".join(lines) + "\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_simulate_out_of_memory_exit_2(self, tmp_path, monkeypatch, capsys):
        # n_nodes = 1e6 asks for a 7.28 TiB generator: numpy's MemoryError was a
        # traceback, exit 1
        from fragkit import simulator

        def no_room(kernel, rate, grid):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(simulator, "discretize", no_room)
        cfg = write(tmp_path / "big.cfg", SIM)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_build_weight_march_over_the_node_budget_exit_2(self, tmp_path, capsys):
        # eta0 = 0: b = 2/y near 0 makes the Volterra step 1.25e-13, so the march
        # wants 4e13 nodes, which was a 291 TiB MemoryError ("out of memory")
        cfg = write(tmp_path / "zero.cfg",
                    "[kernel]\nfamily = boundary_binary\n\n[weight]\nfamily = power\np = 1\n\n"
                    "[params]\neta0 = 0\nkappa = 1\ny_max = 5\n")
        assert main(["build-weight", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the Volterra march with step 1.25e-13 needs 4e+13 nodes")
        assert not (tmp_path / "out" / "weight.csv").exists()

    @pytest.mark.parametrize("command, sections, params", [
        ("compare-weights", TWO_WEIGHTS, "y_samples = 0,2"),
        ("check-weight", BB_EXP, "eta0 = 5\ny_max = 2"),
        ("check-weight", BB_EXP, "eta0 = 1\ny_max = inf"),
        ("build-weight", BB_POW, "eta0 = 1\ny_max = 0.5"),
        ("build-weight", BB_POW, "eta0 = 1\ny_max = 2\nkappa = -1"),
        ("find-exp-weight", "", "delta1 = 1\ndelta2 = 1\nd = 0.5\nb_m = 1"),
        ("kernel-info", BB_EXP, "y_samples = 1,,2"),
        ("compare-weights", TWO_WEIGHTS, "x_grid_min = 0"),
        ("compare-weights", TWO_WEIGHTS, "x_grid_min = -1"),
        ("compare-weights", TWO_WEIGHTS, "x_grid_n = 0"),
        ("compare-weights", TWO_WEIGHTS, "x_grid_n = 2.5"),
        # these two ran no step and exited 0
        ("simulate", SIM, SIM_PARAMS.replace("t_end = 0.25", "t_end = -1")),
        ("simulate", SIM, SIM_PARAMS.replace("t_end = 0.25", "t_end = 0\nscheme = leapfrog")),
        # these three printed a verdict on a NaN or infinite parent size and exited 0
        ("kernel-info", BB_EXP, "y_samples = 1,nan,5"),
        ("kernel-info", BB_EXP, "y_samples = 1,inf,5"),
        ("compare-weights", TWO_WEIGHTS, "y_samples = 2,nan,10"),
        # these two ended in numpy's "Maximum allowed size exceeded" traceback
        ("check-weight", BB_EXP, "eta0 = 2.0\ny_max = 100.0\nn_samples = 1e300"),
        # these four ran 4 samples and exited 0
        ("check-weight", BB_EXP, "eta0 = 2.0\ny_max = 100.0\nn_samples = -5"),
        ("check-weight", BB_EXP, "eta0 = 2.0\ny_max = 100.0\nn_samples = 1"),
        ("check-weight", BB_EXP, "eta0 = 2.0\ny_max = 100.0\nn_samples = 2"),
        ("check-weight", BB_EXP, "eta0 = 2.0\ny_max = 100.0\nn_samples = 3"),
        ("compare-weights", TWO_WEIGHTS, "eta0 = 1.0\ny_max = 100.0\nx_grid_n = 1e300"),
        # build-weight: these three ended in a ValueError or OverflowError traceback, and
        # the next three blamed "tabulated weight needs finite knots" or "matching knots"
        ("build-weight", BB_POW, "eta0 = nan\ny_max = 4"),
        ("build-weight", BB_POW, "eta0 = 1\ny_max = nan"),
        ("build-weight", BB_POW, "eta0 = 1\ny_max = inf"),
        ("build-weight", BB_POW, "eta0 = 1\ny_max = 4\nkappa = nan"),
        ("build-weight", BB_POW, "eta0 = 1\ny_max = 4\nkappa = inf"),
        ("build-weight", BB_POW, "eta0 = 1\ny_max = 4\nstep = inf"),
        # find-exp-weight: a NaN ended in an AssertionError traceback, b_m = inf in a
        # ZeroDivisionError; d = inf exited 1 and delta1 = inf exited 0
        ("find-exp-weight", "", "delta1 = nan\ndelta2 = 1\nd = 1.5\nb_m = 1"),
        ("find-exp-weight", "", "delta1 = 1\ndelta2 = nan\nd = 1.5\nb_m = 1"),
        ("find-exp-weight", "", "delta1 = 1\ndelta2 = 1\nd = nan\nb_m = 1"),
        ("find-exp-weight", "", "delta1 = 1\ndelta2 = 1\nd = 1.5\nb_m = nan"),
        ("find-exp-weight", "", "delta1 = 1\ndelta2 = 1\nd = 1.5\nb_m = inf"),
        ("find-exp-weight", "", "delta1 = 1\ndelta2 = 1\nd = inf\nb_m = 1"),
        ("find-exp-weight", "", "delta1 = inf\ndelta2 = 1\nd = 1.5\nb_m = 1"),
    ], ids=["y_sample_0", "eta0_above_y_max", "y_max_inf", "y_max_below_eta0", "negative_kappa", "d_below_1",
            "empty_y_sample", "x_grid_min_0", "x_grid_min_negative", "x_grid_n_0", "x_grid_n_2.5",
            "t_end_negative", "unknown_scheme_no_step",
            "kernel_info_y_sample_nan", "kernel_info_y_sample_inf", "compare_y_sample_nan",
            "n_samples_1e300", "n_samples_-5", "n_samples_1", "n_samples_2", "n_samples_3",
            "x_grid_n_1e300",
            "build_eta0_nan", "build_y_max_nan", "build_y_max_inf", "build_kappa_nan",
            "build_kappa_inf", "build_step_inf", "exp_delta1_nan", "exp_delta2_nan", "exp_d_nan",
            "exp_b_m_nan", "exp_b_m_inf", "exp_d_inf", "exp_delta1_inf"])
    def test_out_of_range_input_exit_2(self, tmp_path, capsys, command, sections, params):
        # the [params] of ``sections`` are replaced by ``params``
        text = sections.split("[params]")[0] + "\n[params]\n" + params + "\n"
        cfg = write(tmp_path / "bad.cfg", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command, sections, params, flags", [
        ("kernel-info", BB_EXP, "y_samples = 3,5,10\ntol = -1", ()),
        ("kernel-info", BB_EXP, "y_samples = 3,5,10", ("--tol", "nan")),
        ("build-weight", BB_POW, "eta0 = 1\ny_max = 4\ntol = -1", ()),
        ("build-weight", BB_POW, "eta0 = 1\ny_max = 4\ntol = nan", ()),
        ("build-weight", BB_POW, "eta0 = 1\ny_max = 4\nfloor = -1", ()),
        ("simulate", SIM, SIM_PARAMS, ("--assert", "mass", "--tol", "nan")),
    ], ids=["kernel_info_tol_negative", "kernel_info_tol_nan", "build_weight_tol_negative",
            "build_weight_tol_nan", "build_weight_floor_negative", "simulate_mass_tol_nan"])
    def test_tolerance_out_of_range_exit_2(self, tmp_path, capsys, command, sections, params,
                                           flags):
        # kernel-info called a conserving kernel "violating" and exited 0; build-weight
        # blamed under-sampled majorants, or failed h's validation, and exited 1; a NaN
        # --tol made simulate's mass assertion unable to fail
        text = sections.split("[params]")[0] + "\n[params]\n" + params + "\n"
        cfg = write(tmp_path / "tol.cfg", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("tol" in err or "floor" in err)
        assert not (tmp_path / "out").exists()

    def test_unsorted_initial_table_named(self, tmp_path, capsys):
        # np.interp needs increasing x: this table gave u0 = 0, and the run exited 0
        (tmp_path / "u0.csv").write_text("x,u\n5,1\n2,1\n0.5,1\n")
        cfg = write(tmp_path / "sim.cfg", SIM.replace("bump:1,10", f"csv:{tmp_path}/u0.csv"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "u0.csv" in err and "strictly increasing" in err
        (tmp_path / "u0.csv").write_text("x,u\n0.5,1\n2,1\n5,1\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "M0 = 0," not in capsys.readouterr().out

    def test_whole_numbers_in_any_spelling(self, tmp_path):
        # 128.0 and 1.28e2 are 128; only a value with a fraction is refused
        outs = []
        for n_nodes, every in (("128", "10"), ("1.28e2", "10.0")):
            text = SIM.replace("n_nodes = 128", f"n_nodes = {n_nodes}") \
                      .replace("sample_every = 10", f"sample_every = {every}")
            out = tmp_path / n_nodes
            assert main(["simulate", "--config", write(tmp_path / "s.cfg", text),
                         "--out", str(out)]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("text", [
        b"[kernel]\nfamily = boundary_binary\nfamily = concentrated\n",
        b"[kernel]\nfamily = boundary_binary\n[kernel]\nfamily = concentrated\n",
        b"family = boundary_binary\n[kernel]\nfamily = concentrated\n",
        b"[kernel]\nfamily = boundary_binary\njunk\n",
        b"[kernel\nfamily = boundary_binary\n",
        b"[kernel]\nfamily = boundary_binary  # \xff\xfe\n",
        b"[kernel]\nfamily = boundary_binary\n[params]\ny_samples = 1,2%\n",
    ], ids=["duplicate_key", "duplicate_section", "line_before_any_section", "line_without_equals",
            "unclosed_section", "not_utf8", "bad_interpolation"])
    def test_malformed_config_syntax_exit_2(self, tmp_path, capsys, text):
        # each of these ended in a configparser or UnicodeDecodeError traceback, exit 1
        (tmp_path / "bad.cfg").write_bytes(text)
        assert main(["kernel-info", "--config", str(tmp_path / "bad.cfg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = write(tmp_path / "f.cfg", "[kernel]\nfamily = custom\nexpr =\n")
        assert main(["kernel-info", "--config", cfg]) == 2

    def test_missing_config_exit_2(self):
        assert main(["kernel-info"]) == 2

    def test_find_exp_weight(self, tmp_path, capsys):
        cfg = write(tmp_path / "g.cfg",
                    "[params]\ndelta1 = 1\ndelta2 = 1\nd = 1.5\nb_m = 1\n")
        assert main(["find-exp-weight", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "c = 256" in out
        assert "delta = 0.25" in out

    def test_find_exp_weight_overflow_exit_1(self, tmp_path):
        cfg = write(tmp_path / "h.cfg",
                    "[params]\ndelta1 = 0.001\ndelta2 = 1\nd = 1.5\nb_m = 1\n")
        assert main(["find-exp-weight", "--config", cfg]) == 1

    @pytest.mark.parametrize("command, text", [
        ("check-weight", BB_EXP.replace("base = 2.718281828459045", "base = nan")),
        ("check-weight", BB_POW.replace("p = 2.0", "p = nan")),
        ("check-weight", BB_POW.replace("family = power\np = 2.0",
                                        "family = tabulated\ntable_file = {tmp}/w.csv")),
        ("simulate", SIM.replace("alpha = 1", "alpha = nan")),
        ("simulate", SIM.replace("family = power\nalpha = 1",
                                 "family = tabulated\ntable = 0:1, 1:nan, 30:2")),
    ], ids=["base_nan", "p_nan", "weight_csv_nan", "alpha_nan", "rate_table_nan"])
    def test_non_finite_family_parameter_exit_2(self, tmp_path, capsys, command, text):
        # check-weight ran every sample to "failed" and exited 3; simulate
        # exited 2 only through "I - dt A has a non-finite entry"
        (tmp_path / "w.csv").write_text("x,log_omega\n1,0\n2,nan\n4,3\n")
        cfg = write(tmp_path / "nan.cfg", text.format(tmp=tmp_path))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and "dt A" not in err

    def test_simulate_overflowing_norm_weight_exit_2(self, tmp_path, capsys):
        # x e^(x^2) overflows past x ~ 26.6: the norm_omega column was NaN, and
        # --assert substochastic skipped its column test and exited 1
        text = SIM.replace("family = power\np = 1", "family = super_exponential") \
            .replace("x_max = 20", "x_max = 40")
        cfg = write(tmp_path / "sx.cfg", text)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--assert", "substochastic"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the norm weight w(x) = x exp(x^2) is not finite at the node x = ")
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_simulate_with_asserts(self, tmp_path):
        cfg = write(tmp_path / "i.cfg", SIM)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--assert", "substochastic,mass,positivity"])
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()

    def test_compare_weights(self, tmp_path, capsys):
        text = """
[kernel]
family = homogeneous_power
nu = -1.0

[weight]
family = power
p = 1.0

[weight2]
family = power
p = 2.0

[params]
y_samples = 1,5,25
"""
        cfg = write(tmp_path / "j.cfg", text)
        assert main(["compare-weights", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "True" in out

    def test_compare_weights_failed_samples_inconclusive(self, tmp_path, monkeypatch, capsys):
        from fragkit import admissibility
        from fragkit.errors import QuadratureError
        real = admissibility.log_n_samples

        def failing(kernel, weight, ys, hi=None):
            partial = real(kernel, weight, ys, hi=hi)
            raise QuadratureError("n_w quadrature did not converge", partial=partial,
                                  failed=np.asarray(ys) == 5.0)

        monkeypatch.setattr(admissibility, "log_n_samples", failing)
        text = "\n".join(["[kernel]", "family = homogeneous_power", "nu = -1.0", "",
                          "[weight]", "family = power", "p = 1.0", "",
                          "[weight2]", "family = power", "p = 2.0", "",
                          "[params]", "y_samples = 1,5,25", ""])
        cfg = write(tmp_path / "fail.cfg", text)
        assert main(["compare-weights", "--config", cfg]) == 3
        out = capsys.readouterr().out
        assert "r1 >= r2:   inconclusive" in out
        assert "quadrature failed at y = 5" in out

    def test_simulate_stiff_rk4(self, tmp_path):
        # t_end / dt = 2.5: three equal steps with h a = 500 * 2.5 / 3, each 2^k
        # substeps that stay non-negative, where the stage form halved or gave up
        text = SIM.replace("family = power\nalpha = 1", "family = constant\nlevel = 500") \
            .replace("dt = 2e-3", "dt = 1").replace("t_end = 0.25", "t_end = 2.5")
        assert "level = 500" in text and "dt = 1\n" in text
        cfg = write(tmp_path / "stiff.cfg", text + "scheme = rk4\n")
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--assert", "positivity,mass,substochastic"])
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()

    def test_simulate_rk4_overflow_exit_2(self, tmp_path, monkeypatch, capsys):
        # an overflowing rk4 step printed NaN M0 and M1, and --assert mass let it
        # through because NaN comparisons are false
        from fragkit import simulator
        real = simulator.discretize

        def huge(kernel, rate, grid):
            m = real(kernel, rate, grid).matrix  # gain and dust flux times 1e300
            return simulator.DiscreteGenerator(grid, np.triu(m, 1) * 1e300 + np.diag(np.diagonal(m)))

        monkeypatch.setattr(simulator, "discretize", huge)
        cfg = write(tmp_path / "rk4.cfg",
                    SIM.replace("n_nodes = 128", "n_nodes = 16") + "scheme = rk4\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"),
                         "--assert", "mass"])
        assert code == 2
        assert "rk4 produced a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_build_weight(self, tmp_path):
        text = """
[kernel]
family = boundary_binary

[weight]
family = power
p = 1.0

[params]
eta0 = 1.0
kappa = 1.0
y_max = 10.0
"""
        cfg = write(tmp_path / "k.cfg", text)
        assert main(["build-weight", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "weight.csv").exists()
        assert (tmp_path / "certificate.csv").exists()
        cert = np.loadtxt(tmp_path / "certificate.csv", delimiter=",", skiprows=1)
        assert np.all(cert[:, 3] >= -1e-6)

    def test_deterministic_output(self, tmp_path):
        cfg = write(tmp_path / "l.cfg", SIM)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        # every command is deterministic, so there is no seed to pass
        cfg = write(tmp_path / "l.cfg", SIM)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg, "--out", str(tmp_path), "--seed", "7"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_build_weight_honors_floor(self, tmp_path):
        text = """
[kernel]
family = boundary_binary

[weight]
family = power
p = 1.0

[params]
eta0 = 1.0
kappa = 1.0
y_max = 4.0
"""
        default = write(tmp_path / "default.cfg", text)
        raised = write(tmp_path / "raised.cfg", text + "floor = 1e-3\n")
        assert main(["build-weight", "--config", default, "--out", str(tmp_path / "a")]) == 0
        assert main(["build-weight", "--config", raised, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "weight.csv").read_bytes() != \
            (tmp_path / "b" / "weight.csv").read_bytes()


def test_fragkit_threads_caps_blas_before_numpy_loads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["FRAGKIT_THREADS"] = "1"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fragkit.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, fragkit; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "1"
