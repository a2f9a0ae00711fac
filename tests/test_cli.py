"""Configuration parsing and the command-line exit-code contract."""

import os
import subprocess
import sys

import numpy as np
import pytest

import fragkit
from fragkit.cli import main
from fragkit.config import ConfigError, load_config, load_weight_csv, save_weight_csv
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


class TestExitCodes:
    def test_check_weight_pass(self, tmp_path):
        cfg = write(tmp_path / "a.cfg", BB_EXP)
        assert main(["check-weight", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_check_weight_inconclusive(self, tmp_path):
        cfg = write(tmp_path / "b.cfg", BB_POW)
        assert main(["check-weight", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_check_weight_pass_homogeneous(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", HOM_POW)
        assert main(["check-weight", "--config", cfg, "--out", str(tmp_path)]) == 0

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
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

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
