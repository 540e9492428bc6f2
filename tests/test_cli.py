import os
import stat
from pathlib import Path

import numpy as np
import pytest
import yaml

from hampath.cli import main
from hampath.config import ConfigError, build_config, load_config

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def base_config():
    with open(CONFIG_DIR / "harmonic_cauchy.yaml") as fh:
        return yaml.safe_load(fh)


class TestCheckCommand:
    def test_trivial_connecting_passes(self, capsys):
        assert main(["check", str(CONFIG_DIR / "connecting_trivial.yaml")]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_beta_over_threshold_exit_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["T"] = 1.0
        cfg["hamiltonian"]["terms"][0]["scale"] = 0.15
        cfg["boundary"] = {"mode": "connecting",
                          "psi1": {"kind": "quadratic", "scale": 3.0},
                          "psi2": {"kind": "quadratic", "scale": 3.0},
                          "coercivity_index": 1}
        cfg["growth"] = {"alpha": 0.01, "beta": 0.3, "gamma": 0.01}
        assert main(["check", write_config(tmp_path, cfg)]) == 2

    def test_missing_psi2_exit_1(self, tmp_path, capsys):
        cfg = base_config()
        cfg["boundary"] = {"mode": "connecting",
                          "psi1": {"kind": "quadratic", "scale": 0.5},
                          "coercivity_index": 1}
        assert main(["check", write_config(tmp_path, cfg)]) == 1
        assert "boundary.psi2" in capsys.readouterr().err

    def test_nonexistent_config(self, capsys):
        assert main(["check", "no_such_file.yaml"]) == 1


class TestUsageFaults:
    """argparse's own exit code 2 is this CLI's hypothesis failure; usage faults exit 1."""

    @pytest.mark.parametrize("argv", [
        ["sweep", str(CONFIG_DIR / "lambda_sweep.yaml"), "--param", "foo", "--values", "1"],
        ["solve"],
        [],
    ], ids=["unknown_param", "missing_config", "missing_command"])
    def test_exit_1_with_usage_line(self, capsys, argv):
        assert main(argv) == 1
        cap = capsys.readouterr()
        err = cap.err.strip().splitlines()
        assert err[0].startswith("usage: hampath")
        assert err[-1].startswith("config error: ")
        assert "Traceback" not in cap.err and cap.out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: hampath" in capsys.readouterr().out


class TestSolveCommand:
    def test_harmonic_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", str(CONFIG_DIR / "harmonic_cauchy.yaml"),
                     "--out", str(out)])
        assert code == 0
        rows = open(out / "trajectory.csv").read().splitlines()
        assert rows[0] == "t,p_1,q_1"
        first = rows[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert float(first[2]) == 0.0
        report = open(out / "report.txt").read()
        assert "status: Converged" in report
        assert (out / "residuals.csv").exists()

    def test_bad_grid_path_exit_1(self, tmp_path, capsys):
        cfg = base_config()
        cfg["hamiltonian"] = {"grid": {"file": "missing.csv"}}
        assert main(["solve", write_config(tmp_path, cfg)]) == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_stall_exit_3_still_writes(self, tmp_path, capsys):
        # a quartic term keeps the stages on L-BFGS (a quadratic H converges in one
        # exact Newton step, which no iteration cap stalls); its growth is not the
        # config's quadratic certificate, so the checks are left out
        cfg = base_config()
        cfg["hamiltonian"]["terms"].append({"kind": "power", "r": 4, "scale": 0.1,
                                            "apply": "both"})
        del cfg["growth"]
        cfg["solver"]["max_iters"] = 1
        cfg["solver"]["eps_schedule"] = [0.1]
        cfg["solver"]["tol_zero"] = 1e-12
        out = tmp_path / "out"
        code = main(["solve", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 3
        assert (out / "trajectory.csv").exists()
        assert "StalledAboveTol" in open(out / "report.txt").read()

    def test_report_stage_lines_give_the_stop_reason(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", str(CONFIG_DIR / "harmonic_cauchy.yaml"), "--out", str(out)]) == 0
        stages = [ln for ln in open(out / "report.txt").read().splitlines()
                  if ln.startswith("  stage ")]
        assert len(stages) == 1
        assert stages[0].startswith("  stage 1: eps=0 lambda=0 iters=1 reason=ftarget ")

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_malformed_yaml_exit_1(self, tmp_path, capsys, command):
        path = tmp_path / "broken.yaml"
        path.write_text("problem: {N: 1, T: [1.0\n")
        assert main([command, str(path), *(["--out", str(tmp_path / "o")]
                                            if command == "solve" else [])]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: not valid YAML")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = base_config()
        cfg["solver"]["M"] = 50
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["solve", path, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["solve", path, "--out", str(out2), "--seed", "7"]) == 0
        for name in ("trajectory.csv", "residuals.csv", "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_p1_certificate(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", str(CONFIG_DIR / "connecting_p1.yaml"), "--out", str(out)])
        assert code == 0
        report = open(out / "report.txt").read()
        line = next(l for l in report.splitlines() if "action_value" in l)
        assert float(line.split(":")[1]) <= 1e-6

    def test_semiconvex_exit_0(self, tmp_path, capsys):
        assert main(["solve", str(CONFIG_DIR / "semiconvex.yaml"),
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("key", ["delta1", "delta2"])
    def test_semiconvex_feedback_at_limit_exit_1(self, tmp_path, capsys, key):
        with open(CONFIG_DIR / "semiconvex.yaml") as fh:
            cfg = yaml.safe_load(fh)
        cfg["boundary"][key] = 0.6  # limit 1/(2T) = 0.5 at T = 1
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: boundary.{key}:")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("eps, lam, message", [
        ([0.05], [], "nonsmooth Fenchel pair"),
        ([], [], "no usable continuation stage"),
    ])
    def test_unusable_schedule_exit_1(self, tmp_path, capsys, eps, lam, message):
        x = np.linspace(-4, 4, 21)
        with open(tmp_path / "H.csv", "w") as fh:
            fh.write("x," + ",".join(f"{v:.17g}" for v in x) + "\n")
            for xi in x:
                fh.write(",".join([f"{xi:.17g}"] +
                                  [f"{0.5 * (xi * xi + yj * yj):.17g}" for yj in x]) + "\n")
        cfg = base_config()
        cfg["hamiltonian"] = {"grid": {"file": "H.csv"}}
        cfg["problem"]["T"] = 0.5
        cfg["boundary"]["p0"] = [0.5]
        cfg["solver"].update(M=10, eps_schedule=eps, lambda_schedule=lam)
        del cfg["growth"]
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_unusable_schedule_with_failing_checks_exit_1(self, tmp_path, capsys):
        # the schedule is refused before the checks run, whatever they would report
        with open(CONFIG_DIR / "grid_cauchy.yaml") as fh:
            cfg = yaml.safe_load(fh)
        cfg["hamiltonian"]["grid"]["file"] = str(CONFIG_DIR / "grid_cauchy_H.csv")
        cfg["solver"].update(eps_schedule=[0.05], lambda_schedule=[])
        for beta in (0.001, 100.0):
            cfg["growth"] = {"alpha": 0.01, "beta": beta, "gamma": 0.01}
            out = tmp_path / f"o_{beta}"
            assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "nonsmooth Fenchel pair" in err
            assert len(err.strip().splitlines()) == 1
            assert not out.exists()

    def test_grid_boundary_potential_exit_1(self, tmp_path, capsys):
        # no continuation stage smooths a tabulated psi, so the solve is refused up front
        x = np.linspace(-4, 4, 81)
        with open(tmp_path / "psi.csv", "w") as fh:
            for xi in x:
                fh.write(f"{xi:.17g},{abs(xi - 0.5):.17g}\n")
        cfg = base_config()
        cfg["boundary"] = {"mode": "connecting",
                          "psi1": {"kind": "grid", "file": "psi.csv"},
                          "psi2": {"kind": "quadratic", "scale": 0.5},
                          "coercivity_index": 2}
        del cfg["growth"]
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "psi1 is nonsmooth" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @staticmethod
    def coupled_two_dof(cfg):
        # smooth, coupled and not separable with N = 2: no conjugate is available
        A = np.eye(4)
        A[0, 1] = A[1, 0] = 0.3
        cfg["problem"]["N"] = 2
        cfg["boundary"].update(p0=[1.0, 0.0], q0=[0.0, 0.5])
        cfg["hamiltonian"]["terms"] = [
            {"kind": "quadratic", "matrix": A.tolist(), "apply": "both"},
            {"kind": "power", "r": 4, "apply": "both"}]

    CONFIG_FAULTS = {
        "asymmetric_matrix": "hamiltonian.terms[0].matrix: A must be square symmetric",
        "indefinite_matrix": "hamiltonian.terms[0].matrix: A must be positive semidefinite",
        "string_matrix": "hamiltonian.terms[0].matrix: could not convert",
        "infinite_matrix": "hamiltonian.terms[0].matrix: entries must be finite",
        "infconv_exponent_2": "solver.r: inf-convolution exponent must exceed 2",
        "zero_halfwidth": "box.halfwidth: must be positive",
        "coupled_two_dof": "conjugate is unavailable: no closed-form conjugate",
    }

    @pytest.mark.parametrize("fault", list(CONFIG_FAULTS))
    def test_config_fault_exit_1(self, tmp_path, capsys, fault):
        cfg = base_config()
        term = cfg["hamiltonian"]["terms"][0]
        if fault.endswith("_matrix"):
            del term["scale"]  # a quadratic is given by its matrix or by its scale
        if fault == "asymmetric_matrix":
            term.update(kind="quadratic", matrix=[[1.0, 0.3], [0.1, 1.0]])
        elif fault == "indefinite_matrix":
            term.update(kind="quadratic", matrix=[[1.0, 2.0], [2.0, 1.0]])
        elif fault == "string_matrix":
            term.update(kind="quadratic", matrix=[["a", 0.0], [0.0, 1.0]])
        elif fault == "infinite_matrix":
            term.update(kind="quadratic", matrix=[[float("inf"), 0.0], [0.0, 1.0]])
        elif fault == "infconv_exponent_2":
            cfg["solver"].update(r=2, lambda_schedule=[0.1])
        elif fault == "zero_halfwidth":
            cfg["box"] = {"halfwidth": 0.0}
        else:
            self.coupled_two_dof(cfg)
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and self.CONFIG_FAULTS[fault] in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("growth", [False, True])
    def test_noncoercive_boundary_potential_exit_1(self, tmp_path, capsys, growth):
        # an affine psi1 has no finite conjugate, so no boundary action can be assembled
        with open(CONFIG_DIR / "connecting_trivial.yaml") as fh:
            cfg = yaml.safe_load(fh)
        cfg["boundary"]["psi1"] = {"kind": "affine", "slope": [1.0]}
        if not growth:
            del cfg["growth"]
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: boundary potential psi1 cannot be conjugated")
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    def test_lambda_stage_over_noncoercive_hamiltonian_exit_1(self, tmp_path, capsys):
        # H = |p|^2 / 2 does not grow in q: its inf-convolution needs a conjugate it lacks
        cfg = base_config()
        cfg["hamiltonian"]["terms"] = [{"kind": "quadratic", "apply": "p"}]
        cfg["solver"].update(eps_schedule=[], lambda_schedule=[0.3])
        del cfg["growth"]
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: stage (eps=0, lambda=0.3) cannot be built")
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    GRID_FILE_FAULTS = {
        "one_line": ("0,1,2\n", "at least two rows"),
        "ragged": ("x,0,1,2\n0,1,2,3\n1,2,3\n2,3,4,5\n", "Some errors were detected"),
        "nonuniform": ("0,0\n0.1,1\n0.3,2\n0.4,3\n", "grid nodes are not uniform"),
    }

    @pytest.mark.parametrize("fault", list(GRID_FILE_FAULTS))
    def test_malformed_grid_file_exit_1(self, tmp_path, capsys, fault):
        text, message = self.GRID_FILE_FAULTS[fault]
        (tmp_path / "psi.csv").write_text(text)
        cfg = base_config()
        cfg["boundary"] = {"mode": "connecting",
                          "psi1": {"kind": "grid", "file": "psi.csv"},
                          "psi2": {"kind": "quadratic", "scale": 0.5},
                          "coercivity_index": 2}
        del cfg["growth"]
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: boundary.psi1.file: not a grid file: ")
        assert message in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def grid_on_p_config(tmp_path, lo=-4.0, hi=4.0):
        """81 nodes of 0.5 p^2 + 0.3 |p| on [lo, hi] applied to p and 0.5 q^2 on q, in the
        default box (halfwidth 10), which is wider than the table."""
        x = np.linspace(lo, hi, 81)
        np.savetxt(tmp_path / "p.csv", np.column_stack([x, 0.5 * x**2 + 0.3 * np.abs(x)]),
                   delimiter=",")
        return {
            "problem": {"N": 1, "T": 0.5},
            "hamiltonian": {"terms": [{"kind": "grid", "file": "p.csv", "apply": "p"},
                                      {"kind": "quadratic", "scale": 0.5, "apply": "q"}]},
            "boundary": {"mode": "cauchy", "p0": [0.5], "q0": [0.2]},
            "growth": {"alpha": 0.01, "beta": 1.0, "gamma": 0.5},
            "solver": {"M": 10, "eps_schedule": [0.05], "lambda_schedule": [0.3],
                       "max_iters": 200},
        }

    def test_table_narrower_than_the_box_exit_0(self, tmp_path, capsys):
        # the hypothesis checks sample the separable sum's box, its blocks' boxes side by
        # side, and so stay on the table
        cfg = self.grid_on_p_config(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert "status: Converged" in (out / "report.txt").read_text()

    def test_terms_without_a_common_box_exit_1(self, tmp_path, capsys):
        cfg = self.grid_on_p_config(tmp_path)
        x = np.linspace(5.0, 9.0, 41)
        np.savetxt(tmp_path / "p2.csv", np.column_stack([x, 0.5 * x**2]), delimiter=",")
        cfg["hamiltonian"]["terms"].append({"kind": "grid", "file": "p2.csv", "apply": "p"})
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: hamiltonian.terms: the terms' boxes do not overlap\n"
        assert not out.exists()

    def test_hypothesis_failure_exit_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["T"] = 1.0
        cfg["boundary"] = {"mode": "connecting",
                          "psi1": {"kind": "quadratic", "scale": 3.0},
                          "psi2": {"kind": "quadratic", "scale": 3.0},
                          "coercivity_index": 1}
        cfg["growth"] = {"alpha": 0.01, "beta": 0.4, "gamma": 0.01}
        cfg["hamiltonian"]["terms"][0]["scale"] = 0.2
        assert main(["solve", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 2


def test_artifacts_get_the_mode_the_umask_gives(tmp_path, capsys):
    # written through a temporary file, yet 0644 under umask 022 as open(path, "w")
    # would make them, also when they overwrite a file that is there
    cfg = str(CONFIG_DIR / "harmonic_cauchy.yaml")
    old = os.umask(0o022)
    try:
        for _ in range(2):
            assert main(["solve", cfg, "--out", str(tmp_path)]) == 0
        assert main(["sweep", cfg, "--param", "eps", "--values", "0.1",
                     "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    for name in ("trajectory.csv", "report.txt", "residuals.csv", "sweep.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644, name


class TestSweepCommand:
    def test_lambda_sweep_table(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", str(CONFIG_DIR / "lambda_sweep.yaml"),
                     "--param", "lambda", "--values", "0.4,0.2", "--out", str(out)])
        assert code == 0
        rows = open(out / "sweep.csv").read().splitlines()
        assert rows[0].startswith("value,status,action")
        assert "max_prox_displacement" in rows[0]
        vals = [row.split(",") for row in rows[1:]]
        d1 = float(vals[0][-1])
        d2 = float(vals[1][-1])
        assert d2 < d1

    def test_empty_values_exit_1(self, capsys):
        assert main(["sweep", str(CONFIG_DIR / "lambda_sweep.yaml"),
                     "--param", "lambda", "--values", ""]) == 1

    def test_M_sweep_second_order_refinement(self, tmp_path, capsys):
        code = main(["sweep", str(CONFIG_DIR / "harmonic_cauchy.yaml"),
                     "--param", "M", "--values", "50,100,200,400"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("Converged") == 4
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        diffs = [float(r[-1]) for r in rows[1:]]
        from hampath.certify import fitted_order

        order = fitted_order([100, 200, 400], diffs)
        assert order == pytest.approx(2.0, abs=0.3)

    def test_invalid_values_exit_1(self, capsys):
        assert main(["sweep", str(CONFIG_DIR / "lambda_sweep.yaml"),
                     "--param", "lambda", "--values", "a,b"]) == 1

    @pytest.mark.parametrize("param,value,message", [
        ("T", "0", "horizon must be positive"),
        ("eps", "-0.1", "eps_schedule entries must be positive"),
        ("lambda", "-0.2", "lambda_schedule entries must be positive"),
    ])
    def test_no_value_solved_exit_1(self, tmp_path, capsys, param, value, message):
        out = tmp_path / "sweep"
        assert main(["sweep", str(CONFIG_DIR / "lambda_sweep.yaml"), "--param", param,
                     "--values", value, "--out", str(out)]) == 1
        cap = capsys.readouterr()
        rows = cap.out.splitlines()
        assert rows[0].startswith("value,status,action") and len(rows) == 2
        assert rows[1].split(",")[1] == f"error: {message}"
        assert (out / "sweep.csv").read_text() == cap.out
        assert cap.err == f"config error: no --values entry for {param} could be solved\n"

    def test_one_value_solved_exit_0(self, capsys):
        assert main(["sweep", str(CONFIG_DIR / "lambda_sweep.yaml"), "--param", "T",
                     "--values", "0,1"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].split(",")[1].startswith("error") and "Converged" in rows[2]

    @pytest.mark.parametrize("param, values", [
        ("lambda", "nan"), ("eps", "nan"), ("T", "inf"), ("lambda", "0.1,-inf")])
    def test_non_finite_values_exit_1(self, capsys, param, values):
        # a NaN lambda once solved the unsmoothed problem and printed a Converged row
        assert main(["sweep", str(CONFIG_DIR / "lambda_sweep.yaml"),
                     "--param", param, "--values", values]) == 1
        cap = capsys.readouterr()
        assert cap.err == "config error: --values must be finite numbers\n"
        assert cap.out == ""

    @pytest.mark.parametrize("values", ["2.5", "100,2.5", "0", "-50", "inf"])
    def test_M_values_must_be_positive_integers(self, capsys, values):
        # int() would truncate 2.5 to 2 and report the row as 2.5
        assert main(["sweep", str(CONFIG_DIR / "harmonic_cauchy.yaml"),
                     "--param", "M", "--values", values]) == 1
        cap = capsys.readouterr()
        assert cap.err == "config error: --values for M must be positive integers\n"
        assert cap.out == ""


class TestOutputFaults:
    """An output path that cannot take the artifacts exits 1 with one line, and the file in
    its way is left as it was."""

    @staticmethod
    def _taken(tmp_path):
        target = tmp_path / "taken"
        target.write_text("keep\n")
        return target

    @staticmethod
    def _check(capsys, target, message):
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and message in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert target.read_text() == "keep\n"

    @pytest.mark.parametrize("where", ["--out", "output.dir"])
    def test_solve_into_a_file_is_refused_before_solving(self, tmp_path, capsys,
                                                         monkeypatch, where):
        import hampath.cli

        target = self._taken(tmp_path)
        monkeypatch.setattr(hampath.cli, "solve", _refuse_solve)
        cfg = base_config()
        out = ["--out", str(target)] if where == "--out" else []
        if where == "output.dir":
            cfg["output"] = {"dir": str(target)}
        assert main(["solve", write_config(tmp_path, cfg), *out]) == 1
        self._check(capsys, target, f"{target} exists and is not a directory")

    def test_sweep_into_a_file_is_refused_before_solving(self, tmp_path, capsys,
                                                         monkeypatch):
        import hampath.cli

        target = self._taken(tmp_path)
        monkeypatch.setattr(hampath.cli, "solve", _refuse_solve)
        assert main(["sweep", str(CONFIG_DIR / "lambda_sweep.yaml"), "--param", "lambda",
                     "--values", "0.1", "--out", str(target)]) == 1
        self._check(capsys, target, f"{target} exists and is not a directory")

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_below_a_file_is_refused_before_solving(self, tmp_path, capsys, monkeypatch,
                                                    command):
        import hampath.cli

        # a directory below a file: its nearest existing ancestor is no directory
        target = self._taken(tmp_path)
        monkeypatch.setattr(hampath.cli, "solve", _refuse_solve)
        argv = [command, str(CONFIG_DIR / "harmonic_cauchy.yaml"), "--out",
                str(target / "sub" / "deeper")]
        if command == "sweep":
            argv += ["--param", "eps", "--values", "0.1"]
        assert main(argv) == 1
        self._check(capsys, target, f"cannot write {target / 'sub' / 'deeper'}: {target} "
                                    "is not a directory")

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_failed_write_exit_1(self, tmp_path, capsys, monkeypatch, command):
        import hampath.cli

        def full(path, text):
            raise OSError(28, "No space left on device")

        target = self._taken(tmp_path)
        monkeypatch.setattr(hampath.cli, "_atomic_write", full)
        out = tmp_path / "out"
        argv = [command, str(CONFIG_DIR / "harmonic_cauchy.yaml"), "--out", str(out)]
        if command == "sweep":
            argv += ["--param", "eps", "--values", "0.1"]
        assert main(argv) == 1
        self._check(capsys, target, f"cannot write {out}: [Errno 28] No space left on device")


def _refuse_solve(*args, **kwargs):
    raise AssertionError("solve ran")


class TestConfigErrors:
    def test_fault_location_reported(self, tmp_path):
        cfg = base_config()
        cfg["hamiltonian"]["terms"][0]["scale"] = -1.0
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, cfg))
        assert "hamiltonian.terms[0]" in str(err.value)

    def test_unknown_kind(self, tmp_path):
        cfg = base_config()
        cfg["hamiltonian"]["terms"][0]["kind"] = "cubic"
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, cfg))
        assert "kind" in str(err.value)

    def test_missing_coercivity_index(self, tmp_path):
        cfg = base_config()
        cfg["boundary"] = {"mode": "connecting",
                          "psi1": {"kind": "quadratic", "scale": 0.5},
                          "psi2": {"kind": "quadratic", "scale": 0.5}}
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, cfg))
        assert "coercivity_index" in str(err.value)

    @pytest.mark.parametrize("key,value", [("tol_zero", 0.0), ("eps_schedule", [0.1, 0.2]),
                                           ("lambda_schedule", [-0.1]), ("r", 2.0)])
    def test_solver_fault_names_its_key(self, key, value):
        cfg = base_config()
        cfg["solver"][key] = value
        with pytest.raises(ConfigError) as err:
            build_config(cfg)
        assert err.value.path == f"solver.{key}"

    UNKNOWN_KEYS = {
        "solvr": lambda cfg: cfg.update(solvr={"M": 3}),
        "problem.M": lambda cfg: cfg["problem"].update(M=10),
        "box.half_width": lambda cfg: cfg.update(box={"half_width": 5.0}),
        "hamiltonian.term": lambda cfg: cfg["hamiltonian"].update(term=[]),
        "hamiltonian.terms[0].r": lambda cfg: cfg["hamiltonian"]["terms"][0].update(r=4),
        "hamiltonian.terms[0].scale": lambda cfg: cfg["hamiltonian"]["terms"][0].update(
            matrix=[[1.0, 0.0], [0.0, 1.0]]),
        "boundary.psi1": lambda cfg: cfg["boundary"].update(psi1={"kind": "quadratic"}),
        "growth.delta": lambda cfg: cfg["growth"].update(delta=0.1),
        "solver.max_iter": lambda cfg: cfg["solver"].update(max_iter=3),
        "solver.gtol": lambda cfg: cfg["solver"].update(gtol=0.5),
        "output.directory": lambda cfg: cfg.update(output={"directory": "out"}),
    }

    @pytest.mark.parametrize("path", list(UNKNOWN_KEYS))
    def test_unknown_key_is_named(self, path):
        cfg = base_config()
        self.UNKNOWN_KEYS[path](cfg)
        with pytest.raises(ConfigError) as err:
            build_config(cfg)
        assert err.value.path == path
        assert "unknown key" in str(err.value)

    MALFORMED = {
        "box": lambda cfg: cfg.update(box=5.0),
        "output": lambda cfg: cfg.update(output=["out"]),
        "hamiltonian.grid": lambda cfg: cfg.update(hamiltonian={"grid": "H.csv"}),
        "hamiltonian.grid.file": lambda cfg: cfg.update(hamiltonian={"grid": {"file": 5}}),
        "solver.init_file": lambda cfg: cfg["solver"].update(init_file=5),
    }

    @pytest.mark.parametrize("path", list(MALFORMED))
    def test_malformed_section_is_named(self, path):
        cfg = base_config()
        self.MALFORMED[path](cfg)
        with pytest.raises(ConfigError) as err:
            build_config(cfg)
        assert err.value.path == path
        assert str(err.value).endswith(("must be a mapping", "expected a file name, got 5"))

    def test_bool_coercivity_index_is_refused(self):
        with open(CONFIG_DIR / "connecting_trivial.yaml") as fh:
            cfg = yaml.safe_load(fh)
        cfg["boundary"]["coercivity_index"] = True
        with pytest.raises(ConfigError) as err:
            build_config(cfg)
        assert err.value.path == "boundary.coercivity_index"
        assert "which potential carries the quadratic growth condition" in str(err.value)

    @pytest.mark.parametrize("value", [-1, 2.5])
    def test_seed_fault_is_a_config_error(self, tmp_path, value):
        cfg = base_config()
        cfg["solver"]["seed"] = value
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, cfg))
        assert err.value.path == "solver.seed"
        assert "non-negative integer" in str(err.value)

    def test_negative_seed_override_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["solve", str(CONFIG_DIR / "connecting_trivial.yaml"), "--seed", "-1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "config error: --seed: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        cfg = base_config()
        cfg["solver"].update(max_iter=3, gtol=0.5)  # written in sorted order
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: solver.gtol: unknown key; expected one of M,")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    NON_FINITE = {
        "boundary.p0[0]": lambda cfg: cfg["boundary"].update(p0=[float("nan")]),
        "hamiltonian.terms[0].scale": lambda cfg: cfg["hamiltonian"]["terms"][0].update(
            scale=float("inf")),
        "problem.T": lambda cfg: cfg["problem"].update(T=float("nan")),
        "solver.eps_schedule[0]": lambda cfg: cfg["solver"].update(
            eps_schedule=[float("nan")]),
        "solver.tol_zero": lambda cfg: cfg["solver"].update(tol_zero=-float("inf")),
        "box.halfwidth": lambda cfg: cfg.update(box={"halfwidth": 10**400}),  # beyond float
    }

    @pytest.mark.parametrize("path", list(NON_FINITE))
    def test_non_finite_number_exit_1(self, tmp_path, capsys, path):
        # YAML reads .nan and .inf as floats, which pass every range check written as v <= 0
        cfg = base_config()
        self.NON_FINITE[path](cfg)
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: expected a finite number, got ")
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["1e-6", "1.0e8"])
    def test_exponent_read_as_text_is_explained(self, tmp_path, text):
        # YAML 1.1 reads exponent notation as a float only with a point and a signed exponent
        cfg = base_config()
        cfg["solver"]["tol_zero"] = 0.5
        path = write_config(tmp_path, cfg)
        Path(path).write_text(Path(path).read_text().replace("tol_zero: 0.5",
                                                             f"tol_zero: {text}"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.path == "solver.tol_zero"
        assert f"got the string '{text}'" in str(err.value)
        assert "a decimal point and a signed exponent" in str(err.value)

    def test_dimension_cap(self, tmp_path):
        cfg = base_config()
        cfg["problem"]["N"] = 9
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, cfg))

    def test_init_file(self, tmp_path, capsys):
        from hampath.grid import PathGrid

        cfg = base_config()
        cfg["solver"]["M"] = 50
        cfg["solver"]["init_file"] = "warm.csv"
        t = np.linspace(0, 1, 51)
        (tmp_path / "warm.csv").write_text(PathGrid(1.0, np.cos(t), -np.sin(t)).csv_text())
        assert main(["solve", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 0

    @staticmethod
    def harmonic_trajectory(tmp_path, T=1.0, M=200):
        from hampath.grid import PathGrid

        t = np.linspace(0.0, T, M + 1)
        (tmp_path / "warm.csv").write_text(PathGrid(T, np.cos(t), -np.sin(t)).csv_text())

    @pytest.mark.parametrize("fault", ["horizon", "dimension", "not_a_path", "nonuniform_t",
                                       "shifted_t", "one_node", "no_nodes"])
    def test_init_file_that_does_not_fit_exit_1(self, tmp_path, capsys, fault):
        cfg = base_config()
        cfg["solver"]["init_file"] = "warm.csv"
        self.harmonic_trajectory(tmp_path)
        if fault == "horizon":
            # the file's horizon is T = 1
            cfg["problem"]["T"] = 0.5
        elif fault == "dimension":
            TestSolveCommand.coupled_two_dof(cfg)
            cfg["hamiltonian"]["terms"].pop()
        elif fault == "not_a_path":
            (tmp_path / "warm.csv").write_text("t,p_1\n0,1\n1,0\n")
        elif fault in ("one_node", "no_nodes"):
            rows = "0,1,0\n" if fault == "one_node" else ""
            (tmp_path / "warm.csv").write_text("t,p_1,q_1\n" + rows)
        elif fault == "nonuniform_t":
            # would load with nodes at 0, 0.5, 1
            (tmp_path / "warm.csv").write_text("t,p_1,q_1\n0,1,0\n0.9,0.5,0.5\n1,0,1\n")
        else:
            # would load as a path over [0, 1]
            (tmp_path / "warm.csv").write_text("t,p_1,q_1\n0.2,1,0\n0.6,0.5,0.5\n1,0,1\n")
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: solver.init_file: ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()
        if fault in ("one_node", "no_nodes"):
            assert err.rstrip().endswith("a trajectory needs at least two nodes")

    def test_cauchy_init_file_starting_elsewhere(self, tmp_path, capsys):
        # node 0 of the warm start is pinned to (p0, q0); the rest is kept
        cfg = base_config()
        cfg["solver"]["init_file"] = "warm.csv"
        cfg["boundary"]["p0"] = [0.5]
        self.harmonic_trajectory(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        first = (out / "trajectory.csv").read_text().splitlines()[1]
        assert [float(v) for v in first.split(",")] == [0.0, 0.5, 0.0]

    def test_commented_1d_grid_file_loads_as_1d(self, tmp_path):
        # a comment line with three cells says nothing about the table's shape
        x = np.linspace(-2, 2, 41)
        with open(tmp_path / "psi.csv", "w") as fh:
            fh.write("# x, psi(x), note\n")
            for xi in x:
                fh.write(f"{xi:.17g},{0.5 * xi * xi:.17g}\n")
        cfg = base_config()
        cfg["boundary"] = {"mode": "connecting",
                          "psi1": {"kind": "grid", "file": "psi.csv"},
                          "psi2": {"kind": "quadratic", "scale": 0.5},
                          "coercivity_index": 2}
        psi1 = load_config(write_config(tmp_path, cfg)).spec.boundary.start_potential
        assert psi1.dim == 1
        assert psi1.value(np.array([1.0])) == pytest.approx(0.5, abs=1e-2)

    def test_grid_hamiltonian_roundtrip(self, tmp_path):
        x = np.linspace(-3, 3, 41)
        csv = tmp_path / "H.csv"
        with open(csv, "w") as fh:
            fh.write("x," + ",".join(f"{v:.17g}" for v in x) + "\n")
            for xi in x:
                fh.write(",".join([f"{xi:.17g}"] +
                                  [f"{0.5 * (xi * xi + yj * yj):.17g}" for yj in x]) + "\n")
        cfg = base_config()
        cfg["hamiltonian"] = {"grid": {"file": "H.csv"}}
        pc = load_config(write_config(tmp_path, cfg))
        val = pc.spec.hamiltonian.value(np.array([1.0, 0.5]))
        assert val == pytest.approx(0.625, abs=1e-2)


# nan, infinities, signed zeros, subnormals and values that need all 17 digits
SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e-310, 1.0 / 3.0,
           -2.0 / 3.0, 1e300, 123456789.125]


class TestCsvWriters:
    """trajectory.csv and residuals.csv come from one vectorized writer,
    ``hampath.csvfmt.csv_text``; the bytes are those of per-value ``.17g``
    formatting (tests/test_csvfmt.py checks the writer cell by cell)."""

    def test_percent_format_matches_format_spec(self):
        for v in SPECIAL:
            assert "%.17g" % v == f"{v:.17g}"

    def test_residual_csv(self):
        from types import SimpleNamespace

        from hampath.cli import _residual_csv

        gaps, incl = np.array(SPECIAL), np.array(SPECIAL[::-1])
        head = "interval,fenchel_gap,inclusion_residual"
        for inclusion in (incl, None):
            cert = SimpleNamespace(interior_residuals=gaps, inclusion_residuals=inclusion)
            col = incl if inclusion is not None else np.full(gaps.shape, np.nan)
            old = [head] + [f"{k},{float(g):.17g},{float(i):.17g}"
                            for k, (g, i) in enumerate(zip(gaps, col))]
            assert _residual_csv(cert) == "\n".join(old) + "\n"

    def test_path_csv(self):
        from hampath.grid import PathGrid

        finite = np.array([v for v in SPECIAL if np.isfinite(v)])
        path = PathGrid(3.0, np.column_stack([finite, finite[::-1]]),
                        np.column_stack([-finite, finite]))
        rows = np.column_stack([path.times, path.p_nodes, path.q_nodes])
        old = ["t,p_1,p_2,q_1,q_2"] + [",".join(f"{float(v):.17g}" for v in row)
                                       for row in rows]
        assert path.csv_text() == "\n".join(old) + "\n"
