import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from jcqsim import eta_coefficients
from jcqsim.analysis import step_count
from jcqsim.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, RunConfig, fmt,
                        load_config_file, main, make_parser)
from jcqsim.influence import EtaTable
from jcqsim.itm import ROW_CAP

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    rows = [list(map(float, line.split(","))) for line in lines[1:] if line]
    return header, np.array(rows)


class TestResponseCommand:

    def test_grid_and_values(self, tmp_path, capsys):
        out_file = tmp_path / "gamma.csv"
        code, out, _ = run_cli(capsys, "response", "--output", str(out_file),
                               "--response-t-max-ps", "50", "--n-points", "500")
        assert code == EXIT_OK
        header, rows = read_csv(out_file)
        assert header == ["t_ps", "re_gamma", "im_gamma"]
        assert rows.shape == (501, 3)
        assert rows[0, 0] == 0.0 and rows[0, 2] == 0.0
        re0 = rows[0, 1]
        at10 = rows[np.argmin(np.abs(rows[:, 0] - 10.0)), 1]
        assert abs(at10) / re0 < 0.02

    @pytest.mark.parametrize("t_max", ["nan", "inf"])
    def test_nonfinite_t_max_is_config_error(self, tmp_path, capsys, t_max):
        out_file = tmp_path / "gamma.csv"
        code, _, err = run_cli(capsys, "response", "--output", str(out_file),
                               "--response-t-max-ps", t_max)
        assert code == EXIT_CONFIG
        assert "finite" in err
        assert not out_file.exists()

    def test_large_times(self, tmp_path, capsys):
        out_file = tmp_path / "gamma.csv"
        code, _, _ = run_cli(capsys, "response", "--output", str(out_file),
                             "--response-t-max-ps", "1e6", "--n-points", "1000")
        assert code == EXIT_OK
        _, rows = read_csv(out_file)
        assert rows.shape == (1001, 3) and np.isfinite(rows).all()

    def test_zero_coupling_prints_no_negative_zero(self, tmp_path, capsys):
        out_file = tmp_path / "gamma.csv"
        code, _, _ = run_cli(capsys, "response", "--output", str(out_file), "--alpha", "0")
        assert code == EXIT_OK
        fields = out_file.read_text().replace("\n", ",").split(",")
        assert "0" in fields and "-0" not in fields

    def test_missing_output_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "response")
        assert code == EXIT_CONFIG
        assert "output" in err

    def test_numerical_error_exit_code(self, tmp_path, capsys, monkeypatch):
        import jcqsim.cli as cli_mod
        from jcqsim import NumericalError

        def failing(bath, t):
            raise NumericalError("response function failed")

        monkeypatch.setattr(cli_mod, "response_function", failing)
        code, _, err = run_cli(capsys, "response", "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_NUMERICAL
        assert "numerical" in err


class TestEvolveCommand:

    def test_short_run(self, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        code, _, _ = run_cli(capsys, "evolve", "--output", str(out_file),
                             "--t-max-ps", "2000", "--sample-every", "8")
        assert code == EXIT_OK
        header, rows = read_csv(out_file)
        assert header == ["t_ps", "rho00", "rho11", "re_rho01", "im_rho01", "abs_rho01"]
        n_steps = int(np.floor(2000 / 12.707))
        assert len(rows) == 1 + n_steps // 8 + 1  # t=0, cadence, forced final
        assert rows[0, 1] == 1.0  # zero state
        np.testing.assert_allclose(rows[:, 1] + rows[:, 2], 1.0, atol=1e-9)

    def test_free_evolution_keeps_plus_coherence(self, tmp_path, capsys):
        out_file = tmp_path / "free.csv"
        code, _, _ = run_cli(capsys, "evolve", "--output", str(out_file),
                             "--alpha", "0", "--initial-state", "plus",
                             "--t-max-ps", "2000", "--sample-every", "16")
        assert code == EXIT_OK
        _, rows = read_csv(out_file)
        np.testing.assert_allclose(rows[:, 5], 0.5, atol=1e-12)

    def test_pure_dephasing_walks(self, tmp_path, capsys):
        # with E_J ~ 0 the step is diagonal: rho00 stays exactly 1 through the
        # ramp and the walk
        out_file = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, "evolve", "--e-j-ueV", "1e-300", "--dk-max", "2",
                               "--output", str(out_file))
        assert code == EXIT_OK and err == ""
        _, rows = read_csv(out_file)
        np.testing.assert_array_equal(rows[:, 1], 1.0)

    def test_pure_dephasing_prints_no_negative_zero(self, tmp_path, capsys):
        # rho11 stays 0 to rounding, and some of its zeros are -0.0
        out_file = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "evolve", "--e-j-ueV", "1e-300", "--dk-max", "2",
                             "--output", str(out_file))
        assert code == EXIT_OK
        fields = out_file.read_text().replace("\n", ",").split(",")
        assert "0" in fields and "-0" not in fields

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "evolve", "--output", str(path),
                                 "--t-max-ps", "1500", "--sample-every", "8")
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "evolve", "--output",
                               str(tmp_path / "missing" / "x.csv"),
                               "--t-max-ps", "100")
        assert code == EXIT_IO

    def test_eta_dump_flag(self, tmp_path, capsys, paper_bath):
        out_file = tmp_path / "traj.csv"
        eta_file = tmp_path / "eta.csv"
        dk_max = 3
        code, _, _ = run_cli(capsys, "evolve", "--output", str(out_file),
                             "--dump-eta", str(eta_file), "--t-max-ps", "200",
                             "--dk-max", str(dk_max))
        assert code == EXIT_OK
        table = eta_coefficients(paper_bath, 12.707, step_count(200.0, 12.707), dk_max)
        etas = [(0, "interior", table.eta_self("interior")),
                (0, "endpoint", table.eta_self("endpoint"))]
        etas += [(dk, kind, table.eta_pair(dk, kind))
                 for dk in range(1, dk_max + 1) for kind in ("ii", "ei", "ee")]
        lines = [f"{dk},{kind},{format(eta.real, '.12g')},{format(eta.imag, '.12g')}"
                 for dk, kind, eta in etas]
        assert len(lines) == 2 + 3 * dk_max
        assert eta_file.read_text() == "dk,class,re_eta,im_eta\n" + "".join(
            line + "\n" for line in lines)

    def test_memory_span_over_cap_writes_nothing(self, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        eta_file = tmp_path / "eta.csv"
        code, _, err = run_cli(capsys, "evolve", "--output", str(out_file),
                               "--dump-eta", str(eta_file), "--t-max-ps", "200",
                               "--dk-max", "11")
        assert code == EXIT_CONFIG
        assert "dk_max = 10" in err
        assert not eta_file.exists()
        assert not out_file.exists()

    def test_growing_steady_map_exits_numerical(self, tmp_path, capsys, monkeypatch):
        # an amplifying self term (negative real part): the steady map is
        # refused at its first step, before any trajectory is written
        def amplifying(bath, dt, n_steps, dk_max):
            zeros = np.zeros(dk_max, dtype=complex)
            return EtaTable(dt=dt, dk_max=dk_max, eta_self_interior=complex(-10.0, 0.0),
                            eta_self_end=0j, eta_pair_interior=zeros,
                            eta_pair_end_interior=zeros, eta_pair_end_end=zeros)

        monkeypatch.setattr("jcqsim.cli.eta_coefficients", amplifying)
        out_file = tmp_path / "traj.csv"
        code, _, err = run_cli(capsys, "evolve", "--output", str(out_file))
        assert code == EXIT_NUMERICAL
        assert "numerical error" in err and "step 2" in err
        assert not out_file.exists()

    def test_12_significant_digits(self, tmp_path, capsys):
        out_file = tmp_path / "t.csv"
        run_cli(capsys, "evolve", "--output", str(out_file), "--t-max-ps", "200",
                "--sample-every", "1")
        # header, then t = 0, then the first step at t = dt
        line = out_file.read_text().split("\n")[2]
        assert line.split(",")[0] == fmt(12.707)


class TestBlochCommand:

    def test_default_report(self, capsys):
        code, out, _ = run_cli(capsys, "bloch")
        assert code == EXIT_OK
        tau2 = float([l for l in out.splitlines() if l.startswith("tau2_us")][0].split("=")[1])
        assert abs(tau2 / 1.61966 - 1.0) < 0.02

    def test_alpha_doubling_halves(self, capsys):
        def tau2_of(*extra):
            code, out, _ = run_cli(capsys, "bloch", *extra)
            assert code == EXIT_OK
            return float([l for l in out.splitlines()
                          if l.startswith("tau2_us")][0].split("=")[1])

        # the report prints 6 significant digits
        assert tau2_of("--alpha", "1e-5") == pytest.approx(0.5 * tau2_of(), rel=1e-5)

    def test_detuned_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bloch", "--n-g", "0.3")
        assert code == EXIT_CONFIG
        assert "B_z" in err

    def test_no_cutoff_flag(self, capsys):
        code, out, _ = run_cli(capsys, "bloch", "--no-cutoff")
        assert code == EXIT_OK
        assert "cutoff_included = False" in out


class TestCompareCommand:

    def test_report_and_csv(self, tmp_path, capsys):
        out_file = tmp_path / "cmp.csv"
        code, out, _ = run_cli(capsys, "compare", "--t-max-ps", "1e6",
                               "--output", str(out_file))
        assert code == EXIT_OK
        assert "tau2_bloch_us" in out and "tau2_itm_us" in out and "ratio" in out
        # config echo includes every input
        for key in ("e_j_ueV = 51.8", "alpha = 5e-06", "dt_ps = 12.707", "dk_max = 1"):
            assert key in out
        # the report parameters are rendered like the config echo and the CSV
        for line in ("e_j_ueV = 51.8", "alpha = 5e-06", "dt_ps = 12.707", "dk_max = 1",
                     "initial_state = zero", "t_max_ps = 1000000", "bloch_cutoff = True"):
            assert f"param {line}\n" in out
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 2
        # the config fields but the output path, the cutoff flag, then the report
        assert lines[0].split(",") == [
            "e_j_ueV", "e_c_ueV", "n_g", "alpha", "omega_c_per_ps", "temperature_mK",
            "dt_ps", "dk_max", "t_max_ps", "sample_every", "initial_state", "observable",
            "bloch_cutoff", "tau2_bloch_us", "tau2_itm_us", "ratio"]
        assert lines[1].startswith("51.8,122,0.5,5e-06,5,30,12.707,1,1000000,64,zero,"
                                   "im_rho01,True,")

    def test_exit_zero(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "--t-max-ps", "1e6")
        assert code == EXIT_OK

    def test_flat_observable_is_no_decay(self, tmp_path, capsys):
        # rho00 of the plus state moves by 1.4e-11 over the 3 us run, and the
        # fit's cost keeps falling as tau grows without bound
        out_file = tmp_path / "cmp.csv"
        code, _, err = run_cli(capsys, "compare", "--initial-state", "plus",
                               "--observable", "rho00", "--dk-max", "2",
                               "--output", str(out_file))
        assert code == EXIT_NUMERICAL
        assert re.fullmatch(r"error: fitted time constant \S+ us exceeds 100x the window span\n",
                            err)
        assert not out_file.exists()


class TestRowCap:

    @pytest.mark.parametrize("argv", [
        ("evolve", "--t-max-ps", "1e13", "--sample-every", "1"),
        ("compare", "--t-max-ps", "1e13"),
        ("response", "--n-points", "100000000000"),
    ], ids=["evolve", "compare", "response"])
    def test_oversized_grid_writes_nothing(self, tmp_path, capsys, argv):
        out_file = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, *argv, "--output", str(out_file))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert f"capped at {ROW_CAP}" in err
        assert not out_file.exists()
        assert peak < 2 ** 20

    def test_oversized_evolve_writes_no_eta_dump(self, tmp_path, capsys):
        out_file = tmp_path / "t.csv"
        eta_file = tmp_path / "e.csv"
        code, _, err = run_cli(capsys, "evolve", "--t-max-ps", "1e13", "--sample-every", "1",
                               "--output", str(out_file), "--dump-eta", str(eta_file))
        assert code == EXIT_CONFIG
        assert f"capped at {ROW_CAP}" in err
        assert not eta_file.exists()
        assert not out_file.exists()

    def test_cap_counts_every_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("jcqsim.cli.ROW_CAP", 11)
        out_file = tmp_path / "gamma.csv"
        code, _, _ = run_cli(capsys, "response", "--n-points", "10", "--output", str(out_file))
        assert code == EXIT_OK
        assert len(out_file.read_text().splitlines()) == 1 + 11
        out_file.unlink()
        code, _, err = run_cli(capsys, "response", "--n-points", "11", "--output", str(out_file))
        assert code == EXIT_CONFIG
        assert "got 12" in err
        assert not out_file.exists()


class TestOracleCommand:

    def test_default_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n-steps", "6")
        assert code == EXIT_OK
        dev = float([l for l in out.splitlines()
                     if l.startswith("max_deviation")][0].split("=")[1])
        assert dev < 1e-10

    def test_free_case(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n-steps", "4", "--alpha", "0")
        assert code == EXIT_OK
        dev = float([l for l in out.splitlines()
                     if l.startswith("max_deviation")][0].split("=")[1])
        assert dev < 1e-12

    def test_capacity_limit(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n-steps", "9")
        assert code == EXIT_CONFIG
        assert "8" in err


class TestConfigHandling:

    def test_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1e-6\ntemperature_mK = 50  # hotter\n")
        code, out, _ = run_cli(capsys, "bloch", "--config", str(cfg),
                               "--temperature-mK", "30")
        assert code == EXIT_OK
        assert "alpha = 1e-06" in out
        assert "temperature_mK = 30" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("granularity = 7\n")
        code, _, err = run_cli(capsys, "bloch", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "granularity" in err

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dk_max = two\n")
        code, _, err = run_cli(capsys, "bloch", "--config", str(cfg))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ("response", "--alpha", "nan"),
        ("evolve", "--alpha", "nan"),
        ("oracle", "--alpha", "nan"),
        ("evolve", "--e-j-ueV", "nan"),
        ("evolve", "--e-c-ueV", "inf"),
        ("evolve", "--n-g", "nan"),
        ("response", "--temperature-mK", "inf"),
        ("response", "--omega-c-per-ps", "inf"),
        ("bloch", "--alpha", "inf"),
        ("bloch", "--temperature-mK", "nan"),
        ("evolve", "--dt-ps", "nan"),
        ("evolve", "--t-max-ps", "inf"),
        ("compare", "--t-max-ps", "nan"),
    ], ids=" ".join)
    def test_nonfinite_input_rejected(self, tmp_path, capsys, argv):
        out_file = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, *argv, "--output", str(out_file))
        assert code == EXIT_CONFIG
        assert "finite" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ("evolve", "--t-max-ps", "1e308", "--dt-ps", "1e-10"),
        ("evolve", "--dt-ps", "1e-320"),
        ("compare", "--t-max-ps", "1e308", "--dt-ps", "1e-10"),
    ], ids=" ".join)
    def test_overflowing_step_count_rejected(self, tmp_path, capsys, argv):
        out_file = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, *argv, "--output", str(out_file))
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out_file.exists()

    @pytest.mark.parametrize("argv, code, tail", [
        (("response", "--response-t-max-ps", "1e308"), EXIT_OK, "1e+308,0,0\n"),
        (("evolve", "--alpha", "1e300", "--t-max-ps", "100"), EXIT_NUMERICAL, "step 2\n"),
    ], ids=["response-t-1e308", "evolve-alpha-1e300"])
    def test_extreme_inputs_run_without_warnings(self, tmp_path, capsys, argv, code, tail):
        # warnings are errors in this suite, so an overflow warning fails the run
        out_file = tmp_path / "out.csv"
        got, _, err = run_cli(capsys, *argv, "--output", str(out_file))
        assert got == code
        assert (out_file.read_text() if code == EXIT_OK else err).endswith(tail)

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["response", "evolve", "bloch", "compare", "oracle"])
    def test_every_command_takes_every_config_flag(self, capsys, command):
        values = {f.name: str(f.default) for f in fields(RunConfig)}
        argv = [command, "--config", "run.cfg"]
        for name, value in values.items():
            argv += ["--" + name.replace("_", "-"), value]
        args = make_parser().parse_args(argv)
        assert args.config == "run.cfg"
        assert {name: str(getattr(args, name)) for name in values} == values
        with pytest.raises(SystemExit):
            make_parser().parse_args([command, "--help"])
        usage = capsys.readouterr().out
        for flag in ["--config", *("--" + name.replace("_", "-") for name in values)]:
            assert re.search(rf"(?<![\w-]){flag}(?![\w-])", usage), flag

    def test_invalid_combination_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "evolve", "--t-max-ps", "5", "--dt-ps", "10",
                             "--output", "x.csv")
        assert code == EXIT_CONFIG

    def test_config_echo_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("e_j_ueV = 40.0\nn_g = 0.5\nalpha = 2e-6\n")
        code, out, _ = run_cli(capsys, "bloch", "--config", str(cfg))
        assert code == EXIT_OK
        assert "e_j_ueV = 40" in out
        assert "alpha = 2e-06" in out

    def test_readme_commands_parse(self, tmp_path):
        # the flags are generated from RunConfig's fields, so renaming one
        # must show here rather than leave the README stale
        blocks = re.findall(r"```(?:sh)?\n(.*?)```", README.read_text(), re.S)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(next(block for block in blocks if block.startswith("# run.cfg")))
        RunConfig(**load_config_file(str(cfg))).validate()
        commands = [shlex.split(line, comments=True) for block in blocks
                    for line in block.splitlines() if line.startswith("jcqsim ")]
        assert len(commands) == 6
        parser = make_parser()
        for argv in commands:
            parser.parse_args(argv[1:])


def test_import_loads_no_scipy():
    # the runtime needs numpy alone, and importing scipy would dominate the
    # start-up of every jcqsim process
    code = ("import sys, jcqsim, jcqsim.cli; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_reused_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process, so each later call must print
    # and write what the same call prints and writes first in a fresh process
    assert make_parser() is make_parser()
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    monkeypatch.chdir(tmp_path)
    calls = [["compare", "--dk-max", "2", "--no-cutoff", "--output", "report.csv"],
             ["compare", "--output", "report.csv"],
             ["bloch"]]
    reports = []
    for i, argv in enumerate(calls):
        code, out, _ = run_cli(capsys, *argv)
        fresh = tmp_path / f"fresh-{i}"
        fresh.mkdir()
        run = subprocess.run([sys.executable, "-m", "jcqsim.cli", *argv], cwd=fresh,
                             env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                             text=True, check=False)
        assert code == run.returncode == EXIT_OK
        assert out == run.stdout
        if "--output" in argv:
            reports.append(Path("report.csv").read_text())
            assert reports[-1] == (fresh / "report.csv").read_text()
    header, values = reports[1].split("\n")[:2]
    second = dict(zip(header.split(","), values.split(",")))
    assert (second["dk_max"], second["bloch_cutoff"]) == ("1", "True")
