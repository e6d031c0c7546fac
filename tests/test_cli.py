import numpy as np
import pytest

from jcqsim.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, fmt, main


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

    def test_missing_output_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "response")
        assert code == EXIT_CONFIG
        assert "output" in err

    def test_numerical_error_exit_code(self, tmp_path, capsys, monkeypatch):
        import jcqsim.cli as cli_mod
        from jcqsim import NumericalError

        def failing(bath, t, rtol=1e-8):
            raise NumericalError("quadrature residual above target", residual=1.0)

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

    def test_eta_dump_flag(self, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        eta_file = tmp_path / "eta.csv"
        code, _, _ = run_cli(capsys, "evolve", "--output", str(out_file),
                             "--dump-eta", str(eta_file), "--t-max-ps", "200")
        assert code == EXIT_OK
        assert eta_file.read_text().startswith("dk,class,re_eta,im_eta\n")

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
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 2
        assert "tau2_itm_us" in lines[0]

    def test_exit_zero(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "--t-max-ps", "1e6")
        assert code == EXIT_OK


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
