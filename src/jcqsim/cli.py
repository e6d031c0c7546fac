"""Command-line interface: config ingestion, run orchestration, CSV emission.

Configuration is a flat ``key = value`` text file; command-line flags
override file values, which override the built-in defaults (the published
working point of the studied charge qubit). All numeric output is printed
with 12 significant digits and "\n" line endings so identical configs give
byte-identical files.

The argument parser is built once per process, on the first call of
``main``, and reused by every later call.

Exit codes: 0 success, 2 configuration error, 3 numerical error, 4 I/O error.
"""

import argparse
import functools
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import FIT_OBSERVABLES, bloch_decoherence_time, compare, step_count
from .bath import OhmicBath, response_function
from .errors import CapacityError, ConfigError, NumericalError, SimulationError
from .influence import ETA_COLUMNS, eta_coefficients
from .itm import (ROW_CAP, brute_force_path_sum, build_transfer_tensor, check_row_cap,
                  propagate)
from .qubit import INITIAL_STATES, QubitParameters, initial_state, short_time_propagator

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Allowed values of the config keys that take a name.
CHOICES = {"initial_state": tuple(INITIAL_STATES), "observable": FIT_OBSERVABLES}


@dataclass(frozen=True)
class RunConfig:
    """Fully deterministic run description; defaults are the published values."""

    e_j_ueV: float = 51.8
    e_c_ueV: float = 122.0
    n_g: float = 0.5
    alpha: float = 5e-6
    omega_c_per_ps: float = 5.0
    temperature_mK: float = 30.0
    dt_ps: float = 12.707
    dk_max: int = 1
    t_max_ps: float = 3.0e6
    sample_every: int = 64
    initial_state: str = "zero"
    observable: str = "im_rho01"
    output: str = ""

    def validate(self) -> "RunConfig":
        for name in ("dt_ps", "t_max_ps"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt_ps <= 0:
            raise ConfigError(f"dt_ps must be > 0, got {self.dt_ps}")
        if self.t_max_ps < self.dt_ps:
            raise ConfigError(f"t_max_ps must be >= dt_ps, got {self.t_max_ps}")
        if self.dk_max < 1:
            raise ConfigError(f"dk_max must be >= 1, got {self.dk_max}")
        if self.sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {self.sample_every}")
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        return self

    @property
    def qubit(self) -> QubitParameters:
        return QubitParameters(e_j=self.e_j_ueV, e_c=self.e_c_ueV, n_g=self.n_g)

    @property
    def bath(self) -> OhmicBath:
        return OhmicBath(alpha=self.alpha, omega_c=self.omega_c_per_ps,
                         temperature=self.temperature_mK)

    @property
    def n_steps(self) -> int:
        return step_count(self.t_max_ps, self.dt_ps)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Parse a flat key = value config file; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
            key, _, raw = text.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                values[key] = _FIELD_TYPES[key](raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: bad value for {key}: {raw!r}") from exc
    return values


def build_config(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        config = replace(config, **load_config_file(args.config))
    overrides = {}
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if overrides:
        config = replace(config, **overrides)
    return config.validate()


def fmt(value) -> str:
    """Deterministic 12-significant-digit decimal rendering; str and bool as str().

    Adding 0.0 turns -0.0 into 0.0, so no field reads "-0".
    """
    if isinstance(value, (str, bool)):
        return str(value)
    return format(float(value) + 0.0, ".12g")


def echo_config(config: RunConfig, stream) -> None:
    for f in fields(RunConfig):
        stream.write(f"{f.name} = {fmt(getattr(config, f.name))}\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def cmd_response(config: RunConfig, t_max: float, n_points: int, out) -> int:
    if n_points < 2:
        raise ConfigError(f"n_points must be >= 2, got {n_points}")
    if n_points + 1 > ROW_CAP:
        raise CapacityError(f"response grid capped at {ROW_CAP} rows, got {n_points + 1}")
    if not np.isfinite(t_max):
        raise ConfigError(f"response t_max must be finite, got {t_max}")
    if not config.output:
        raise ConfigError("response requires an output path")
    echo_config(config, out)
    times = np.linspace(0.0, t_max, n_points + 1)
    gamma = response_function(config.bath, times)
    rows = zip(times, gamma.real, gamma.imag)
    _write_csv(config.output, ["t_ps", "re_gamma", "im_gamma"], rows)
    out.write(f"wrote {times.size} rows to {config.output}\n")
    return EXIT_OK


def cmd_evolve(config: RunConfig, out, dump_eta: str | None = None) -> int:
    if not config.output:
        raise ConfigError("evolve requires an output path")
    echo_config(config, out)
    check_row_cap(config.n_steps, config.sample_every)
    table = eta_coefficients(config.bath, config.dt_ps, config.n_steps, config.dk_max)
    transfer = build_transfer_tensor(short_time_propagator(config.qubit, config.dt_ps), table)
    if dump_eta:
        _write_csv(dump_eta, ETA_COLUMNS, table.rows())
        out.write(f"wrote coefficient table to {dump_eta}\n")
    trajectory = propagate(initial_state(config.initial_state), transfer, table,
                           config.n_steps, sample_every=config.sample_every)
    rows = zip(trajectory.times, trajectory.rho00, trajectory.rho11,
               trajectory.re_rho01, trajectory.im_rho01, trajectory.abs_rho01)
    _write_csv(config.output,
               ["t_ps", "rho00", "rho11", "re_rho01", "im_rho01", "abs_rho01"], rows)
    out.write(f"wrote {len(trajectory)} rows to {config.output}\n")
    return EXIT_OK


def cmd_bloch(config: RunConfig, include_cutoff: bool, out) -> int:
    echo_config(config, out)
    tau1, tau2 = bloch_decoherence_time(config.qubit, config.bath,
                                        include_cutoff=include_cutoff)
    out.write(f"cutoff_included = {include_cutoff}\n")
    out.write(f"tau1_us = {tau1:.6g}\n")
    out.write(f"tau2_us = {tau2:.6g}\n")
    return EXIT_OK


def cmd_compare(config: RunConfig, include_cutoff: bool, out) -> int:
    echo_config(config, out)
    report = compare(config.qubit, config.bath, config.dt_ps, config.dk_max,
                     config.t_max_ps, sample_every=config.sample_every,
                     initial=config.initial_state, observable=config.observable,
                     include_cutoff=include_cutoff)
    params = {f.name: getattr(config, f.name) for f in fields(RunConfig) if f.name != "output"}
    params["bloch_cutoff"] = include_cutoff
    for key, value in params.items():
        out.write(f"param {key} = {fmt(value)}\n")
    out.write(f"tau2_bloch_us = {fmt(report.tau2_bloch)}\n")
    out.write(f"tau2_itm_us = {fmt(report.tau2_itm)}\n")
    out.write(f"ratio = {fmt(report.ratio)}\n")
    if config.output:
        header = [*params, "tau2_bloch_us", "tau2_itm_us", "ratio"]
        row = [*params.values(), report.tau2_bloch, report.tau2_itm, report.ratio]
        _write_csv(config.output, header, [row])
        out.write(f"wrote report row to {config.output}\n")
    return EXIT_OK


def cmd_oracle(config: RunConfig, n_steps: int, out) -> int:
    if n_steps > 8:
        raise ConfigError(f"oracle check capped at n_steps = 8, got {n_steps}")
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    echo_config(config, out)
    table = eta_coefficients(config.bath, config.dt_ps, n_steps, n_steps)
    transfer = build_transfer_tensor(short_time_propagator(config.qubit, config.dt_ps), table)
    rho0 = initial_state(config.initial_state)
    trajectory = propagate(rho0, transfer, table, n_steps, sample_every=n_steps)
    exact = brute_force_path_sum(rho0, config.qubit, table, n_steps)
    deviation = np.abs(trajectory.rhos[-1] - exact).max()
    out.write(f"n_steps = {n_steps}\n")
    out.write(f"max_deviation = {fmt(deviation)}\n")
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", help="flat key = value config file")
    for name, kind in _FIELD_TYPES.items():
        config_flags.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                                  choices=CHOICES.get(name))
    parser = argparse.ArgumentParser(
        prog="jcqsim",
        description="Charge-qubit decoherence: QUAPI/ITM evolution vs Bloch rates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_resp = sub.add_parser("response", help="bath response function CSV",
                            parents=[config_flags])
    p_resp.add_argument("--response-t-max-ps", type=float, default=50.0,
                        help="last time of the grid in ps, which starts at 0 (default 50)")
    p_resp.add_argument("--n-points", type=int, default=500, metavar="N",
                        help="number of equal intervals on [0, t_max]; the CSV gets "
                             "N + 1 rows, both ends included (default 500)")

    p_evolve = sub.add_parser("evolve", help="evolve the reduced density matrix",
                              parents=[config_flags])
    p_evolve.add_argument("--dump-eta", dest="dump_eta",
                          help="also write the coefficient table CSV here")

    p_bloch = sub.add_parser("bloch", help="golden-rule relaxation/dephasing times",
                             parents=[config_flags])
    p_bloch.add_argument("--no-cutoff", action="store_true",
                         help="evaluate J(w0) without the exponential cutoff factor")

    p_cmp = sub.add_parser("compare", help="ITM vs Bloch dephasing-time report",
                           parents=[config_flags])
    p_cmp.add_argument("--no-cutoff", action="store_true")

    p_oracle = sub.add_parser("oracle", help="ITM vs exact path-sum deviation",
                              parents=[config_flags])
    p_oracle.add_argument("--n-steps", dest="oracle_n_steps", type=int, default=6)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    out = sys.stdout
    try:
        config = build_config(args)
        if args.command == "response":
            return cmd_response(config, args.response_t_max_ps, args.n_points, out)
        if args.command == "evolve":
            return cmd_evolve(config, out, dump_eta=args.dump_eta)
        if args.command == "bloch":
            return cmd_bloch(config, not args.no_cutoff, out)
        if args.command == "compare":
            return cmd_compare(config, not args.no_cutoff, out)
        return cmd_oracle(config, args.oracle_n_steps, out)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
