"""The benchmark's workload ops and the checks on their outputs.

Every op takes only ``alpha``, drawn by ``alpha_for`` from the seed and the
op index. Outputs are checked against ``reference.json``, computed once at
alpha = 5e-6 and rescaled: tau2 goes as 1/alpha and eta as alpha.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

import jcqsim.cli
from jcqsim import analysis, bath, influence, itm, qubit
from spans import NullTracer

ALPHA_BAND = (4e-6, 6e-6)
# tau2_bloch is exactly proportional to 1/alpha. Through the CLI it is read
# back from a 12-significant-digit print, which rounds by up to 5e-12.
BLOCH_RTOL = 1e-12
PRINTED_RTOL = 1e-11
# tau2_itm * alpha drifts by up to 1.3e-4 across the alpha band.
ITM_RTOL = 1e-3
# relative to max |eta|
ETA_RTOL = 1e-8
# memory_time evaluates gamma on a 1,001-point grid over [0, 100] ps plus a
# 151-point search for the peak of |Im gamma|.
GAMMA_EVALS = 1152
COMPLEX_BYTES = 16

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


class OutputMismatch(Exception):
    """An op returned, but its output disagrees with the reference."""


def alpha_for(seed, op):
    """Coupling strength of op ``op`` under ``seed``; seed 0, op 0 is the paper point."""
    if seed == 0 and op == 0:
        return REFERENCE["alpha"]
    lo, hi = ALPHA_BAND
    return lo + (hi - lo) * float(np.random.default_rng([seed, op]).random())


def _relative_deviation(name, got, want, rtol):
    deviation = abs(got - want) / abs(want)
    if not deviation <= rtol:
        raise OutputMismatch(f"{name}: got {got!r}, want {want!r} (rtol {rtol:g})")
    return deviation


class Compare:
    """``jcqsim compare`` at the paper point for one memory span ``dk_max``.

    The untraced op is the CLI call in-process. The traced op repeats the
    call sequence of ``analysis.compare`` with the CLI's arguments, one span
    per public call.
    """

    def __init__(self, dk_max):
        self.dk_max = dk_max

    def op(self, alpha, scratch):
        path = str(scratch / "compare.csv")
        argv = ["compare", "--alpha", repr(alpha), "--dk-max", str(self.dk_max),
                "--output", path]
        with contextlib.redirect_stdout(io.StringIO()):
            code = jcqsim.cli.main(argv)
        return code, path

    def reference_op(self, alpha, scratch):
        config = self._config(alpha)
        report = analysis.compare(config.qubit, config.bath, config.dt_ps, config.dk_max,
                                  config.t_max_ps, sample_every=config.sample_every,
                                  initial=config.initial_state,
                                  observable=config.observable, include_cutoff=True)
        return {"tau2_bloch": report.tau2_bloch, "tau2_itm": report.tau2_itm}

    def traced_op(self, alpha, tracer):
        with tracer.span("op"):
            config = self._config(alpha)
            params, env = config.qubit, config.bath
            with tracer.span("analysis.bloch_decoherence_time"):
                _, tau2_bloch = analysis.bloch_decoherence_time(params, env,
                                                                include_cutoff=True)
            with tracer.span("influence.eta_coefficients"):
                table = influence.eta_coefficients(env, config.dt_ps, config.n_steps,
                                                   config.dk_max)
            with tracer.span("qubit.short_time_propagator"):
                propagator = qubit.short_time_propagator(params, config.dt_ps)
            with tracer.span("itm.build_transfer_tensor"):
                transfer = itm.build_transfer_tensor(propagator, table)
            with tracer.span("qubit.initial_state"):
                rho0 = qubit.initial_state(config.initial_state)
            with tracer.span("itm.propagate"):
                trajectory = itm.propagate(rho0, transfer, table, config.n_steps,
                                           sample_every=config.sample_every)
            with tracer.span("analysis.fit_decay"):
                fit = analysis.fit_decay(trajectory, config.observable)
        window = COMPLEX_BYTES * 4 ** (table.dk_max + 1)
        counts = {
            "itm.steps": config.n_steps,
            "itm.samples": len(trajectory),
            "itm.window_bytes": window,
            # read the window, read the step tensor (same size), write the window
            "itm.bytes_per_step": 3 * window,
            "influence.eta_coeffs": 2 + 3 * table.dk_max,
            "analysis.fit_samples": len(trajectory),
        }
        return {"tau2_bloch": tau2_bloch, "tau2_itm": fit.tau}, counts

    def outputs(self, result):
        """Outputs of an op as a dict; CLI results are read back from the CSV row."""
        if isinstance(result, dict):
            return result
        code, path = result
        if code != jcqsim.cli.EXIT_OK:
            raise OutputMismatch(f"jcqsim compare exited with code {code}")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            raise OutputMismatch(f"{path}: expected one report row, got {len(rows)}")
        row = rows[0]
        return {"alpha": float(row["alpha"]), "dk_max": float(row["dk_max"]),
                "tau2_bloch": float(row["tau2_bloch_us"]),
                "tau2_itm": float(row["tau2_itm_us"])}

    def check(self, alpha, out):
        printed = "alpha" in out  # read back from the CLI's CSV row
        if printed:
            _relative_deviation("alpha", out["alpha"], alpha, PRINTED_RTOL)
            if out["dk_max"] != self.dk_max:
                raise OutputMismatch(f"dk_max: got {out['dk_max']}, want {self.dk_max}")
        scale = alpha / REFERENCE["alpha"]
        return {
            "tau2_bloch_rel_dev": _relative_deviation(
                "tau2_bloch * alpha / alpha0", out["tau2_bloch"] * scale,
                REFERENCE["tau2_bloch_us"], PRINTED_RTOL if printed else BLOCH_RTOL),
            "tau2_itm_rel_dev": _relative_deviation(
                "tau2_itm * alpha / alpha0", out["tau2_itm"] * scale,
                REFERENCE["tau2_itm_us"][str(self.dk_max)], ITM_RTOL),
        }

    def _config(self, alpha):
        return jcqsim.cli.RunConfig(alpha=alpha, dk_max=self.dk_max).validate()


class BathTables:
    """``bath.memory_time`` then the eta table out to dk = 16; no ITM."""

    def __init__(self):
        ref = REFERENCE["eta"]
        self.dt, self.n_steps, self.dk_max = ref["dt_ps"], ref["n_steps"], ref["dk_max"]
        self.eta = np.array([complex(*pair) for pair in (
            [ref["self_interior"], ref["self_end"]]
            + ref["pair_ii"] + ref["pair_ei"] + ref["pair_ee"])])

    def op(self, alpha, scratch):
        return self._run(alpha, NullTracer())[0]

    reference_op = op

    def traced_op(self, alpha, tracer):
        return self._run(alpha, tracer)

    def _run(self, alpha, tracer):
        with tracer.span("op"):
            env = bath.OhmicBath(alpha=alpha, omega_c=5.0, temperature=30.0)
            with tracer.span("bath.memory_time"):
                tau_mem = bath.memory_time(env, 0.01)
            with tracer.span("influence.eta_coefficients"):
                table = influence.eta_coefficients(env, self.dt, self.n_steps, self.dk_max)
        eta = np.concatenate([[table.eta_self_interior, table.eta_self_end],
                              table.eta_pair_interior, table.eta_pair_end_interior,
                              table.eta_pair_end_end])
        counts = {"influence.eta_coeffs": eta.size, "bath.gamma_evals": GAMMA_EVALS}
        return {"memory_time": tau_mem, "eta": eta}, counts

    def outputs(self, result):
        return result

    def check(self, alpha, out):
        if out["memory_time"] != REFERENCE["memory_time_ps"]:
            raise OutputMismatch(f"memory_time: got {out['memory_time']!r} ps, "
                                 f"want {REFERENCE['memory_time_ps']!r} ps")
        if out["eta"].shape != self.eta.shape:
            raise OutputMismatch(f"eta table: got {out['eta'].size} coefficients, "
                                 f"want {self.eta.size}")
        scaled = out["eta"] * (REFERENCE["alpha"] / alpha)
        deviation = float(np.abs(scaled - self.eta).max() / np.abs(self.eta).max())
        if not deviation <= ETA_RTOL:
            raise OutputMismatch(f"eta table deviates by {deviation:.3g} of max|eta|")
        return {"eta_rel_dev": deviation}


def same_outputs(a, b):
    """Bit-for-bit equality of two output dicts."""
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


WORKLOADS = {
    "paper_point": lambda: Compare(dk_max=1),
    "wide_window": lambda: Compare(dk_max=4),
    "bath_tables": BathTables,
}
