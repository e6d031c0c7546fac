"""jcqsim benchmark: one workload in one single-threaded process.

Run from the repository root:

    python3 perfbench/run.py --workload paper_point --seed 0 --seconds 40 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

- ``paper_point``: ``jcqsim compare --alpha A --dk-max 1 --output F`` in-process.
- ``wide_window``: the same with ``--dk-max 4``.
- ``bath_tables``: ``bath.memory_time(bath, 0.01)`` then
  ``influence.eta_coefficients(bath, 12.707, 16, 16)``.

Op ``i`` runs at the alpha that ``ops.alpha_for(seed, i)`` draws from
[4e-6, 6e-6]; seed 0, op 0 is the paper point 5e-6. Op 0 is an untimed
warm-up. Every op's output is checked; an op that raises or fails its check
counts as failed and is not timed. Ops run until the next one would end
past ``--seconds`` from the start, set-up measurement and warm-up included.

``--trace 0`` reports the end-to-end metrics: ``op_s``, the median op wall
time; ``setup_s``, the median time of three fresh interpreters to
``import jcqsim, jcqsim.cli``; ``peak_rss_mb``, this process's peak RSS.

``--trace 1`` reports per-layer metrics from spans recorded around each
public call. The warm-up there goes through ``analysis.compare`` (or the
plain op), and op 0 is repeated traced: its outputs must equal the
warm-up's bit for bit. Later ops alternate untraced and traced, and
``trace.overhead_s`` is the difference of their medians. The spans are
written to ``.perfbench/<workload>-seed<seed>-trace.json``. A layer a
workload does not run reports 0.

The next-to-last stdout line is the run report: every sample, quartiles,
error rate, failures with their exception type, output deviations and
provenance. The last line is the result.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread per workload process: set before numpy loads its BLAS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_RUNS = 3
MAX_FAILURES = 5
SETUP_CODE = "import jcqsim, jcqsim.cli; print(jcqsim.__file__)"

# per-layer time -> the spans whose durations it sums
LAYER_SPANS = {
    "itm.propagate_s": ("itm.propagate",),
    "itm.transfer_s": ("qubit.short_time_propagator", "itm.build_transfer_tensor"),
    "influence.eta_s": ("influence.eta_coefficients",),
    "bath.memory_time_s": ("bath.memory_time",),
    "analysis.fit_s": ("analysis.fit_decay",),
    "op.self_s": ("op.self_s",),
}
LAYER_UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    "itm.steps_per_s": "1/s",
    "bath.gamma_per_s": "1/s",
    "itm.window_bytes": "bytes-computed",
    "itm.bytes_per_step": "bytes-computed",
    "itm.samples": "count",
    "influence.eta_coeffs": "count",
    "analysis.fit_samples": "count",
}


def import_jcqsim():
    """Import jcqsim from this checkout's ``src``, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import jcqsim
        import jcqsim.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import jcqsim from {SRC}: {exc}")
    if not Path(jcqsim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: jcqsim imported from {jcqsim.__file__}, not {SRC}")
    return jcqsim


def measure_setup(runs):
    """Wall time of fresh interpreters importing the checkout's jcqsim."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not Path(proc.stdout.strip()).is_relative_to(SRC):
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return times


def summary(samples):
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def provenance(jcqsim):
    import numpy
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": jcqsim.backend_name(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Run:
    """Attempts, timings, failures and output deviations of one benchmark run."""

    def __init__(self, workload, alpha_for, deadline, scratch):
        self.workload = workload
        self.alpha_for = alpha_for
        self.deadline = deadline
        self.scratch = scratch
        self.attempted = 0
        self.failures = []
        self.durations = []
        self.deviations = {}

    def attempt(self, op, phase, call):
        """Time ``call(alpha)``, then check its outputs; None if either fails."""
        alpha = self.alpha_for(op)
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = call(alpha)
            seconds = time.perf_counter() - start
            raw = result[0] if phase == "traced" else result
            out = self.workload.outputs(raw)
            for key, value in self.workload.check(alpha, out).items():
                self.deviations[key] = max(value, self.deviations.get(key, 0.0))
        except Exception as exc:  # an op's failure is counted, not fatal
            traceback.print_exc()
            self.failures.append({"op": op, "phase": phase, "alpha": alpha,
                                  "type": type(exc).__name__, "message": str(exc)[:300]})
            return None
        self.durations.append(seconds)
        return seconds, result, out

    def has_time(self):
        """True if one more op, at the median duration so far, ends by the deadline.

        A run whose ops keep failing stops after ``MAX_FAILURES``.
        """
        expected = statistics.median(self.durations) if self.durations else 0.0
        return (len(self.failures) < MAX_FAILURES
                and time.perf_counter() + expected <= self.deadline)


def run_untraced(run):
    op = run.workload.op
    run.attempt(0, "warm-up", lambda a: op(a, run.scratch))
    samples = []
    index = 1
    while index == 1 or run.has_time():
        timed = run.attempt(index, "timed", lambda a: op(a, run.scratch))
        if timed is not None:
            samples.append(timed[0])
        index += 1
    return samples


def op_layer_metrics(totals, counts):
    """Per-layer metrics of one traced op; a layer the op did not run reads 0."""
    values = {name: sum(totals.get(span, 0.0) for span in spans)
              for name, spans in LAYER_SPANS.items()}
    for rate, count, seconds in (("itm.steps_per_s", "itm.steps", "itm.propagate_s"),
                                 ("bath.gamma_per_s", "bath.gamma_evals", "bath.memory_time_s")):
        values[rate] = counts[count] / values[seconds] if count in counts else 0.0
    for name in LAYER_UNITS.keys() - values.keys():
        values[name] = counts.get(name, 0)
    return values


def run_traced(run, tracer):
    from ops import OutputMismatch, same_outputs

    workload = run.workload
    warm = run.attempt(0, "warm-up", lambda a: workload.reference_op(a, run.scratch))
    traced, untraced, per_op = [], [], []

    def traced_call(index):
        tracer.op = index
        done = run.attempt(index, "traced", lambda a: workload.traced_op(a, tracer))
        if done is not None:
            traced.append(done[0])
            per_op.append((index, done[1][1]))
        return done

    first = traced_call(0)
    if warm is not None and first is not None and not same_outputs(warm[2], first[2]):
        run.failures.append({"op": 0, "phase": "traced", "alpha": run.alpha_for(0),
                             "type": OutputMismatch.__name__,
                             "message": f"traced outputs {first[2]} differ from "
                                        f"analysis.compare's {warm[2]}"})
    index = 1
    while index == 1 or run.has_time():
        if index % 2:
            done = run.attempt(index, "untraced", lambda a: workload.op(a, run.scratch))
            if done is not None:
                untraced.append(done[0])
        else:
            traced_call(index)
        index += 1

    layers = [op_layer_metrics(tracer.op_layers(op), counts) for op, counts in per_op]
    metrics = {name: {"value": statistics.median(layer[name] for layer in layers) if layers else 0.0,
                      "unit": unit}
               for name, unit in LAYER_UNITS.items()}
    overhead = (statistics.median(traced) - statistics.median(untraced)
                if traced and untraced else 0.0)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    timings = {"traced_op_s": summary(traced) if traced else None,
               "untraced_op_s": summary(untraced) if untraced else None}
    return metrics, timings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_point", "wide_window", "bath_tables"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    start = time.perf_counter()

    jcqsim = import_jcqsim()
    from ops import WORKLOADS, alpha_for
    from spans import Tracer

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    run = Run(WORKLOADS[args.workload](), lambda op: alpha_for(args.seed, op),
              start + args.seconds, scratch)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        if args.trace:
            tracer = Tracer()
            metrics, timings = run_traced(run, tracer)
            report.update(timings)
        else:
            setup = measure_setup(SETUP_RUNS)
            samples = run_untraced(run)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            report["op_s"] = summary(samples) if samples else None
            report["setup_s"] = summary(setup)
            metrics = {
                "op_s": {"value": statistics.median(samples) if samples else 0.0, "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(run.failures)
    report.update({
        "attempted": run.attempted,
        "failed": failed,
        "error_rate": failed / run.attempted,
        "failures": run.failures,
        "max_deviation": run.deviations,
        "wall_s": time.perf_counter() - start,
        "provenance": provenance(jcqsim),
    })
    if args.trace:
        path = OUT / f"{args.workload}-seed{args.seed}-trace.json"
        path.write_text(json.dumps({"report": report, "spans": tracer.spans}) + "\n")
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
