"""Snapshot the outputs of a fixed list of ``jcqsim`` command-line calls.

Usage: python3 tools/cli_snapshot.py OUT_DIR
       python3 tools/cli_snapshot.py --compare OLD_DIR NEW_DIR

Each call runs in its own process, in its own new directory OUT_DIR/NAME,
with OPENBLAS_NUM_THREADS=1 and this checkout's ``src`` first on
PYTHONPATH. The directory keeps the CSV files the call wrote and its
``stdout``, ``stderr`` and ``exit_code``. Warnings in ``stderr`` name
their file without the checkout's path or the line number, which differ
between checkouts of one program. ``diff -r`` of the snapshots of
two checkouts shows every byte that a change moved; run one copy of this
file in both, so that both take the same calls. The outputs depend on
the numpy and BLAS build, so compare only snapshots taken on one machine.
No call should exit 1, Python's code for an uncaught exception: the CLI's
own codes are 0, 2, 3 and 4.

``--compare`` prints one line for each file that differs between two
snapshots: how many of its lines moved and, where only numbers moved, the
largest absolute and relative deviation between corresponding numbers. It
prints nothing for identical snapshots, and exits 1 if any call's
``exit_code`` differs.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# "<SRC>/jcqsim/itm.py:169: RuntimeWarning: ..." -> "jcqsim/itm.py: RuntimeWarning: ..."
WARNING_LOCATION = re.compile(re.escape(str(SRC) + os.sep).encode() + rb"(\S+?):\d+:")

NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

CALLS = {
    **{f"compare-dk{m}": ["compare", "--dk-max", str(m), "--output", "report.csv"]
       for m in (1, 2, 3, 4, 6, 8)},
    "compare-dk2-100mK": ["compare", "--dk-max", "2", "--temperature-mK", "100",
                          "--t-max-ps", "1e6", "--output", "report.csv"],
    "compare-plus-rho00": ["compare", "--initial-state", "plus", "--observable", "rho00",
                           "--dk-max", "2", "--output", "report.csv"],
    "compare-no-cutoff": ["compare", "--no-cutoff", "--output", "report.csv"],
    # a decay 50 times slower, fitted over 20 us
    "compare-weak-20us": ["compare", "--alpha", "1e-7", "--t-max-ps", "2e7",
                          "--sample-every", "256", "--output", "report.csv"],
    "bloch": ["bloch"],
    "bloch-no-cutoff": ["bloch", "--no-cutoff"],
    **{f"evolve-alpha{alpha}": ["evolve", "--alpha", alpha, "--dk-max", "3", "--dt-ps", "2",
                                "--t-max-ps", "2000", "--sample-every", "1",
                                "--output", "trajectory.csv"]
       for alpha in ("0.05", "0.5", "5")},
    "evolve-dk5-every3": ["evolve", "--alpha", "0.2", "--dk-max", "5", "--dt-ps", "5",
                          "--t-max-ps", "3000", "--sample-every", "3",
                          "--output", "trajectory.csv"],
    # samples inside the ramp
    "evolve-ramp": ["evolve", "--dk-max", "2", "--t-max-ps", "30", "--sample-every", "1",
                    "--output", "trajectory.csv"],
    "evolve-dump-eta": ["evolve", "--dk-max", "4", "--t-max-ps", "1e5", "--sample-every", "7",
                        "--dump-eta", "eta.csv", "--output", "trajectory.csv"],
    # strong coupling at 300 mK: the window settles a few steps past the ramp
    "evolve-stepped": ["evolve", "--alpha", "10", "--dt-ps", "5", "--dk-max", "3",
                       "--temperature-mK", "300", "--t-max-ps", "1e4", "--sample-every", "7",
                       "--output", "trajectory.csv"],
    # no full block: nothing is walked
    "evolve-no-walk": ["evolve", "--dk-max", "8", "--t-max-ps", "300",
                       "--sample-every", "1000", "--output", "trajectory.csv"],
    # a diagonal one-step propagator: the walk starts right after the ramp
    "evolve-pure-dephasing": ["evolve", "--e-j-ueV", "1e-300", "--dk-max", "2",
                              "--output", "trajectory.csv"],
    "oracle": ["oracle", "--n-steps", "8"],
    "response": ["response", "--output", "gamma.csv"],
    "fail-dk11": ["evolve", "--dk-max", "11", "--output", "trajectory.csv"],
    "fail-alpha1e300": ["evolve", "--alpha", "1e300", "--t-max-ps", "100",
                        "--output", "trajectory.csv"],
    "fail-step-overflow": ["evolve", "--t-max-ps", "1e308", "--dt-ps", "1e-10",
                           "--output", "trajectory.csv"],
}


def deviation(old: bytes, new: bytes) -> str:
    """How two versions of one output differ: the lines that moved, and by how much."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return f"{len(old_lines)} -> {len(new_lines)} lines"
    moved = [(a, b) for a, b in zip(old_lines, new_lines) if a != b]
    summary = f"{len(moved)} of {len(old_lines)} lines differ"
    if any(NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b) for a, b in moved):
        return summary + ", not only in their numbers"
    largest_abs = largest_rel = 0.0
    for a, b in moved:
        for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
            if x != y:
                largest_abs = max(largest_abs, abs(x - y))
                largest_rel = max(largest_rel, abs(x - y) / max(abs(x), abs(y)))
    return summary + f", largest deviation {largest_abs:.2g} absolute, {largest_rel:.2g} relative"


def compare(old_dir: Path, new_dir: Path) -> int:
    """Prints each file that differs between two snapshots; 1 if an exit code differs."""
    names = sorted({path.relative_to(root) for root in (old_dir, new_dir)
                    for path in root.rglob("*") if path.is_file()})
    exit_codes_differ = False
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: only in {old_dir if old.is_file() else new_dir}")
        elif old.read_bytes() != new.read_bytes():
            print(f"{name}: {deviation(old.read_bytes(), new.read_bytes())}")
        else:
            continue
        exit_codes_differ |= name.name == "exit_code"
    return 1 if exit_codes_differ else 0


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "--compare":
        return compare(Path(argv[2]), Path(argv[3]))
    if len(argv) != 2:
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 2
    out_dir = Path(argv[1])
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
    for name, args in CALLS.items():
        cwd = out_dir / name
        cwd.mkdir(parents=True)
        run = subprocess.run([sys.executable, "-m", "jcqsim.cli", *args], cwd=cwd, env=env,
                             capture_output=True, check=False)
        (cwd / "stdout").write_bytes(run.stdout)
        (cwd / "stderr").write_bytes(WARNING_LOCATION.sub(rb"\1:", run.stderr))
        (cwd / "exit_code").write_text(f"{run.returncode}\n")
        print(f"{name}: exit {run.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
