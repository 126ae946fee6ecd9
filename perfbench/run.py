"""ttalab benchmark: one workload, one seed, timed for a fixed budget.

    python3 perfbench/run.py --workload sweep-small --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last stdout line reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced run,
whose repetitions alternate with untraced ones to measure the tracing
overhead. The line before it records the environment and the run's detail.
Every operation's output is checked against the goldens recorded from the
seed commit (``goldens.json``) where the seed has them, and otherwise against
the first repetition and each workload's invariants.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy loads: every workload is one caller on
# small matrices, and the calibration kernel runs on one thread too.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
GOLDENS = HERE / "goldens.json"

SETUP_REPEATS = 3   # setup_s is the median of these
MIN_REPS = 3        # untraced repetitions, whatever the budget
MIN_TRACED = 2      # traced repetitions, so counts can be compared

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_program():
    """Import ttalab from this checkout's src/, refusing any other copy."""
    if not (SRC / "ttalab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ttalab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ttalab
    if Path(ttalab.__file__).resolve().parent != (SRC / "ttalab").resolve():
        sys.exit(f"perfbench: imported ttalab from {ttalab.__file__}")


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or blas.get("name")
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


class Checker:
    """Counts operations and failures against the goldens of one seed."""

    def __init__(self, workload, seed):
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
        self.golden = goldens.get(workload.name, {}).get(str(seed))
        self.reference = dict(self.golden or {})
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.invariants_checked = False

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, outputs, state):
        from workloads import Failure
        clean = True
        for key, value in outputs:
            self.attempted += 1
            expected = self.reference.setdefault(key, value)
            if isinstance(value, Failure):
                self.fail(f"{key}: {value}")
                clean = False
            elif value != expected:
                self.fail(f"{key}: got {value}, expected {expected}")
                clean = False
        if clean and not self.invariants_checked:
            for message in self.workload.invariants(state):
                self.fail(f"invariant: {message}")
            self.invariants_checked = True


def measure_setup(workload, seed, workdir):
    """Set up SETUP_REPEATS times; return (wall, reference) seconds of each
    and the last state."""
    times, state = [], None
    for i in range(SETUP_REPEATS):
        state, wall, scaled = calibration.timed(
            workload.setup, seed, workdir / f"setup{i}")
        times.append((wall, scaled))
    return times, state


def timed_rep(workload, state, checker):
    """One checked repetition, each chunk timed on its own.

    Returns {label: (wall, reference) seconds} over the workload's chunks.
    """
    chunks, outputs = {}, []
    for label, fn in workload.chunks(state):
        chunk_outputs, wall, scaled = calibration.timed(fn)
        chunks[label] = (wall, scaled)
        outputs += chunk_outputs
    checker.check(outputs, state)
    return chunks


def typical_rep_seconds(reps):
    """The sum over chunks of each chunk's median reference time across
    repetitions: a median repetition that one slow chunk does not move."""
    return sum(statistics.median(r[label][1] for r in reps)
               for label in reps[0])


def rep_walls(reps):
    return [sum(wall for wall, _ in r.values()) for r in reps]


def median_wall(reps):
    return statistics.median(rep_walls(reps))


def run_untraced(workload, state, checker, seconds):
    reps = []
    start = time.perf_counter()
    while (len(reps) < MIN_REPS
           or time.perf_counter() - start + median_wall(reps) <= seconds):
        reps.append(timed_rep(workload, state, checker))
    return reps


def run_traced(workload, state, checker, seconds):
    """Alternate untraced and traced repetitions within the budget."""
    from metrics import count_signature
    from spans import Tracer
    tracer = Tracer()
    untraced, traced, summaries = [], [], []
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED or time.perf_counter() - start
           + median_wall(untraced) + median_wall(traced) <= seconds):
        untraced.append(timed_rep(workload, state, checker))
        tracer.reset()
        tracer.install()
        try:
            traced.append(timed_rep(workload, state, checker))
        finally:
            tracer.restore()
        summaries.append(tracer.summary())
    signatures = [count_signature(s) for s in summaries]
    if any(sig != signatures[0] for sig in signatures[1:]):
        checker.fail("trace: counts differ between repetitions")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload.name}.csv")
    return untraced, traced, summaries


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("sweep-small", "grid-large", "train-source",
                                 "lemma-kmeans"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import_wall = time.perf_counter() - _T0
    from metrics import END_TO_END, layer_values, per_layer_definitions
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times, state = measure_setup(workload, args.seed, workdir)
        checker = Checker(workload, args.seed)
        if args.trace:
            untraced, traced, summaries = run_traced(
                workload, state, checker, args.seconds)
            values = layer_values(summaries, typical_rep_seconds(traced)
                                  / typical_rep_seconds(untraced) - 1.0)
            units = {n: u for n, u, _ in per_layer_definitions()}
            reps = untraced
        else:
            reps = run_untraced(workload, state, checker, args.seconds)
            run_s = typical_rep_seconds(reps)
            # the kernel is erratic in the first instants of a process, so
            # imports are scaled by the run's median speed instead
            speed = statistics.median(
                scaled / wall for r in reps for wall, scaled in r.values())
            values = {
                "run_s": run_s,
                "samples_per_s": workload.work_units() / run_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": import_wall * speed + statistics.median(
                    scaled for _, scaled in setup_times),
            }
            units = {n: u for n, u, _, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "goldens": "recorded" if checker.golden else "self-consistency",
        "error_rate": checker.failed / checker.attempted,
        "failures": checker.messages,
        "import_wall_s": import_wall,
        "setup_wall_s": [wall for wall, _ in setup_times],
        "rep_wall_s": rep_walls(reps),
        "environment": environment(),
    }
    print(json.dumps(detail))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
