"""Benchmark of the tvkuramoto command line, end to end and by layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from a source checkout: the program is imported from `src/`, nothing is
installed. One process runs the workload's operations one at a time through
`tvkuramoto.cli.main`, in whole rounds, until `--seconds` have passed since the
first operation began (at least one round; the set-up probes are not counted).
Every operation's outputs are checked apart from the program (see checks.py)
and deleted once checked.

Times are read on the host-speed clock of speed.py: seconds at a fixed
speed of the host, so that the host's slow stretches do not read as slow code.
The plain wall times go to the run record too.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
wraps every public function and method of the program's layers in spans
(tracing.py) and reports the per-layer metrics instead. Set-up time is the
median of several fresh processes that, with numpy already loaded, import the
package and write the workload's configs; half of them run before the first
operation and half after the last. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; a fuller
record of the run, with the machine and source it ran on, goes to
`bench/results/`.
"""

import argparse
import contextlib
import hashlib
import io
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
SETUP_REPEATS = 4  # set-up probes before the first operation, and again after the last
SETUP_TIMEOUT_S = 60
MB = 1e6

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (after the path)
from speed import SpeedClock  # noqa: E402

PROBE_TICK_S = 0.01  # a set-up takes some 40 ms: tick often enough to see it


def import_program():
    """Import tvkuramoto from this checkout's src/, never from anywhere else."""
    package = SRC / "tvkuramoto"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import tvkuramoto.cli

    if Path(tvkuramoto.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported tvkuramoto from {tvkuramoto.__file__}, not {package}")
    return tvkuramoto.cli


def setup_probe(workload: str, seed: int, workdir: Path):
    """One set-up: import the package and write the workload's configs."""
    clock = SpeedClock(PROBE_TICK_S)
    clock.start()
    try:
        start = clock.read()
        import_program()
        workloads.prepare(workload, seed, ROOT, workdir)
        print(repr(clock.read() - start))
    finally:
        clock.stop()


def measure_setup(workload: str, seed: int, workdir: Path) -> list:
    """Set-up seconds of SETUP_REPEATS probes, each on the probe's own host-speed clock."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(workdir),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------------
# run record


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def source_info() -> dict:
    """Git sha when the checkout is a repository, and a digest of src/ always."""
    sha = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


# ----------------------------------------------------------------------------
# operations


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB  # KiB on Linux


class Runner:
    """Runs and checks operations; keeps the counts the result reports."""

    def __init__(self, cli, workdir: Path, clock: SpeedClock):
        import checks

        self.cli = cli
        self.clock = clock
        self.checks = checks
        self.workdir = workdir
        self.xi_oracle = checks.load_xi_oracle(ROOT)
        self.attempted = self.failed = 0
        self.correct = True
        self.peak_rss_mb = 0.0
        self.track_rss = True  # only in the first round: later rounds hold what checks left
        self.problems = []

    def run(self, op) -> tuple:
        """Run one operation; return (seconds on the clock, wall seconds, bytes written)."""
        outdir = self.workdir / "out" / op.name
        shutil.rmtree(outdir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        code = crash = None
        start, wall_start = self.clock.read(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv + ["--out", str(outdir)])
        except Exception as exc:  # escaping the CLI is the operation's failure
            crash = f"{type(exc).__name__}: {exc}"
        seconds, wall = self.clock.read() - start, time.perf_counter() - wall_start
        if self.track_rss:
            self.peak_rss_mb = max(self.peak_rss_mb, peak_rss_mb())
        written = tree_bytes(outdir) if outdir.exists() else 0
        self.attempted += 1
        failure = self.failure(op, code, crash, err.getvalue())
        if failure is not None:
            self.failed += 1
            self.problems.append({"operation": op.name, "failed": failure})
        else:
            try:
                self.check(op, outdir, code, out.getvalue())
            except Exception as exc:  # any output the check cannot read is a wrong output
                self.correct = False
                self.problems.append({"operation": op.name, "wrong": f"{type(exc).__name__}: {exc}",
                                      "traceback": traceback.format_exc(limit=3)})
        shutil.rmtree(outdir, ignore_errors=True)
        return seconds, wall, written

    @staticmethod
    def failure(op, code, crash, stderr: str):
        """Why the operation failed, or None when it did what it must."""
        if op.invalid_input:
            if crash is not None:
                return crash
            if code != 2 or op.bad_field not in stderr:
                return (f"exit {code}, expected 2 with an error naming '{op.bad_field}'"
                        f" (stderr: {stderr.strip()[:120]!r})")
            return None
        if crash is not None:
            return crash
        allowed = (0, 1, 2) if op.argv[0] == "certify" else (0,)
        return None if code in allowed else f"exit {code}: {stderr.strip()[:200]}"

    def check(self, op, outdir: Path, code: int, stdout: str):
        if op.invalid_input:
            return
        if op.argv[:2] == ["experiment", "ap"]:
            self.checks.check_ap(op.config, outdir)
        elif op.argv[:2] == ["experiment", "perturb"]:
            self.checks.check_perturb(op.config, outdir)
        else:
            report = json.loads(stdout)
            written = json.loads((outdir / "certificate.json").read_text())
            if report != written:
                raise self.checks.CheckError("printed certificate differs from certificate.json")
            if {"pass": 0, "fail": 1, "inconclusive": 2}[report["verdict"]] != code:
                raise self.checks.CheckError(f"exit {code} does not match {report['verdict']}")
            if op.known_verdict is not None and report["verdict"] != op.known_verdict:
                raise self.checks.CheckError(
                    f"verdict {report['verdict']}, the input was built to {op.known_verdict}")
            self.checks.check_certify(op.config, report, self.xi_oracle)


# ----------------------------------------------------------------------------
# per-layer metrics from one traced round


CRITERIA = ("invariance_pointwise", "invariance_robust", "thm1_spanning_tree_check",
            "cor1_sliding_window_check", "thm2_window_check", "thm3_series_check",
            "cor2_uniform_check")


def layer_metrics(tr, round_wall: float, written: int) -> dict:
    from tracing import LAYERS

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    sim_s = tr.seconds("dynamics.simulate")
    sin_name = "signals.SinusoidSignal.evaluate"
    cli_self = tr.self_seconds("cli")
    m = {"trace.wall_s": (round_wall, "s")}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tr.self_seconds(layer), "s")
    m["cli.write_mb_per_s"] = (ratio(written / MB, cli_self), "MB/s")
    for name in ("scenarios.ap_experiment", "scenarios.find_periodic_pd",
                 "scenarios.perturbation_experiment", "scenarios.phase_locked_equilibrium",
                 "scenarios.linear_correction", "dynamics.pd_divergence",
                 "graph.ergodic_quantities", "graph.has_spanning_tree",
                 "linalg.restricted_spectrum", "dynamics.simulate"):
        m[f"{name}.s"] = (tr.seconds(name), "s")
    m["dynamics.simulate.calls"] = (tr.calls("dynamics.simulate"), "count")
    m["dynamics.simulate.steps"] = (tr.steps, "count")
    m["dynamics.simulate.us_per_step"] = (ratio(sim_s, tr.steps, 1e6), "us")
    m["signals.SwitchingSignal.evaluate.calls"] = (
        tr.calls("signals.SwitchingSignal.evaluate"), "count")
    m[f"{sin_name}.calls"] = (tr.calls(sin_name), "count")
    m[f"{sin_name}.us_per_call"] = (ratio(tr.seconds(sin_name), tr.calls(sin_name), 1e6), "us")
    m["signals.integrate_window.calls"] = (tr.sum_suffix(".integrate_window", 0), "count")
    m["signals.integrate_window.s"] = (tr.sum_suffix(".integrate_window", 1), "s")
    for fn in CRITERIA:
        m[f"certificates.{fn}.s"] = (tr.seconds(f"certificates.{fn}"), "s")
    m["certificates.xi_index.calls"] = (tr.calls("certificates.xi_index"), "count")
    m["linalg.restricted_spectrum.calls"] = (tr.calls("linalg.restricted_spectrum"), "count")
    m["linalg.restricted_spectrum.ms_per_call"] = (
        ratio(tr.seconds("linalg.restricted_spectrum"),
              tr.calls("linalg.restricted_spectrum"), 1e3), "ms")
    m["graph.has_spanning_tree.calls"] = (tr.calls("graph.has_spanning_tree"), "count")
    return m


def medians(rounds: list) -> dict:
    return {name: {"value": statistics.median(r[name][0] for r in rounds), "unit": unit}
            for name, (_, unit) in rounds[0].items()}


def declared_metrics(trace: bool) -> "list | None":
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    return [m["name"] for m in json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]]


# ----------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.setup_probe))
        return 0

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(args, workdir: Path) -> int:
    cli = import_program()
    # the traced run reports no set-up time, so it spends none on probes
    setup = [] if args.trace else measure_setup(args.workload, args.seed, workdir / "configs")
    ops = workloads.prepare(args.workload, args.seed, ROOT, workdir / "configs")
    clock = SpeedClock()
    runner = Runner(cli, workdir, clock)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(clock.read)
        tracer.install()

    walls, plain_walls, outputs, traced, op_walls = [], [], [], [], {}
    deadline = time.perf_counter() + args.seconds
    clock.start()
    try:
        while not walls or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.reset()
            wall = plain = written = 0
            for op in ops:
                w, p, b = runner.run(op)
                op_walls.setdefault(op.name, []).append(w)
                wall += w
                plain += p
                written += b
            walls.append(wall)
            plain_walls.append(plain)
            outputs.append(written)
            runner.track_rss = False
            if tracer is not None:
                traced.append(layer_metrics(tracer, wall, written))
    finally:
        clock.stop()
    if not args.trace:
        setup += measure_setup(args.workload, args.seed, workdir / "setup-after")

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "output_mb": {"value": statistics.median(outputs) / MB, "unit": "MB"},
            "peak_rss_mb": {"value": runner.peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = medians(traced)
    declared = declared_metrics(bool(args.trace))
    if declared is not None and sorted(declared) != sorted(metrics):
        raise SystemExit(f"bench: metrics {sorted(set(declared) ^ set(metrics))} are declared "
                         "in BENCHMARK.json but not measured, or the reverse")

    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(walls), "operations": len(ops),
        "round_s": walls, "round_plain_wall_s": plain_walls, "setup_samples_s": setup,
        "clock": clock.summary(),
        "operation_median_s": {k: statistics.median(v) for k, v in op_walls.items()},
        "problems": runner.problems, "machine": machine_info(), "source": source_info(),
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **result,
    }
    if tracer is not None:  # spans opened in the last round, to size the tracing cost
        record["span_calls"] = sum(c[0] for c in tracer.spans.values())
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(walls)} round(s) of {len(ops)} operation(s), "
          f"{runner.failed} of {runner.attempted} failed, outputs "
          f"{'correct' if runner.correct else 'WRONG'}")
    for problem in runner.problems[:len(ops)]:
        print(f"  {problem}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value['value']:>14.6g} {value['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
