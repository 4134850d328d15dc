"""rsfsmooth benchmark: whole CLI processes, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; NAME is one of the workloads in
workloads.py, or `all` to run each in turn. The seed makes the inputs,
which are written under .perfbench_work/ before timing starts. The
workload's CLI command then runs in a fresh process, one at a time, until
S seconds have passed (at least MIN_CALLS times):

  --trace 0  the first SETUP_PROBES rounds also run a set-up probe
             (probe.py), and every round is bracketed by runs of the fixed
             reference program (reference.py); reports wall_s, setup_s and
             peak_rss_mb, each the median over its samples. A run holds too
             few calls for a high percentile with ten samples beyond it, so
             the slowest call is printed with the sample count but not
             reported as a metric;
  --trace 1  every round also runs the command under tracer.py; reports
             the per-layer metrics of spans.py (medians over the traced
             runs) and the tracing overhead.

On shared cloud cores (measured on a 2-vCPU Xeon VM) the speed of the host
drifts by up to 1.5x over tens of seconds, more than a run can average out,
and every workload slows with it. So wall_s and setup_s are paced:
each call or probe is divided by the mean wall time of the reference runs
just before and after it, and multiplied by REF_PACE_S. They read as the
seconds the command would take on a host where reference.py takes
REF_PACE_S; the raw medians are printed beside them.

Every command's output is checked (checks.py); a failed check or a
non-zero exit counts as failed and is never dropped. Children run with one
BLAS thread. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_CALLS = 3
SETUP_PROBES = 3
REF_PACE_S = 1.0  # reference.py wall time the paced metrics are scaled to
HARD_LIMIT_S = 165.0  # per workload; a run must end within 180 s
CLI_ENTRY = "from rsfsmooth.cli import main; main()"
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class Runner:
    """Spawns and times child processes from the checkout root."""

    def __init__(self, root, work, deadline):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def spawn(self, cmd, log_name):
        """Run cmd to completion; returns (exit code, wall seconds, peak RSS MB).
        A child still running at the deadline is killed."""
        with open(self.work / log_name, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, argv, log_name="cli.log"):
        return self.spawn([sys.executable, "-c", CLI_ENTRY] + argv, log_name)

    def log_tail(self, log_name):
        text = (self.work / log_name).read_text(errors="replace").strip()
        return text.splitlines()[-1] if text else "(no output)"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


def checked_call(runner, job, tally, traced):
    """Run the workload command once and check its output.
    Returns (wall, rss, extra values from the check, spans or None)."""
    job.out.unlink(missing_ok=True)
    span_file = runner.work / "spans.json"
    if traced:
        span_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "tracer.py"), str(span_file)] + job.argv
        code, wall, rss = runner.spawn(cmd, "traced.log")
    else:
        code, wall, rss = runner.cli(job.argv)
    extra, trace = {}, None
    if code != 0:
        log = "traced.log" if traced else "cli.log"
        tally.record(False, f"exit {code}: {runner.log_tail(log)}")
        return wall, rss, extra, trace
    try:
        extra = job.check(json.loads(job.out.read_text()))
        if traced:
            trace = json.loads(span_file.read_text())
        tally.record(True, "")
    except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as err:
        tally.record(False, f"output check: {err}")
    return wall, rss, extra, trace


def measure(runner, job, seconds, trace):
    """Run the workload command repeatedly for `seconds` (at least MIN_CALLS
    times); returns (metrics, tally, info). With trace 0 the first
    SETUP_PROBES rounds also run a set-up probe and a reference run ends
    every round (one more starts the first); with trace 1 every round also
    runs the traced command."""
    tally = Tally()
    probe_cmd = [sys.executable, str(HERE / "probe.py"), json.dumps(job.probe)]
    # warm-up, untimed: byte-compiles the package if the checkout is fresh
    runner.spawn([sys.executable, "-c", "import rsfsmooth.cli"], "warmup.log")
    walls, rsss, setups, traced_walls, layers, ratios = [], [], [], [], [], []
    start = last_round = time.monotonic()
    refs = [] if trace else [reference(runner)]
    while True:
        now = time.monotonic()
        step = now - last_round  # duration of the previous round
        if walls and now + step > runner.deadline:
            break
        if len(walls) >= MIN_CALLS and now - start + step > seconds:
            break
        last_round = now
        if trace:
            # alternate which command of the round runs first
            traced_first = len(walls) % 2 == 1
            if traced_first:
                twall, _, _, span_list = checked_call(runner, job, tally, traced=True)
            wall, _, extra, _ = checked_call(runner, job, tally, traced=False)
            if not traced_first:
                twall, _, _, span_list = checked_call(runner, job, tally, traced=True)
            traced_walls.append(twall)
            if span_list is not None:
                m = spans.layer_metrics(span_list)
                m["trace.uncovered_s"] = twall - m["trace.covered_s"]
                layers.append(m)
        else:
            if len(setups) < SETUP_PROBES:
                code, setup, _ = runner.spawn(probe_cmd, "probe.log")
                tally.record(code == 0,
                             f"set-up probe exit {code}: {runner.log_tail('probe.log')}")
                setups.append(setup)
            wall, rss, extra, _ = checked_call(runner, job, tally, traced=False)
            rsss.append(rss)
            refs.append(reference(runner))
        walls.append(wall)
        if "var_ratio" in extra:
            ratios.append(extra["var_ratio"])
    med = statistics.median
    if not trace:
        values = {"wall_s": paced(walls, refs), "setup_s": paced(setups, refs),
                  "peak_rss_mb": med(rsss)}
        units = dict(END_TO_END)
    else:
        units = dict(spans.PER_LAYER)
        values = {name: med([m.get(name, 0.0) for m in layers]) if layers else 0.0
                  for name in units}
        values["experiments.var_ratio"] = med(ratios) if ratios else 0.0
        values["trace.overhead_s"] = med(traced_walls) - med(walls)
    info = {"walls": walls, "setups": setups, "refs": refs,
            "var_ratio": med(ratios) if ratios else None,
            "failed_frac": tally.failed / tally.attempted}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, tally, info


def paced(samples, refs):
    """Median of samples[i] over the mean of refs[i] and refs[i + 1], the
    reference runs just before and after it, scaled to REF_PACE_S."""
    return REF_PACE_S * statistics.median(
        t / ((a + b) / 2) for t, a, b in zip(samples, refs, refs[1:]))


def reference(runner):
    """Wall seconds of one run of the reference program."""
    code, wall, _ = runner.spawn([sys.executable, str(HERE / "reference.py")],
                                 "reference.log")
    if code != 0:
        raise RuntimeError(f"reference program exit {code}: "
                           f"{runner.log_tail('reference.log')}")
    return wall


def run_record(root, seed):
    """Machine, versions and commit the numbers were measured on."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "networkx")},
        "commit": commit, "seed": seed, "loadavg": list(os.getloadavg()),
    }


def run_workload(name, root, seed, seconds, trace):
    deadline = time.monotonic() + HARD_LIMIT_S
    work = root / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, deadline)

    def prep_cli(argv):
        code, _, _ = runner.cli(argv, "prep.log")
        if code != 0:
            raise RuntimeError(f"input generation failed: {runner.log_tail('prep.log')}")

    try:
        job = WORKLOADS[name](work, seed, prep_cli)
        metrics, tally, info = measure(runner, job, seconds, trace)
    except RuntimeError as err:
        sys.exit(f"error: {name}: {err}")
    for what in ("walls", "setups", "refs"):
        if info[what]:
            print(f"# {name}: raw {what} ({len(info[what])}): "
                  + " ".join(f"{w:.3f}" for w in info[what]))
    for metric, v in metrics.items():
        print(f"  {metric:28s} {v['value']:>16.6g} {v['unit']}")
    # reported here only: not steady enough to bound, or never 0 on a good run
    print(f"  {'wall_s.slowest':28s} {max(info['walls']):>16.6g} s")
    if info["refs"]:
        print(f"  {'wall_s.raw':28s} {statistics.median(info['walls']):>16.6g} s")
        print(f"  {'setup_s.raw':28s} {statistics.median(info['setups']):>16.6g} s")
        print(f"  {'reference_s':28s} {statistics.median(info['refs']):>16.6g} s")
    print(f"  {'failed_frac':28s} {info['failed_frac']:>16.6g} 1")
    if info["var_ratio"] is not None:
        print(f"  {'var_ratio':28s} {info['var_ratio']:>16.6g} 1")
    return metrics, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "rsfsmooth" / "cli.py").is_file():
        print("error: run from the repository root (src/rsfsmooth/cli.py not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("# run " + json.dumps(run_record(root, args.seed)))
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        m, tally = run_workload(name, root, args.seed, args.seconds, args.trace)
        attempted += tally.attempted
        failed += tally.failed
        metrics.update(m if len(names) == 1 else {f"{name}/{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
