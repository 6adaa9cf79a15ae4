"""End-to-end benchmark of the rdlab command line.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one table

A job is one ``rdlab`` invocation, run in-process through
``rdlab.cli.run_command`` with ``--out`` inside a work directory, so the
artifact and manifest are written as users get them.  A pass runs the
workload's jobs once, in order, in a closed loop (one client, one job at a
time); passes repeat until ``--seconds`` have elapsed.  Every job's artifact
is checked against mathematics and must have the same bytes in every pass.

A fixed pure-Python dict-update loop (``calibrate``) measures host speed.
It is timed before each job and after the last; a pass's ``calib_s`` is the
median of its loops.  A pass's ``wall_rel`` is the sum over its jobs of job
time over the mean of the two loops around the job, and the run's is the
median over passes.  It removes most of the host-speed drift that the raw
median pass time ``wall_s`` shows.

The workload is set up ``SETUP_REPEATS`` times, once before the first pass
and then after each pass, each time in a fresh Python process that imports
rdlab, writes the seeded inputs and builds the set-up caches, then times the
calibration loop.  ``setup_s`` is the median over set-ups of the time from
spawning that process to its ready mark, divided by that process's loop time
and multiplied by ``CALIB_REF_S``: set-up seconds on a host where the loop
takes ``CALIB_REF_S``, so that host drift between runs does not move it.

With ``--trace 0`` the result's metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced passes alternate, and the metrics are the
per-layer ones from the spans that ``spans.Tracer`` records (calls, counts
and ``self_rel``, a function's self time per traced pass over that pass's
``calib_s``); the spans are written to ``.perfbench-out/`` when the run ends.
The last line of stdout is the JSON result, and the line before it carries
the raw times and the environment (Python, numpy, scipy, nproc, CPU, seed,
commit).  The program reads and writes only under the checkout it is run
from, and needs ``src/rdlab`` there.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
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
from pathlib import Path

from spans import COUNTS, WRAPPED, Tracer
from workloads import WORKLOADS, CheckError, Inputs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
CALIB_STEPS = 400_000
# nominal calibration-loop seconds that setup_s is scaled to; the loop takes
# 0.045-0.075 s on a 2-vCPU Intel Xeon cloud host under Python 3.11
CALIB_REF_S = 0.05
CHILD_TIMEOUT_S = 170

# wall_s, the raw median pass time, is printed but not gated: on a shared
# host its speed drifts by up to 2x between runs, which wall_rel corrects for
END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {}
    for module, fn, _ in WRAPPED:
        name = f"{module}.{fn}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_rel"] = "ratio"
        for count in COUNTS.get(name, []):
            units[f"{name}.{count}"] = "count"
    units["cli.run_command.cache_hits"] = "count"
    units["host.calib_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def clock():
    # CLOCK_MONOTONIC is system-wide, so a child's ready mark compares with
    # the parent's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate():
    """Seconds one fixed dict-update loop takes on this host right now."""
    table = {}
    get = table.get
    start = time.perf_counter()
    for i in range(CALIB_STEPS):
        key = i & 1023
        table[key] = get(key, 0.0) + 0.5
    return time.perf_counter() - start


def import_rdlab():
    src = ROOT / "src"
    if not (src / "rdlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rdlab source at {src}; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(src))
    import rdlab.cli
    if Path(rdlab.__file__).resolve().parent != src / "rdlab":
        sys.exit(f"perfbench: imported rdlab from {rdlab.__file__}, not {src}")
    return rdlab.cli


def quiet_command(cli, argv):
    """run_command with the job's own stdout and stderr captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        start = time.perf_counter()
        try:
            code, error = cli.run_command(argv), None
        except Exception as exc:     # a job that raises is a failed job
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, error, elapsed, buffer.getvalue()


# -- set-up -------------------------------------------------------------------------


def setup_child(name, seed, directory):
    """Body of one set-up process: import, write inputs, build caches."""
    cli = import_rdlab()
    directory.mkdir(parents=True)
    inputs = Inputs(directory, seed)
    inputs.write()
    for i, template in enumerate(WORKLOADS[name].setup):
        out = directory / f"setup{i}.json"
        code, error, _, output = quiet_command(cli, inputs.argv(template)
                                               + ["--out", str(out)])
        if code != 0:
            sys.exit(f"perfbench: set-up {template!r} failed: "
                     f"{error or output.strip()}")
    ready = clock()
    calib = statistics.median(calibrate() for _ in range(3))
    print(f"ready {ready!r} {calib!r}")


def timed_setup(name, seed, directory):
    """Seconds from spawning a set-up process into ``directory`` to its
    ready mark, and the calibration loop's seconds in that process."""
    start = clock()
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only", str(directory)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    words = child.stdout.split()
    if child.returncode != 0 or len(words) != 3 or words[0] != "ready":
        sys.exit(f"perfbench: set-up process failed ({child.returncode}): "
                 f"{child.stderr.strip()}")
    return {"setup_s": float(words[1]) - start, "calib_s": float(words[2])}


def repeat_setup(name, seed, workdir, setups):
    """One more timed set-up, into a directory removed afterwards."""
    directory = workdir / f"setup{len(setups)}"
    setups.append(timed_setup(name, seed, directory))
    shutil.rmtree(directory)


# -- passes -------------------------------------------------------------------------


class PassRunner:
    """Runs passes of one workload and checks every job's artifact."""

    def __init__(self, cli, jobs, inputs, directory, tracer):
        self.cli = cli
        self.jobs = jobs
        self.inputs = inputs
        self.directory = directory
        self.tracer = tracer
        self.digests = {}        # job index -> artifact sha256 of its first pass
        self.failures = []       # (argv template, reason), one per failed job
        self.passes = []

    def run(self, traced):
        number = len(self.passes)
        calib, times, hits = [], [], 0
        if traced:
            self.tracer.install()
        try:
            for j, (template, check) in enumerate(self.jobs):
                calib.append(calibrate())
                out = self.directory / f"job{j}.out"
                manifest = Path(str(out) + ".manifest.json")
                for stale in (out, manifest):
                    stale.unlink(missing_ok=True)
                gc.collect()        # each job starts from a clean heap, as a
                                    # fresh rdlab process would
                if traced:
                    self.tracer.job = f"{number}.{j}"
                code, error, elapsed, output = quiet_command(
                    self.cli, self.inputs.argv(template) + ["--out", str(out)])
                times.append(elapsed)
                if error is None:
                    error = self._check(j, code, check, out, output)
                if error is None:
                    hits += self._cache_hits(manifest)
                else:
                    self.failures.append((template, error))
            calib.append(calibrate())
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.job = None
        # a job of several seconds sees the host speed change while it runs,
        # so its time is scaled by the mean of the loops on either side of it
        rel = sum(t / ((before + after) / 2)
                  for t, before, after in zip(times, calib, calib[1:]))
        self.passes.append({"traced": traced, "wall_s": sum(times),
                            "job_s": times, "calib": calib,
                            "calib_s": statistics.median(calib), "wall_rel": rel,
                            "cache_hits": hits})

    def _check(self, j, code, check, out, output):
        if code != 0:
            tail = output.strip().splitlines()[-1:] or [""]
            return f"exit {code}: {tail[0]}"
        try:
            data = out.read_bytes()
            check(data.decode("utf-8"))
        except (CheckError, OSError, ValueError, KeyError, TypeError,
                IndexError) as exc:
            return f"check failed: {type(exc).__name__}: {exc}"
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(j, digest) != digest:
            return "artifact bytes differ from the job's first pass"
        return None

    @staticmethod
    def _cache_hits(manifest):
        data = json.loads(manifest.read_text(encoding="utf-8"))
        if data["subcommand"] == "cache":   # its cache_files are files it wrote
            return 0
        return len(data["cache_files"])


def keep_running(passes, deadline, trace):
    kinds = {p["traced"] for p in passes}
    if trace and kinds != {False, True}:
        return True
    return not passes or time.perf_counter() < deadline


def per_pass(total, n):
    return total // n if total % n == 0 else total / n


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def layer_metrics(runner):
    traced = [p for p in runner.passes if p["traced"]]
    plain = [p for p in runner.passes if not p["traced"]]
    # a span's job id is "<pass>.<job>"; its self time is scaled by the
    # calibration loop of its own pass
    calib = {str(i): p["calib_s"] for i, p in enumerate(runner.passes)}
    self_rel = collections.Counter()
    for span in runner.tracer.spans:
        self_rel[span["name"]] += span["self"] / calib[span["job"].split(".")[0]]
    values = {}
    # the wrappers are installed only during traced passes
    for name, entry in runner.tracer.totals().items():
        values[f"{name}.calls"] = per_pass(entry["calls"], len(traced))
        values[f"{name}.self_rel"] = self_rel[name] / len(traced)
        for count in COUNTS.get(name, []):
            values[f"{name}.{count}"] = per_pass(entry.get(count, 0), len(traced))
    values["cli.run_command.cache_hits"] = per_pass(
        sum(p["cache_hits"] for p in runner.passes), len(runner.passes))
    values["host.calib_s"] = median_of(runner.passes, "calib_s")
    values["trace.overhead_frac"] = (median_of(traced, "wall_rel")
                                     / median_of(plain, "wall_rel") - 1.0)
    return values


# -- environment ---------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu_model(), "seed": seed, "commit": git_commit()}


# -- entry points -------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace):
    workdir = WORK / f"{name}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    cli = import_rdlab()
    try:
        directory = workdir / "inputs"
        setups = [timed_setup(name, seed, directory)]
        inputs = Inputs(directory, seed)
        tracer = Tracer()
        runner = PassRunner(cli, WORKLOADS[name].jobs(inputs), inputs,
                            directory, tracer)
        deadline = time.perf_counter() + seconds
        while keep_running(runner.passes, deadline, trace):
            runner.run(traced=trace and len(runner.passes) % 2 == 1)
            # spread the set-ups over the run so that their median sees the
            # same host-speed states as the passes; they do not use its time
            if len(setups) < SETUP_REPEATS:
                started = time.perf_counter()
                repeat_setup(name, seed, workdir, setups)
                deadline += time.perf_counter() - started
        while len(setups) < SETUP_REPEATS:
            repeat_setup(name, seed, workdir, setups)
        env = environment(seed)
        if trace:
            units = per_layer_units()
            metrics = {k: metric(v, units[k])
                       for k, v in layer_metrics(runner).items()}
            write_spans(name, seed, env, runner)
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {
                "wall_rel": median_of(runner.passes, "wall_rel"),
                "setup_s": CALIB_REF_S * statistics.median(
                    s["setup_s"] / s["calib_s"] for s in setups),
                "peak_rss_mb": rss_mb,
            }
            metrics = {k: metric(v, END_TO_END[k]) for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for (template, reason), count in collections.Counter(runner.failures).items():
        print(f"FAILED in {count} of {len(runner.passes)} passes: rdlab {template}: "
              f"{reason}", file=sys.stderr)
    print(json.dumps({"workload": name, "env": env,
                      "wall_s": median_of(runner.passes, "wall_s"),
                      "setups": setups, "passes": runner.passes}))
    attempted = len(runner.passes) * len(runner.jobs)
    failed = len(runner.failures)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_spans(name, seed, env, runner):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "env": env,
                                "passes": runner.passes,
                                "spans": runner.tracer.spans}) + "\n",
                    encoding="utf-8")


def run_all(args):
    """Each workload in its own fresh process, one at a time; prints a table."""
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if child.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited {child.returncode}")
        *_, info, result = child.stdout.strip().splitlines()
        info, result = json.loads(info), json.loads(result)
        results[name] = {**result, "env": info["env"]}
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        print(f"  {'failed_frac':32} {result['failed'] / result['attempted']:.6g} "
              "ratio")
        print(f"  {'wall_s':32} {info['wall_s']:.6g} s")
        for key, m in result["metrics"].items():
            print(f"  {key:32} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", dest="setup_only", type=Path,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only is not None:
        setup_child(args.workload, args.seed, args.setup_only)
    elif args.workload is None:
        run_all(args)
    else:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))))


if __name__ == "__main__":
    main()
