"""faceq benchmark: time verified reports of the paper's constructions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Each job runs ``python -m faceq.cli`` on the checkout's ``src/`` in a child
process, one at a time (a closed loop with one client).  The seed relabels
the workload's fixed quiver (vertex and arrow order shuffled, names
replaced by w<i>/a<i>) and rewrites its relations to match; the program
sees only the generated documents.  Every job's report is checked: exit
code 0, ``passed`` true, the seed-invariant dimension fields as recorded in
expected.json, and on the reference seed the report's sha256.

On a shared machine the same code can run a fifth faster or slower from
one minute to the next.  So every job and every block of set-up probes runs
between two timings of a fixed reference loop that never touches faceq,
and its times are scaled to a machine on which that loop takes
REF_NOMINAL_S.  The unscaled times are printed too.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs each job once untraced and once under trace_child.py and reports
per-layer calls and self time.  The last line of stdout is the JSON result;
the exit code is 0 only if every job passed its checks.  --selfcheck runs
every workload at degree 2 on the reference seed, both untraced and traced,
and finishes in seconds.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from trace_child import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# Jobs at degree 3 take 0.5-4 s, so a run holds many of them and each is
# short enough for its bracketing reference timings to share its moment.
DEGREE = 3
# Warm-up and self-check degree: every module is imported and compiled,
# yet a job takes well under a second.
SMALL_DEGREE = 2
PROBES_PER_CYCLE = 3
# The slowest job, verify-canonical traced, takes about 4 s; a job that
# runs 15 times as long is killed and counted as failed.  Warm-up, a 30 s
# window and one such job still end well inside 180 s.
JOB_TIMEOUT_S = 60
# What reference_loop takes on the machine the baseline was measured on.
REF_NOMINAL_S = 0.04
CHILD_ENV = {
    "PATH": os.environ.get("PATH", os.defpath),
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(SRC),
    "LC_ALL": "C.UTF-8",
}


def _binomials(coeffs):
    """Relations t_i t_j + c t_j t_i of the three-loop quiver."""
    return [[{"coeff": 1, "path": [f"t{i}", f"t{j}"]},
             {"coeff": c, "path": [f"t{j}", f"t{i}"]}]
            for (i, j), c in coeffs.items()]


def _quiver(vertices, arrows):
    return {"vertices": vertices,
            "arrows": [{"name": n, "source": s, "target": t} for n, s, t in arrows]}


THREE_LOOP = _quiver(["v"], [("t1", "v", "v"), ("t2", "v", "v"), ("t3", "v", "v")])
DOUBLED_THREE_CYCLE = _quiver(
    ["1", "2", "3"],
    [("p1", "1", "2"), ("p2", "2", "3"), ("p3", "3", "1"),
     ("p1*", "2", "1"), ("p2*", "3", "2"), ("p3*", "1", "3")])


@dataclass(frozen=True)
class Workload:
    command: tuple
    quiver: dict
    relations: list
    fields: tuple  # report fields that every relabelling leaves unchanged


# Why each workload is here: see README.md.
WORKLOADS = {
    # kQ/I = k[t1,t2,t3], integer scalars: the projection path.
    "uqsgd-quotient": Workload(
        ("uqsgd", "--side", "trans"), THREE_LOOP,
        _binomials({(1, 2): -1, (1, 3): -1, (2, 3): -1}),
        ("quotientDims", "algebraDims")),
    # q-commutators with non-integer rationals: elimination, no projection.
    "dual-transport": Workload(
        ("dual",), THREE_LOOP,
        _binomials({(1, 2): "-2", (1, 3): "1/2", (2, 3): "-3/4"}),
        ("primalDims", "dualDims")),
    # Checks only, on a multi-vertex quiver where many paths do not compose.
    "verify-canonical": Workload(
        ("verify",), DOUBLED_THREE_CYCLE, None, ("dims", "counitalDims")),
}


def relabel(workload, seed):
    """The workload's documents under the seed's vertex and arrow relabelling."""
    rng = random.Random(seed)
    vertices = list(workload.quiver["vertices"])
    arrows = list(workload.quiver["arrows"])
    rng.shuffle(vertices)
    rng.shuffle(arrows)
    vname = {old: f"w{i}" for i, old in enumerate(vertices)}
    aname = {a["name"]: f"a{i}" for i, a in enumerate(arrows)}
    quiver = _quiver([vname[v] for v in vertices],
                     [(aname[a["name"]], vname[a["source"]], vname[a["target"]])
                      for a in arrows])
    if workload.relations is None:
        return quiver, None
    relations = [[{"coeff": t["coeff"], "path": [aname[s] for s in t["path"]]}
                  for t in rel] for rel in workload.relations]
    return quiver, relations


def reference_loop():
    """Time a fixed piece of pure-Python work that never touches faceq.

    Rational and dictionary arithmetic, as in faceq's own inner loops, so
    that both slow down alike when the machine is busy.
    """
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 4000):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    for i in range(60000):
        table[i % 977] = table.get(i % 977, 0) + i
    return time.perf_counter() - start


def bracketed(measure, refs):
    """measure() and the factor that scales its times to the nominal machine.

    refs holds the reference timings so far; the last one was taken just
    before measure() and one more is taken just after it.
    """
    result = measure()
    refs.append(reference_loop())
    return result, 2 * REF_NOMINAL_S / (refs[-2] + refs[-1])


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float


def spawn(argv, stderr_path):
    """Run argv to completion; time it from spawn until it has been reaped."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Bench:
    """One benchmark run: generated inputs, expectations and the job tally."""

    def __init__(self, name, seed, work, expected):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        quiver, relations = relabel(self.workload, seed)
        self.inputs = [str(self._write(f"{name}-quiver.json", quiver))]
        if relations is not None:
            self.inputs.append(str(self._write(f"{name}-relations.json", relations)))

    def _write(self, filename, doc):
        path = self.work / filename
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def cli_args(self, degree, report):
        args = [*self.workload.command, "--quiver", self.inputs[0]]
        if len(self.inputs) > 1:
            args += ["--relations", self.inputs[1]]
        return args + ["--max-degree", str(degree), "--out", str(report)]

    def _tally(self, problem, job):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAILED {self.name} seed {self.seed} {job}: {problem}", file=sys.stderr)

    def job(self, degree, tag, traced=False):
        """Run one report job and check it; returns (Child, report bytes)."""
        report = self.work / f"{tag}.report.json"
        stderr = self.work / f"{tag}.stderr"
        argv = [sys.executable, "-m", "faceq.cli"]
        if traced:
            argv = [sys.executable, str(HERE / "trace_child.py"),
                    str(self.work / f"{tag}.spans.json"), f"{self.name}-{self.seed}-{tag}"]
        child = spawn(argv + self.cli_args(degree, report), stderr)
        data = report.read_bytes() if report.exists() else b""
        self._tally(self.check(degree, child.code, data, stderr), tag)
        return child, data

    def check(self, degree, code, data, stderr):
        if code != 0:
            tail = stderr.read_text(encoding="utf-8", errors="replace")[-400:]
            return f"exit code {code}: {tail}"
        try:
            doc = json.loads(data)
        except ValueError:
            return "report is not JSON"
        if doc.get("passed") is not True:
            return "report has passed != true"
        want = self.expected["workloads"][self.name][str(degree)]
        for field in self.workload.fields:
            if doc.get(field) != want["fields"][field]:
                return f"{field} is {doc.get(field)!r}, expected {want['fields'][field]!r}"
        if self.seed == self.expected["reference_seed"]:
            digest = hashlib.sha256(data).hexdigest()
            if digest != want["sha256"]:
                return f"report sha256 {digest}, expected {want['sha256']}"
        return None

    def setup_probe(self, tag):
        child = spawn([sys.executable, str(HERE / "probe.py"), *self.inputs],
                      self.work / f"{tag}.stderr")
        self._tally(None if child.code == 0 else f"exit code {child.code}", tag)
        return child.wall_s


def _until(seconds, step):
    """Call step() until the next call would overrun the window; at least once."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def _tail(values):
    """The highest of p99/p95/p90/p75 with at least ten samples above it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return "fewer than 40 jobs, so no percentile above the median has ten beyond it"


def measure_end_to_end(bench, degree, seconds):
    """Cycles of job, reference, probe block, reference until the window ends."""
    refs = [reference_loop()]
    jobs, setup = [], []

    def cycle(i):
        jobs.append(bracketed(lambda: bench.job(degree, f"job{i}")[0], refs))
        block, scale = bracketed(
            lambda: [bench.setup_probe(f"probe{i}.{k}") for k in range(PROBES_PER_CYCLE)], refs)
        setup.extend((p, scale) for p in block)

    _until(seconds, cycle)
    walls = [j.wall_s * scale for j, scale in jobs]
    metrics = {
        "report_wall_ref_s": (statistics.median(walls), "s"),
        "report_cpu_ref_s": (statistics.median(j.cpu_s * scale for j, scale in jobs), "s"),
        "peak_rss_mb": (statistics.median(j.rss_mib for j, _ in jobs), "MiB"),
        "setup_s": (statistics.median(p * scale for p, scale in setup), "s"),
    }
    notes = {
        "report_wall_ref_s": f"median of {len(jobs)} jobs; {_tail(walls)}; unscaled median "
                             f"{statistics.median(j.wall_s for j, _ in jobs):.4f} s",
        "report_cpu_ref_s": "unscaled median "
                            f"{statistics.median(j.cpu_s for j, _ in jobs):.4f} s",
        "setup_s": f"median of {len(setup)} probes; unscaled median "
                   f"{statistics.median(p for p, _ in setup):.4f} s",
    }
    print(f"{bench.name} reference_loop median {statistics.median(refs):.4f} s over {len(refs)} "
          f"timings; times are scaled to {REF_NOMINAL_S} s")
    return metrics, notes


def _layer_metrics(spans_doc):
    """Per-name call counts and self times (duration minus direct children)."""
    spans = spans_doc["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - covered[i]
    return calls, self_s


def measure_layers(bench, degree, seconds):
    def pair(i):
        plain, _ = bench.job(degree, f"plain{i}")
        traced, data = bench.job(degree, f"traced{i}", traced=True)
        spans_path = bench.work / f"traced{i}.spans.json"
        # A traced child that failed (already tallied) may have left no spans.
        spans_doc = (json.loads(spans_path.read_text(encoding="utf-8"))
                     if spans_path.exists() else {"spans": [], "counts": {}})
        calls, self_s = _layer_metrics(spans_doc)
        return {"plain_s": plain.wall_s, "traced_s": traced.wall_s, "bytes": len(data),
                "counts": spans_doc["counts"], "calls": calls, "self_s": self_s}

    pairs = _until(seconds, pair)
    n = len(pairs)

    def per_job(get):
        return sum(get(p) for p in pairs) / n

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (per_job(lambda p: p["calls"][name]), "count")
        metrics[f"{name}.self_s"] = (per_job(lambda p: p["self_s"][name]), "s")
    adds = per_job(lambda p: p["calls"]["linalg.Echelon.add"])
    grew = per_job(lambda p: p["counts"].get("linalg.Echelon.add.rank_grew", 0))
    metrics["linalg.Echelon.add.useful_ratio"] = (grew / adds if adds else 0.0, "ratio")
    metrics["wba.product_entries"] = (
        per_job(lambda p: p["counts"].get("wba.product_entries", 0)), "count")
    metrics["cli.report_bytes"] = (per_job(lambda p: p["bytes"]), "bytes")
    metrics["trace.overhead_s"] = (statistics.median(p["traced_s"] for p in pairs)
                                   - statistics.median(p["plain_s"] for p in pairs), "s")
    return metrics, {"trace.overhead_s": f"traced minus untraced wall, {n} pairs"}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the reference
    loop and the jobs it scales run where the same neighbours slow them."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _print_environment(cpu):
    print(f"env: python {sys.version.split()[0]}, nproc {os.cpu_count()}, cpu {_cpu_model()!r}, "
          f"pinned to cpu {cpu}, PYTHONHASHSEED={CHILD_ENV['PYTHONHASHSEED']}, "
          f"PYTHONPATH={CHILD_ENV['PYTHONPATH']}")


def _print_metrics(name, metrics, notes):
    for metric, (value, unit) in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{name} {metric} = {value} {unit}{note}")


def _print_failures(name, bench):
    print(f"{name} failed_frac = {bench.failed / bench.attempted} ratio "
          f"({bench.failed} of {bench.attempted} jobs)")


def _result(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    })


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true",
                        help=f"every workload at degree {SMALL_DEGREE}, reference seed, traced too")
    args = parser.parse_args(argv)
    if not args.selfcheck and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required without --selfcheck")
    return args


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "faceq" / "cli.py").is_file():
        print(f"no faceq sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        _print_environment(_pin_to_one_cpu())
        if args.selfcheck:
            return _selfcheck(work, expected)
        bench = Bench(args.workload, args.seed, work, expected)
        bench.job(SMALL_DEGREE, "warmup")
        reference_loop()
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, notes = measure(bench, DEGREE, args.seconds)
        _print_metrics(args.workload, metrics, notes)
        _print_failures(args.workload, bench)
        print(_result(bench.attempted, bench.failed, metrics))
        return 0 if bench.failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _selfcheck(work, expected):
    attempted = failed = 0
    for name in WORKLOADS:
        bench = Bench(name, expected["reference_seed"], work, expected)
        for measure in (measure_end_to_end, measure_layers):
            metrics, notes = measure(bench, SMALL_DEGREE, 0)
            _print_metrics(name, metrics, notes)
        _print_failures(name, bench)
        attempted += bench.attempted
        failed += bench.failed
    print(_result(attempted, failed, {}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
