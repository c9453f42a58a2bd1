"""morava-k2 benchmark: real CLI jobs, one child process at a time.

    python3 perfbench/run.py --workload answer|verify|chart --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record

Run from the root of a checkout; the package is imported from its `src`.
A pass runs every job of the workload once, in an order the seed permutes,
as a closed loop with a single client: the next `python -m morava_k2.cli`
child starts when the previous one has exited.  `--trace 0` repeats passes
while the next one fits in `--seconds`, runs calibrate.py just before each
job, and reports times scaled to a reference machine speed (README.md,
"Noise");
`--trace 1` runs one untraced and one traced pass and reports per-layer
spans and counts.  Every job's output is checked against reference.json.
The last stdout line is the JSON result; work files go to `.perfbench/`.
See README.md for the metrics and what each should respond to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
CALIBRATE = HERE / "calibrate.py"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 7
# calibrate.py's time on the reference machine, a quiet 2-vCPU Intel Xeon
# (family 6, model 143) VM.  Each job's time is scaled by CAL_REF_S over the
# time of the calibrate.py children run around it.  Fixed: changing it
# rescales every result.
CAL_REF_S = 0.23
RUN_BUDGET_S = 165.0  # every run must end well inside 180 s

# End-to-end metrics of the result line.  ref_wall_s, ref_cpu_s and setup_s
# are times at the reference machine speed, medians over repeats; peak_rss_mb
# is a median over passes.  The unscaled times and error_rate are printed but
# not part of it: on a shared 2-vCPU machine the unscaled times of runs minutes
# apart differed by up to half, and error_rate is 0 on a correct program;
# `failed` and `attempted` carry it.
END_TO_END = {"ref_wall_s": "s", "ref_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics: (span name, stats).  A stat is calls, self_s, total_s,
# distinct, or the span's work count under its own name.
SPAN_STATS = [
    ("graded_algebra.PoincareSeries.mul", ("calls", "self_s", "coeff_pairs")),
    ("graded_algebra.TensorExpression.poincare", ("calls", "self_s")),
    ("km2.qn_homology", ("calls", "distinct", "self_s", "total_s")),
    ("km2.rref_modp", ("calls", "entries", "self_s")),
    ("km2.nullspace_modp", ("calls", "entries", "self_s")),
    ("km2.total_dims", ("calls", "monomials")),
    ("km2.qn_square_check", ("self_s",)),
    ("ss_engine.run_bruteforce", ("calls", "self_s", "towers")),
    ("ss_engine.run_closed_form", ("calls", "self_s")),
    ("ss_engine.e2_closed_form", ("calls", "self_s")),
    ("ss_engine.zp_family_counts", ("calls",)),
    ("ss_engine.Page.chart_dims", ("calls", "self_s")),
    ("ss_engine.oracle_match", ("self_s",)),
    ("ss_engine.pairing_check", ("self_s",)),
    ("ss_engine.uct_matches", ("self_s",)),
    ("answer.closed_form", ("calls", "self_s")),
    ("answer.poincare_answer", ("calls", "self_s")),
    ("answer.to_page", ("self_s",)),
    ("answer.bockstein_check", ("self_s",)),
    ("numerology.identity_suite", ("self_s",)),
    ("cli.serialize_answer", ("self_s",)),
    ("cli.cmd_compute", ("total_s",)),
    ("cli.cmd_verify", ("total_s",)),
    ("cli.cmd_table", ("total_s",)),
]
LAYERS = ("graded_algebra", "km2", "ss_engine", "answer", "numerology", "cli")
TRACE_WALLS = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")
COUNT_STATS = ("calls", "distinct", "coeff_pairs", "entries", "monomials", "towers")


def per_layer_names() -> list[str]:
    names = [f"{span}.{stat}" for span, stats in SPAN_STATS for stat in stats]
    return names + [f"{layer}.self_s" for layer in LAYERS] + list(TRACE_WALLS)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return "s" if name.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# children


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("MORAVA_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(var, None)
    env["PYTHONHASHSEED"] = "0"
    # numpy's BLAS and OpenMP pools would otherwise start one thread per CPU.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


class Children:
    """Starts one child at a time and measures it with os.wait4."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = child_env()
        # An empty working directory keeps the package's own tree off sys.path.
        self.cwd = WORK / "cwd"
        self.cwd.mkdir(parents=True, exist_ok=True)
        self.out = WORK / "out"
        self.out.mkdir(parents=True, exist_ok=True)

    def run(self, cmd: list[str], tag: str) -> dict:
        """Run cmd to completion; stdout and stderr go to files named by tag."""
        stdout_path = self.out / f"{tag}.stdout"
        with open(stdout_path, "wb") as out, open(self.out / f"{tag}.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.cwd, env=self.env)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode,
            "stdout": stdout_path,
        }


def calibrate(children: Children, tag: str) -> dict:
    """One calibrate.py child, whose times say how fast the machine is now."""
    r = children.run([sys.executable, str(CALIBRATE)], tag)
    if r["returncode"] != 0:
        raise SystemExit("error: calibrate.py failed")
    return {"wall_s": r["wall_s"], "cpu_s": r["cpu_s"]}


def measure_setup(children: Children) -> list[tuple[float, float]]:
    """(import, calibration) time pairs, after one warm-up of each.

    The import is child start-up plus `import morava_k2.cli`; each is paired
    with the calibration child run just before it.
    """
    cmd = [sys.executable, "-c", "import morava_k2.cli"]
    warm = children.run(cmd, "setup-warmup")
    if warm["returncode"] != 0:
        raise SystemExit(f"error: cannot import morava_k2.cli from {SRC}")
    calibrate(children, "cal-warmup")
    pairs = []
    for i in range(SETUP_REPEATS):
        cal = calibrate(children, f"cal-setup-{i}")
        r = children.run(cmd, f"setup-{i}")
        if r["returncode"] != 0:
            raise SystemExit("error: importing morava_k2.cli failed")
        pairs.append((r["wall_s"], cal["wall_s"]))
    return pairs


def run_pass(children, argvs, order, tag, reference, traced=False, paired=False, plant=None) -> dict:
    """Run the jobs `argvs` once in `order`, then check every output.

    paired runs a calibrate.py child before the first job and after every job,
    and keeps with each job the mean times of the two children around it.
    plant(argv, stdout) -> stdout corrupts an output before it is checked,
    which the self-test uses to show that the check can fail.
    """
    results = []
    cals = [calibrate(children, f"{tag}-cal")] if paired else []
    for idx in order:
        job_id = f"{tag}-job{idx}"
        spans = str(children.out / f"{job_id}.spans.json") if traced else None
        if traced:
            cmd = [sys.executable, str(TRACER), spans, job_id]
        else:
            cmd = [sys.executable, "-m", "morava_k2.cli"]
        results.append(children.run(cmd + argvs[idx], job_id) | {"argv": argvs[idx], "spans": spans})
        if paired:
            cals.append(calibrate(children, f"{job_id}-cal"))
            results[-1]["cal"] = {k: (cals[-2][k] + cals[-1][k]) / 2 for k in ("wall_s", "cpu_s")}
    for r in results:
        stdout = r["stdout"].read_bytes()
        if plant is not None:
            stdout = plant(r["argv"], stdout)
        r["error"] = jobs.check(r["argv"], r["returncode"], stdout, reference)
        r["stdout"] = str(r["stdout"])
    return {
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "max_job_s": max(r["wall_s"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "failed": sum(r["error"] is not None for r in results),
        "jobs": results,
    }


def at_ref_speed(passes: list[dict], stat: str) -> float:
    """One pass's `stat` (wall_s or cpu_s) at the reference machine speed.

    Σ over the job list of CAL_REF_S times the median, over the job's
    repeats, of its `stat` over the mean `stat` of the calibrate.py children
    run just before and just after it.
    """
    ratios = defaultdict(list)
    for p in passes:
        for j in p["jobs"]:
            ratios[jobs.job_key(j["argv"])].append(j[stat] / j["cal"][stat])
    return CAL_REF_S * sum(statistics.median(r) for r in ratios.values())


# ---------------------------------------------------------------------------
# spans


def span_stats(pass_result: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced pass."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    work = defaultdict(int)
    distinct = defaultdict(int)
    for job in pass_result["jobs"]:
        if not os.path.exists(job["spans"]):
            continue  # killed before writing spans; already counted as failed
        with open(job["spans"]) as fh:
            spans = json.load(fh)["spans"]
        covered = defaultdict(float)
        for _sid, parent, _name, t0, t1, _work, _key in spans:
            if parent is not None:
                covered[parent] += t1 - t0
        keys = defaultdict(set)
        for sid, _parent, name, t0, t1, w, key in spans:
            calls[name] += 1
            total_s[name] += t1 - t0
            self_s[name] += t1 - t0 - covered[sid]
            if w is not None:
                work[name] += w
            if key is not None:
                keys[name].add(key)
        for name, ks in keys.items():
            distinct[name] += len(ks)
    table = {"calls": calls, "self_s": self_s, "total_s": total_s, "distinct": distinct}
    out = {f"{span}.{stat}": table.get(stat, work)[span] for span, stats in SPAN_STATS for stat in stats}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    return out


# ---------------------------------------------------------------------------
# run context


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else unknown."""
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
    return "unknown"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_context() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "loadavg_start": _loadavg(),
    }


# ---------------------------------------------------------------------------
# modes


def pass_orders(n_jobs: int, seed: int):
    rng = random.Random(seed)
    while True:
        order = list(range(n_jobs))
        rng.shuffle(order)
        yield order


def print_jobs(label: str, p: dict) -> None:
    print(f"{label}: wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
          f"max job {p['max_job_s']:.3f} s, peak rss {p['peak_rss_mb']:.1f} MB")
    for j in p["jobs"]:
        status = "ok" if j["error"] is None else f"FAILED ({j['error']})"
        print(f"  {j['wall_s']:8.3f} s  {j['rss_mb']:7.1f} MB  {' '.join(j['argv'])}  {status}")


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    children = Children(start + RUN_BUDGET_S)
    reference = jobs.load_reference()
    argvs = jobs.WORKLOADS[workload][1]
    orders = pass_orders(len(argvs), seed)
    context = run_context()
    tag = f"{workload}-s{seed}-t{int(trace)}"
    setup = measure_setup(children)
    passes = []
    measured_from = time.monotonic()
    if trace:
        order = next(orders)
        plain = run_pass(children, argvs, order, f"{tag}-plain", reference)
        traced = run_pass(children, argvs, order, f"{tag}-traced", reference, traced=True)
        passes = [plain, traced]
        metrics = span_stats(traced)
        metrics["trace.untraced_wall_s"] = plain["wall_s"]
        metrics["trace.traced_wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        printed = metrics
    else:
        pace = 0.0
        # Start another pass only while, at the last pass's pace, it ends in time.
        while not passes or min(measured_from + seconds, children.deadline) >= time.monotonic() + pace:
            t0 = time.monotonic()
            passes.append(run_pass(children, argvs, next(orders), f"{tag}-p{len(passes)}", reference,
                                   paired=True))
            pace = time.monotonic() - t0
        metrics = {
            "ref_wall_s": at_ref_speed(passes, "wall_s"),
            "ref_cpu_s": at_ref_speed(passes, "cpu_s"),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": CAL_REF_S * statistics.median(imp / c for imp, c in setup),
        }
        printed = metrics | {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "max_job_s": statistics.median(p["max_job_s"] for p in passes),
            "calibrate_s": statistics.median(j["cal"]["wall_s"] for p in passes for j in p["jobs"]),
            "import_s": statistics.median(imp for imp, _cal in setup),
        }
    context["loadavg_end"] = _loadavg()
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"workload {workload}: {jobs.WORKLOADS[workload][0]}")
    print("context " + json.dumps(context))
    for i, p in enumerate(passes):
        print_jobs(("traced pass" if trace and i else "pass") + f" {i}", p)
    print(f"setup (import, calibrate) s: {' '.join(f'({i:.3f}, {c:.3f})' for i, c in setup)}")
    for name, value in printed.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"error_rate = {failed / attempted:.6g} (share of {attempted} jobs)")
    if trace:
        wall = metrics["trace.traced_wall_s"]
        shares = ", ".join(f"{l} {metrics[l + '.self_s'] / wall:.1%}" for l in LAYERS)
        print(f"layer self time as a share of traced wall: {shares}")

    (WORK / "results").mkdir(exist_ok=True)
    with open(WORK / "results" / f"{tag}.json", "w") as fh:
        json.dump({"context": context, "setup": setup, "passes": passes, "printed": printed}, fh, indent=1)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def record() -> int:
    """Write reference.json from one run of every job on the current code."""
    children = Children(time.monotonic() + 3600.0)
    out = {}
    for name, (_why, argvs) in jobs.WORKLOADS.items():
        for i, argv in enumerate(argvs):
            r = children.run([sys.executable, "-m", "morava_k2.cli"] + argv, f"record-{name}-{i}")
            if r["returncode"] != 0:
                print(f"error: {' '.join(argv)} exited {r['returncode']}", file=sys.stderr)
                return 1
            out[jobs.job_key(argv)] = jobs.fingerprint(argv, r["stdout"].read_bytes())
            print(f"{r['wall_s']:7.2f} s  {' '.join(argv)}")
    doc = {"recorded_at_commit": _git_commit(), "jobs": out}
    jobs.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def _plant_wrong(argv: list[str], stdout: bytes) -> bytes:
    if argv[0] == "compute":
        data = json.loads(stdout)
        data["poincare"][-1]["dim"] += 1
        return json.dumps(data).encode()
    if argv[0] == "verify":
        return stdout.replace(b"PASS\t", b"FAIL\t", 1)
    return stdout + b"x\n"


def _plant_extra_key(argv: list[str], stdout: bytes) -> bytes:
    if argv[0] != "compute":
        return stdout
    data = json.loads(stdout)
    data["added_by_self_test"] = True
    return json.dumps(data).encode()


def self_test() -> int:
    """Show that the output check can fail and that traced counts repeat."""
    small = [argvs[1 if name != "chart" else 0] for name, (_w, argvs) in jobs.WORKLOADS.items()]
    children = Children(time.monotonic() + 600.0)
    reference = jobs.load_reference()
    order = list(range(len(small)))
    ok = True

    def expect(label: str, cond: bool) -> None:
        nonlocal ok
        ok &= cond
        print(f"{'PASS' if cond else 'FAIL'}  {label}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect("BENCHMARK.json declares exactly the workloads and metrics emitted here",
           [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
           and {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
           and {m["name"]: m["unit"] for m in spec["per_layer"]}
           == {n: unit_of(n) for n in per_layer_names()})
    clean = run_pass(children, small, order, "selftest-clean", reference)
    expect("clean outputs give error_rate 0", clean["failed"] == 0)
    wrong = run_pass(children, small, order, "selftest-planted", reference, plant=_plant_wrong)
    expect(f"planted wrong outputs give error_rate {wrong['failed'] / len(small):.2f} > 0",
           wrong["failed"] == len(small))
    extra = run_pass(children, small, order, "selftest-extra-key", reference, plant=_plant_extra_key)
    expect("an added compute JSON key is not a failure", extra["failed"] == 0)
    counts = []
    for k in range(2):
        traced = run_pass(children, small, order, f"selftest-traced{k}", reference, traced=True)
        expect(f"traced pass {k} outputs are correct", traced["failed"] == 0)
        stats = span_stats(traced)
        counts.append({m: v for m, v in stats.items() if m.rsplit(".", 1)[1] in COUNT_STATS})
    expect(f"two traced passes repeat all {len(counts[0])} counts exactly", counts[0] == counts[1])
    expect("traced counts include rref entries and brute-force towers",
           counts[0]["km2.rref_modp.entries"] > 0 and counts[0]["ss_engine.run_bruteforce.towers"] > 0)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "morava_k2" / "cli.py").is_file():
        print(f"error: no morava_k2 package under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if not jobs.REFERENCE.is_file():
        print(f"error: missing {jobs.REFERENCE}; run with --record", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
