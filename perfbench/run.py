#!/usr/bin/env python3
"""Benchmark of the cchar tool chain, end to end and per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper_suite --seed 1 \
        --seconds 20 --trace 0

The first run builds cchar and the traced driver into .bench_build/.
A run sets up the workload's inputs with cchar (several times; the
median is setup_s), then repeats passes of the workload's ops until
--seconds have elapsed and at least MIN_PASSES passes ran.

--trace 0 times the cchar binary, one child process at a time, and
reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs every
op twice per pass, through cchar and through perfbench_driver (the
same library calls in the CLI's order, with a span around each layer),
checks that both wrote the same bytes, and reports the per-layer
metrics. Every op's output is checked; the last line of stdout is the
JSON result. A record with a provenance stamp is written under
.bench_build/records/ (compare two with perfbench/compare.py).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BUILD = Path(".bench_build")
REPO_BUILD = BUILD / "repo"
DRIVER_BUILD = BUILD / "driver"
CCHAR = REPO_BUILD / "tools" / "cchar"
DRIVER = DRIVER_BUILD / "perfbench_driver"
HERE = Path(__file__).resolve().parent

MIN_PASSES = 3
SETUP_REPS = 9
OP_TIMEOUT_S = 150.0

# The paper's eight applications at paper scale (16 procs, 4x4 mesh).
PAPER_APPS = ["1d-fft", "is", "cholesky", "maxflow", "nbody", "sor",
              "3d-fft", "mg"]
MP_APPS = ["3d-fft", "mg"]
SYNTH_PROCS = 64
SYNTH_MESSAGES = 250_000
LINK_PLAN = "link:5->6:down@[0ms,1000ms]; router:9:stall=50@[0ms,1000ms]"
DROP_PLAN = "drop:p=0.001"
DROP_SEEDS = 8


class BenchError(Exception):
    """A failure that stops the run: exit code and message."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# --------------------------------------------------------------------
# Build


def source_digest():
    """Hash of every file the two binaries are built from."""
    h = hashlib.sha256()
    files = [Path("CMakeLists.txt"), HERE / "CMakeLists.txt",
             HERE / "driver.cc"]
    for top in ("src", "tools"):
        files += sorted(p for p in Path(top).rglob("*") if p.is_file())
    for path in files:
        h.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def build():
    if not (Path("src").is_dir() and Path("tools/cchar.cc").is_file()):
        raise BenchError(2, "run from the root of a repository checkout "
                            "(src/ and tools/cchar.cc not found)")
    digest = source_digest()
    stamp = BUILD / "source.digest"
    if (stamp.is_file() and stamp.read_text() == digest
            and CCHAR.is_file() and DRIVER.is_file()):
        return digest
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", ".", "-B", str(REPO_BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(REPO_BUILD), "-j", jobs, "--target",
         "cchar", "sweep"],
        ["cmake", "-S", str(HERE), "-B", str(DRIVER_BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         "-DCCHAR_BUILD_DIR=" + str(REPO_BUILD.resolve())],
        ["cmake", "--build", str(DRIVER_BUILD), "-j", jobs],
    ]
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            print("build: " + " ".join(cmd), file=sys.stderr, flush=True)
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL).returncode
            if rc != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError(3, "build failed:\n" + "\n".join(tail))
    stamp.write_text(digest)
    return digest


def provenance(digest, seed):
    """Build type, compiler, CPU, core count, revision and seed."""
    stamp = {"build_type": "", "compiler": "", "cpu_model": "",
             "nproc": os.cpu_count(), "git_rev": "none",
             "source_digest": digest, "seed": seed}
    for line in (REPO_BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            stamp["build_type"] = line.split("=", 1)[1]
    for cfg in sorted((REPO_BUILD / "CMakeFiles").glob(
            "*/CMakeCXXCompiler.cmake")):
        fields = {}
        for line in cfg.read_text().splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith("set(%s " % key):
                    fields[key] = line.split('"')[1]
        stamp["compiler"] = "%s %s" % (
            fields.get("CMAKE_CXX_COMPILER_ID", "?"),
            fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    stamp["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if Path(".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            stamp["git_rev"] = out.stdout.strip()
    return stamp


# --------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stderr: str


def run_child(argv, stdout_path, log_path):
    """Run one process to completion; wall, CPU and peak RSS from wait4."""
    with open(stdout_path, "wb") as out, open(log_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0,
                 Path(log_path).read_text(errors="replace")[-2000:])


# --------------------------------------------------------------------
# Workloads


@dataclass
class Op:
    """One cchar invocation and its traced-driver twin."""
    label: str
    cli: list            # cchar arguments
    stdout: str          # file name for cchar's stdout
    output: str          # deterministic output file (hashed, compared)
    driver: list         # perfbench_driver arguments
    driver_output: str
    check: object        # fn(doc) -> list of problems
    messages: object     # fn(doc) -> messages simulated
    ks: object           # fn(doc) -> worst KS distance in the output
    extra_driver: list = field(default_factory=list)


def _report_problems(doc):
    return [] if doc.get("verified") is True else ["verified is not true"]


def characterize_op(app, work):
    def check(doc):
        problems = _report_problems(doc)
        if doc.get("application") != app:
            problems.append("application is %r" % doc.get("application"))
        return problems
    return Op(
        label="characterize " + app,
        cli=["characterize", app, "--json", "--report-out",
             str(work / ("cli-%s.html" % app))],
        stdout="cli-%s.json" % app, output="cli-%s.json" % app,
        driver=["characterize", app, "--json-out",
                str(work / ("drv-%s.json" % app)), "--report-out",
                str(work / ("drv-%s.html" % app))],
        driver_output="drv-%s.json" % app,
        check=check,
        messages=lambda doc: doc["volume"]["messages"],
        ks=lambda doc: doc["temporal"]["aggregate"]["ks"])


def synth_op(model, seed, work):
    def check(doc):
        problems = _report_problems(doc)
        if doc["volume"]["messages"] != SYNTH_MESSAGES:
            problems.append("volume.messages %d != budget %d" % (
                doc["volume"]["messages"], SYNTH_MESSAGES))
        if doc["synthFidelity"]["seed"] != seed:
            problems.append("synthFidelity.seed is not the run seed")
        return problems
    args = [str(model), "--scale-procs", str(SYNTH_PROCS), "--messages",
            str(SYNTH_MESSAGES), "--seed", str(seed)]
    return Op(
        label="synth",
        cli=["synth"] + args + ["--json"],
        stdout="cli-synth.json", output="cli-synth.json",
        driver=["synth"] + args + ["--json-out",
                                   str(work / "drv-synth.json")],
        driver_output="drv-synth.json",
        check=check,
        messages=lambda doc: doc["volume"]["messages"],
        ks=lambda doc: doc["synthFidelity"]["maxKs"])


def sweep_op(name, spec, jobs, work):
    def check(doc):
        problems = []
        if len(doc["jobs"]) != jobs:
            problems.append("%d jobs, expected %d" % (len(doc["jobs"]), jobs))
        for job in doc["jobs"]:
            if job["status"] != "ok" or not job["verified"]:
                problems.append("job %d (%s) status %s verified %s" % (
                    job["index"], job["app"], job["status"],
                    job["verified"]))
        return problems

    def ks(doc):
        return max([max(j["synth_temporal_ks"], j["synth_spatial_ks"],
                        j["synth_volume_ks"]) for j in doc["jobs"]] + [0.0])
    return Op(
        label="sweep " + name,
        cli=["sweep", "--spec", str(spec), "-j", "2", "--out",
             str(work / ("cli-%s.json" % name)), "--csv",
             str(work / ("cli-%s.csv" % name))],
        stdout="cli-%s.out" % name, output="cli-%s.json" % name,
        driver=["sweep", "--spec", str(spec), "-j", "2", "--out",
                str(work / ("drv-%s.json" % name)), "--csv",
                str(work / ("drv-%s.csv" % name))],
        driver_output="drv-%s.json" % name,
        check=check,
        messages=lambda doc: sum(j["messages"] for j in doc["jobs"]),
        ks=ks,
        extra_driver=[["sweep-jobs", "--spec", str(spec)]])


def list_apps(work):
    """`cchar list`: the registered application names."""
    child = run_child([str(CCHAR), "list"], work / "list.out",
                      work / "list.err")
    if child.rc != 0:
        raise BenchError(1, "cchar list exited %d" % child.rc)
    names = (work / "list.out").read_text().split()
    missing = [a for a in PAPER_APPS if a not in names]
    if missing:
        raise BenchError(1, "cchar list lacks " + ", ".join(missing))


def setup_paper_suite(seed, work):
    list_apps(work)
    # Warm-up run at paper scale: the binary under test must produce a
    # verified report, and its pages are in memory before timing.
    out = work / "warmup.json"
    child = run_child([str(CCHAR), "characterize", PAPER_APPS[0], "--json"],
                      out, work / "warmup.err")
    if child.rc != 0 or json.loads(out.read_bytes()).get(
            "verified") is not True:
        raise BenchError(1, "warm-up run of %s failed (exit %d)"
                         % (PAPER_APPS[0], child.rc))
    return [characterize_op(app, work) for app in PAPER_APPS]


def setup_synth_scaled(seed, work):
    model = work / "model.json"
    child = run_child([str(CCHAR), "characterize", "cholesky", "--json",
                       "--phases"], model, work / "model.err")
    if child.rc != 0:
        raise BenchError(1, "model characterize exited %d: %s" % (
            child.rc, child.stderr))
    if json.loads(model.read_bytes()).get("verified") is not True:
        raise BenchError(1, "model run of cholesky is not verified")
    return [synth_op(model, seed, work)]


def setup_sweep_faulted(seed, work):
    list_apps(work)
    # Every plan must parse and run on this binary before the sweeps.
    for i, plan in enumerate((LINK_PLAN, DROP_PLAN)):
        out = work / ("plan%d.json" % i)
        child = run_child([str(CCHAR), "characterize", "3d-fft", "--json",
                           "--fault-plan", plan], out,
                          work / ("plan%d.err" % i))
        if child.rc != 0 or json.loads(out.read_bytes()).get(
                "verified") is not True:
            raise BenchError(1, "fault plan %r fails on 3d-fft (exit %d)"
                             % (plan, child.rc))
    links = {"apps": PAPER_APPS, "procs": [16], "loads": [1, 2],
             "fault_plans": ["none", LINK_PLAN], "link_stats": True,
             "rank_activity": True}
    drops = {"apps": MP_APPS, "procs": [16],
             "seeds": list(range(seed, seed + DROP_SEEDS)),
             "fault_plans": [DROP_PLAN], "synthetic": True}
    specs = []
    for name, spec in (("links", links), ("drops", drops)):
        path = work / ("spec-%s.json" % name)
        path.write_text(json.dumps(spec))
        specs.append(path)
    return [sweep_op("links", specs[0], 32, work),
            sweep_op("drops", specs[1], len(MP_APPS) * DROP_SEEDS, work)]


SETUPS = {
    "paper_suite": setup_paper_suite,
    "synth_scaled": setup_synth_scaled,
    "sweep_faulted": setup_sweep_faulted,
}


# --------------------------------------------------------------------
# Passes


@dataclass
class OpResult:
    ok: bool
    problems: list
    digest: str
    wall: float
    cpu: float
    rss_mb: float
    messages: int = 0
    ks: float = 0.0


def run_cli_op(op, work):
    child = run_child([str(CCHAR)] + op.cli, work / op.stdout,
                      work / "op.err")
    problems, digest, messages, ks = [], "", 0, 0.0
    if child.rc != 0:
        problems.append("exit code %d: %s" % (child.rc, child.stderr))
    else:
        data = (work / op.output).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        try:
            doc = json.loads(data)
            problems += op.check(doc)
            messages, ks = op.messages(doc), op.ks(doc)
        except (ValueError, KeyError, TypeError) as err:
            problems.append("unparseable output: %s" % err)
    return OpResult(not problems, problems, digest, child.wall, child.cpu,
                    child.rss_mb, messages, ks)


def run_driver(argv, work, op_id):
    spans_path = work / ("spans-%d.json" % op_id)
    child = run_child([str(DRIVER)] + argv + ["--spans", str(spans_path),
                                              "--op-id", str(op_id)],
                      work / "driver.out", work / "driver.err")
    spans = []
    if child.rc == 0:
        spans = json.loads(spans_path.read_text())["spans"]
        for i, s in enumerate(spans):
            s["op"], s["id"] = op_id, i
    return child, spans


def self_times(spans):
    """Span duration minus the part of it its child spans cover."""
    kids_of = {}
    for c in spans:
        kids_of.setdefault((c["op"], c["parent"]), []).append(
            (c["start"], c["end"]))
    out = []
    for s in spans:
        kids = sorted(kids_of.get((s["op"], s["id"]), []))
        covered, edge = 0.0, s["start"]
        for start, end in kids:
            start = max(start, edge)
            if end > start:
                covered += end - start
                edge = end
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_metrics(spans, cli_walls, driver_walls, op_spans):
    """Per-layer metrics of one traced pass (0 where a layer idles)."""
    selfs = self_times(spans)

    def total(name):
        return sum(t for s, t in zip(spans, selfs) if s["name"] == name)

    def counted(name, key):
        return sum(s["counts"].get(key, 0.0) for s in spans
                   if s["name"] == name)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    sims = [(s, s["end"] - s["start"]) for s in spans
            if "desim.events" in s["counts"]]
    events = sum(s["counts"]["desim.events"] for s, _ in sims)
    mesh_msgs = sum(s["counts"]["mesh.messages"] for s, _ in sims)
    m = {}
    for layer in ("ccnuma", "replay"):
        m[layer + ".run_s"] = total(layer)
        m[layer + ".host_us_per_msg"] = per(
            total(layer), counted(layer, "messages"), 1e6)
    m["mp.run_s"] = total("mp")
    m["mp.trace_records"] = counted("mp", "trace_records")
    m["desim.events"] = events
    m["desim.host_ns_per_event"] = per(sum(d for _, d in sims), events, 1e9)
    m["mesh.messages"] = mesh_msgs
    m["mesh.msgs_per_s"] = per(mesh_msgs, sum(
        d for s, d in sims if s["counts"]["mesh.messages"] > 0))
    for stage in ("load", "scale", "generate", "fidelity"):
        m["synth.%s_s" % stage] = total("synth." + stage)
    synth_msgs = counted("synth.generate", "messages")
    m["synth.host_us_per_msg"] = per(m["synth.generate_s"], synth_msgs, 1e6)
    m["synth.rss_b_per_msg"] = per(
        counted("synth.generate", "rss_growth_b"), synth_msgs)
    m["analysis.temporal_s"] = total("analysis.temporal")
    m["analysis.temporal_fits"] = counted("analysis", "temporal_fits")
    m["analysis.temporal_us_per_sample"] = per(
        m["analysis.temporal_s"], counted("analysis", "temporal_samples"),
        1e6)
    for part in ("spatial", "volume", "structured", "phases"):
        m["analysis.%s_s" % part] = total("analysis." + part)
    m["analysis.self_s"] = total("analysis")
    m["analysis.rss_mb"] = max([s["counts"]["rss_growth_b"] / 2**20
                                for s in spans if s["name"] == "analysis"]
                               + [0.0])
    for kind in ("json", "html"):
        m["report.%s_s" % kind] = total("report." + kind)
        m["report.%s_bytes" % kind] = counted("report." + kind, "bytes")
    jobs = [s["end"] - s["start"] for s in spans if s["name"] == "sweep.job"]
    m["sweep.job_s_p50"] = statistics.median(jobs) if jobs else 0.0
    m["sweep.job_s_max"] = max(jobs + [0.0])
    m["sweep.busy_frac"] = per(counted("sweep", "busy_frac_sum"),
                               counted("sweep", "workers"))
    m["sweep.merge_s"] = total("sweep.merge")
    m["obs.sink_overhead_frac"], m["fault.job_slowdown"] = job_ratios(spans)
    m["fault.rerouted_packets"] = counted("sweep", "rerouted_packets")
    m["fault.retransmits"] = counted("sweep", "retransmits")
    m["cli.self_s"] = total("cli")
    m["cli.overhead_s"] = sum(cli_walls) - sum(
        s["end"] - s["start"] for s in op_spans)
    m["trace.overhead_s"] = sum(driver_walls) - sum(cli_walls)
    return m


def job_ratios(spans):
    """Sink cost and fault slowdown from the serial per-job re-runs."""
    on, off, faulted, healthy = 0.0, 0.0, 0.0, 0.0
    groups = {}
    for s in spans:
        if s["name"] in ("sweep.job", "obs.job_nosinks"):
            groups.setdefault(s["op"], []).append(s)
    for group in groups.values():
        bare = {s["counts"]["index"]: s["end"] - s["start"]
                for s in group if s["name"] == "obs.job_nosinks"}
        jobs = [s for s in group if s["name"] == "sweep.job"]
        for s in jobs:
            if s["counts"]["index"] in bare:
                on += s["end"] - s["start"]
                off += bare[s["counts"]["index"]]
        kinds = {s["counts"]["faulted"] for s in jobs}
        if kinds == {0.0, 1.0}:
            for s in jobs:
                d = s["end"] - s["start"]
                if s["counts"]["faulted"]:
                    faulted += d
                else:
                    healthy += d
    return ((on - off) / off if off else 0.0,
            faulted / healthy if healthy else 0.0)


def run_pass(ops, work, traced, problems):
    """One pass over the ops; returns its measurements."""
    results, spans, cli_walls, driver_walls, op_spans = [], [], [], [], []
    attempted = failed = 0
    for i, op in enumerate(ops):
        r = run_cli_op(op, work)
        results.append(r)
        attempted += 1
        if not r.ok:
            failed += 1
            problems += ["%s: %s" % (op.label, p) for p in r.problems]
        if not traced:
            continue
        cli_walls.append(r.wall)
        child, op_span = run_driver(op.driver, work, 2 * i)
        driver_walls.append(child.wall)
        attempted += 1
        same = (child.rc == 0 and r.ok and
                (work / op.driver_output).read_bytes()
                == (work / op.output).read_bytes())
        if not same:
            failed += 1
            problems.append("%s: traced driver (exit %d) did not write "
                            "the CLI's bytes: %s"
                            % (op.label, child.rc, child.stderr))
        spans += op_span
        op_spans += [s for s in op_span if s["parent"] == -1]
        for extra in op.extra_driver:
            child, extra_spans = run_driver(extra, work, 2 * i + 1)
            attempted += 1
            if child.rc != 0:
                failed += 1
                problems.append("%s: %s exited %d: %s" % (
                    op.label, extra[0], child.rc, child.stderr))
            spans += extra_spans
    p = {
        "wall": sum(r.wall for r in results),
        "cpu": sum(r.cpu for r in results),
        "rss_mb": max(r.rss_mb for r in results),
        "messages": sum(r.messages for r in results),
        "ks": max(r.ks for r in results),
        "digests": [r.digest for r in results],
        "attempted": attempted,
        "failed": failed,
    }
    if traced:
        p["layers"] = layer_metrics(spans, cli_walls, driver_walls, op_spans)
    return p


# --------------------------------------------------------------------
# Main


def measure(args, bench, work):
    setup = SETUPS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ops = setup(args.seed, work)
        setup_times.append(time.perf_counter() - t0)

    problems, passes = [], []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < args.seconds):
        passes.append(run_pass(ops, work, args.trace == 1, problems))
        # A traced pass is long; one is enough when it fills the run.
        if args.trace == 1 and time.perf_counter() - start >= args.seconds:
            break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # Determinism digest: every pass must reproduce the first one's
    # outputs byte for byte.
    first = passes[0]["digests"]
    for n, p in enumerate(passes[1:], start=1):
        for op, a, b in zip(ops, first, p["digests"]):
            if a and b and a != b:
                failed += 1
                problems.append("%s: output of pass %d differs from pass 0"
                                % (op.label, n))
    digest = hashlib.sha256("".join(first).encode()).hexdigest()

    med = lambda key: statistics.median(p[key] for p in passes)
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": med("wall"),
            "msgs_per_s": statistics.median(
                p["messages"] / p["wall"] for p in passes),
            "cpu_s": med("cpu"),
            "peak_rss_mb": med("rss_mb"),
            "ok_frac": (attempted - failed) / attempted,
            "model_ks_max": med("ks"),
        }
        declared = bench["end_to_end"]
    else:
        values = {k: statistics.median(p["layers"][k] for p in passes)
                  for k in passes[0]["layers"]}
        declared = bench["per_layer"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise BenchError(1, "metrics %s do not match BENCHMARK.json %s"
                         % (sorted(values), sorted(names)))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, {"digest": digest, "passes": len(passes), "problems": problems,
        "setup_samples": setup_times,
        "pass_samples": [p["wall"] for p in passes]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work = BUILD / "work" / ("%s-%d" % (args.workload, os.getpid()))
    try:
        bench = json.loads(Path("BENCHMARK.json").read_text())
        described = json.loads((HERE / "rationale.json").read_text())
        undescribed = ({m["name"] for m in bench["per_layer"]}
                       - set(described["per_layer"]))
        if undescribed:
            raise BenchError(2, "perfbench/rationale.json lacks "
                             + ", ".join(sorted(undescribed)))
        digest = build()
        work.mkdir(parents=True)
        result, info = measure(args, bench, work)
    except BenchError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return err.code
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in info["problems"]:
        print("perfbench: FAILED %s" % problem, file=sys.stderr)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds,
              "stamp": provenance(digest, args.seed), **info,
              "result": result}
    records = BUILD / "records"
    records.mkdir(exist_ok=True)
    path = records / ("%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("workload %s: passes=%d (samples per timing), digest %s"
          % (args.workload, info["passes"], info["digest"]))
    print("record %s" % path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
