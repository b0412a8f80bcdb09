#!/usr/bin/env python3
"""End-to-end checks of cchar's outputs, one ctest per case.

Usage: smoke.py CCHAR CASE

CCHAR is the cchar binary; CASE names one of the functions below (the
ctest of the same name). Each case runs in a fresh CASE.d directory
under the current one, so ctest can run cases in parallel. A failed
check exits non-zero with the offending values.
"""

import filecmp
import json
import os
import shutil
import signal
import subprocess
import sys
import time

CCHAR = ""
ROUTER_STALL_WINDOW = "router:5:stall=300@[5ms,15ms]"
# Unwindowed, so the stall covers the (time-compressed) trace replay,
# which is the network the static-strategy report describes.
ROUTER_STALL = "router:5:stall=50"
HTML_PAYLOAD = '<script type="application/json" id="cchar-report-data">'


def run(*args, code=0, timeout=300):
    """Run cchar with `args`; fail unless it exits with `code`."""
    p = subprocess.run([CCHAR, *args], capture_output=True, text=True,
                       timeout=timeout)
    codes = code if isinstance(code, tuple) else (code,)
    if p.returncode not in codes:
        sys.exit("cchar %s: exit %d, expected %s\n%s"
                 % (" ".join(args), p.returncode, code, p.stderr))
    return p


def run_json(*args, **kw):
    return json.loads(run(*args, "--json", **kw).stdout)


def html_payload(path):
    html = open(path).read()
    return json.loads(html.split(HTML_PAYLOAD, 1)[1].split("</script>", 1)[0])


def metric_names(path):
    return json.dumps(json.load(open(path)))


def same_bytes(a, b):
    assert filecmp.cmp(a, b, shallow=False), "%s and %s differ" % (a, b)


def write_model(path):
    """A characterization of `is`, the model synth replays."""
    with open(path, "w") as f:
        f.write(run("characterize", "is", "--json").stdout)


# --------------------------------------------------------------------
# Determinism and recovery contracts of existing subcommands.

def cli_fault_deterministic():
    for plan in ("drop:p=0.05", "drop:p=0.02; corrupt:p=0.005"):
        a, b = (run("characterize", "3d-fft", "--width", "2", "--height",
                    "2", "--fault-plan", plan, "--json").stdout
                for _ in range(2))
        assert a == b, "two runs under %r differ" % plan


def cli_sweep_hang_quarantine():
    """--job-timeout turns a permanently hanging job into data: the
    healthy job still succeeds and the exit code is 6."""
    run("sweep", "--apps", "diag-spin,is", "--procs", "4", "--loads",
        "0.2", "--seeds", "1", "--job-timeout", "0.3", "--job-retries",
        "1", "--out", "hang.json", code=6, timeout=120)
    d = json.load(open("hang.json"))
    by_app = {j["app"]: j for j in d["jobs"]}
    spin = by_app["diag-spin"]
    assert spin["status"] == "deadline-exceeded", spin
    assert spin["quarantined"] and spin["attempts"] == 2, spin
    ok = by_app["is"]
    assert ok["status"] == "ok" and ok["verified"], ok
    assert [j["app"] for j in d["degraded"]] == ["diag-spin"], d["degraded"]


def cli_sweep_interrupt_exit7():
    """SIGTERM drains the sweep, skips the partial aggregate and exits
    7; resuming from the journal gives the uninterrupted bytes."""
    sweep = ["sweep", "--apps", "is,mg", "--procs", "4,8", "--loads",
             "0.1,0.2,0.3,0.4", "--seeds", "1..4", "-j2"]
    run(*sweep, "--out", "ref.json", "--csv", "ref.csv")
    p = subprocess.Popen([CCHAR, *sweep, "--journal", "run.jsonl", "--out",
                          "cut.json"], stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True)
    time.sleep(0.7)
    p.send_signal(signal.SIGTERM)
    err = p.communicate(timeout=120)[1]
    assert p.returncode == 7, (p.returncode, err)
    assert not os.path.exists("cut.json"), "partial aggregate written"
    assert "resume with" in err, err
    run(*sweep, "--resume", "run.jsonl", "--out", "resumed.json", "--csv",
        "resumed.csv")
    same_bytes("ref.json", "resumed.json")
    same_bytes("ref.csv", "resumed.csv")


def cli_synth_roundtrip():
    """characterize --json is a loadable model; synth re-characterizes
    it within the committed KS bounds (see tests/test_synth.cc)."""
    write_model("model.json")
    model = json.load(open("model.json"))
    p = run("synth", "model.json", "--json")
    assert "KS temporal" in p.stderr, p.stderr
    replay = json.loads(p.stdout)
    sf = replay["synthFidelity"]
    assert sf["modelSource"] == "model.json", sf["modelSource"]
    assert sf["modelProcs"] == model["nprocs"] == 16, sf
    assert sf["scaleTiles"] == 1 and sf["seed"] == 42, sf
    assert sf["temporalKs"] < 0.10, sf["temporalKs"]
    assert sf["spatialKs"] < 0.06, sf["spatialKs"]
    assert sf["volumeKs"] < 0.05, sf["volumeKs"]
    assert replay["nprocs"] == 16, replay["nprocs"]
    assert "synthFidelity" not in model


# --------------------------------------------------------------------
# Smoke cases (LABELS smoke).

def smoke_obs_exports():
    run("characterize", "1d-fft", "--trace-out", "run.json",
        "--metrics-out", "metrics.json", "--report-out", "report.html")
    json.load(open("run.json"))
    json.load(open("metrics.json"))
    keys = set(html_payload("report.html"))
    assert keys == {"report", "metrics", "telemetry", "flows"}, keys


def smoke_fault_resilience():
    r = run_json("characterize", "3d-fft", "--width", "2", "--height", "2",
                 "--fault-plan", "drop:p=0.01; router:1:stall=2us",
                 "--seed", "3")["resilience"]
    assert r["plan"].startswith("2 faults, seed 3"), r["plan"]
    assert r["retransmits"] >= r["deliveryFailures"], r
    assert r["routerStalls"] > 0, r


def smoke_lossy_replay():
    run("trace", "3d-fft", "--out", "3d-fft.trace", "--width", "2",
        "--height", "2")
    run("replay", "3d-fft.trace", "--width", "2", "--height", "2",
        "--fault-plan", "drop:p=0.05", timeout=120)


def smoke_chaos_shrunk_replay():
    """Every failing plan of a fixed-seed campaign shrinks, and a
    shrunk plan is only useful if --fault-plan reproduces the failure
    it was shrunk from."""
    d = run_json("chaos", "--seed", "7", "--plans", "6", "--apps",
                 "3d-fft", "--procs", "16", "-j1")
    assert sum(d["classes"].values()) == len(d["jobs"]), d["classes"]
    shrunk = [j for j in d["jobs"] if "shrunk_plan" in j]
    assert d["failing"] >= 1, "seed 7 must seed a failing plan"
    assert len(shrunk) == d["failing"], (len(shrunk), d["failing"])
    assert all(j["shrunk_faults"] >= 1 and j["shrunk_plan"] for j in shrunk)
    assert any(j["shrunk_faults"] <= 2 for j in shrunk), shrunk
    deadlocked = [j for j in d["jobs"] if j["classification"] == "deadlock"]
    assert deadlocked, "seed 7 must seed a deadlock-class plan"
    j = deadlocked[0]
    run("characterize", j["app"], "--width", "4", "--height", "4",
        "--fault-plan", j["shrunk_plan"], code=4)


def smoke_rank_wave():
    d = run_json("characterize", "mg", "--rank-activity", "--fault-plan",
                 ROUTER_STALL_WINDOW, "--metrics-out", "metrics.json",
                 "--report-out", "report.html")
    ra = d["rankActivity"]
    assert ra["waves"], "no idle wave detected under a router stall"
    w = ra["waves"][0]
    assert w["extent"] >= 3 and w["speedRanksPerUs"] > 0, w
    assert len(ra["ranks"]) == 16, len(ra["ranks"])
    names = metric_names("metrics.json")
    for key in ("rank.waves", "rank.skew_max_us", "rank.idle_fraction_max",
                "rank.wave_speed_max"):
        assert key in names, "missing metric " + key
    html = open("report.html").read()
    assert "Rank activity" in html and "Desynchronization" in html
    assert html_payload("report.html")["report"]["rankActivity"]["waves"], \
        "HTML payload lost the waves"


def smoke_link_hotspot():
    d = run_json("characterize", "mg", "--link-stats", "--fault-plan",
                 ROUTER_STALL, "--metrics-out", "metrics.json",
                 "--report-out", "report.html")
    lw = d["linkStats"]
    assert lw["hotspotCount"] > 0, "no hotspot under a router stall"
    assert lw["maxUtilization"] > lw["medianUtilization"], lw
    top = lw["links"]
    assert top[0]["node"] == 5 or top[0].get("toNode") == 5, \
        "stalled router does not own the top-ranked link"
    hot = [row for row in top if row["hotspot"]]
    assert hot and all(h["sustainedFraction"] > 0 for h in hot), hot
    names = metric_names("metrics.json")
    for key in ("link.hotspots", "link.max_util", "link.gini",
                "link.hol_stalls"):
        assert key in names, "missing metric " + key
    assert "Network weather" in open("report.html").read()
    data = html_payload("report.html")
    assert set(data) == {"report", "metrics", "telemetry", "flows"}, set(data)
    assert data["report"]["linkStats"]["hotspotCount"] > 0, \
        "HTML payload lost the hotspots"


def smoke_default_no_sink_artifacts():
    d = run_json("characterize", "mg", "--metrics-out", "metrics.json",
                 "--report-out", "report.html")
    names = metric_names("metrics.json")
    html = open("report.html").read()
    for section, prefix, title in (
            ("rankActivity", "rank.", "Desynchronization"),
            ("linkStats", "link.", "Network weather")):
        assert section not in d, section
        assert prefix not in names, prefix
        assert title not in html, title


def smoke_link_stats_unperturbed():
    """The link sink observes lane events and never schedules any."""
    off = run_json("characterize", "mg")
    on = run_json("characterize", "mg", "--link-stats")
    assert "linkStats" in on
    del on["linkStats"]
    assert on == off, "link-stats tracking changed the run"


def smoke_html_deterministic():
    for name, flags in (
            ("wave", ["--rank-activity", "--fault-plan",
                      ROUTER_STALL_WINDOW]),
            ("heatmap", ["--link-stats", "--fault-plan", ROUTER_STALL])):
        for side in "ab":
            run("characterize", "mg", *flags, "--report-out",
                "%s-%s.html" % (name, side))
        same_bytes(name + "-a.html", name + "-b.html")


def smoke_synth_1m():
    write_model("model.json")
    a, b = (run("synth", "model.json", "--scale-procs", "64", "--messages",
                "1000000", "--json").stdout for _ in range(2))
    assert a == b, "two 1M-message synth runs differ"
    d = json.loads(a)
    sf = d["synthFidelity"]
    assert d["nprocs"] == 64 and sf["scaleTiles"] == 4, sf
    assert sf["syntheticMessages"] == 1000000, sf
    assert sf["temporalSources"] == 64, sf


def smoke_sweep_mixed_j4():
    """Dynamic and static jobs, healthy and faulted, racing across four
    workers (the TSan job runs this). Faulted jobs may fail (exit 1)."""
    run("sweep", "--apps", "is,sor,3d-fft", "--procs", "4", "--loads",
        "1,2", "--seeds", "0,7", "--fault-plan", "none", "--fault-plan",
        "drop:p=0.001", "-j", "4", "--out", "sweep.json", code=(0, 1))
    assert len(json.load(open("sweep.json"))["jobs"]) == 24


def smoke_sweep_j1_vs_j8():
    """Worker scheduling never leaks into the merged report."""
    for j in ("1", "8"):
        run("sweep", "--apps", "is,3d-fft", "--procs", "4,16", "--seeds",
            "0,7", "--fault-plan", "none", "--fault-plan", "drop:p=0.001",
            "-j", j, "--out", "sweep-j%s.json" % j, "--csv",
            "sweep-j%s.csv" % j, code=(0, 1))
    same_bytes("sweep-j1.json", "sweep-j8.json")
    same_bytes("sweep-j1.csv", "sweep-j8.csv")


def smoke_json_escapes():
    """A control character in a user-chosen name stays valid JSON."""
    name = "a\tb.trace"
    run("trace", "mg", "--out", name)
    d = run_json("replay", name)
    assert d["application"] == name, d["application"]


def smoke_utilization_consistent():
    """Periodic hooks (samplers, progress, the watchdog) never stretch
    the run: channel utilization is the plain run's under every flag,
    and a sweep job reports the same value."""
    flags = {
        "--metrics-out": ["--metrics-out", "metrics.json"],
        "--report-out": ["--report-out", "report.html"],
        "--progress": ["--progress"],
        "drop:p=0": ["--fault-plan", "drop:p=0"],
    }
    apps = ("1d-fft", "3d-fft")
    plain = {app: run_json("characterize", app)["network"] for app in apps}
    for app in apps:
        for label, extra in flags.items():
            net = run_json("characterize", app, *extra)["network"]
            assert net == plain[app], (app, label, net, plain[app])
    run("sweep", "--apps", ",".join(apps), "--procs", "16", "--out",
        "sweep.json")
    for job in json.load(open("sweep.json"))["jobs"]:
        util = float("%.6g" % job["avg_channel_utilization"])
        want = plain[job["app"]]["avgChannelUtilization"]
        assert util == want, (job["app"], util, want)


def main(argv):
    global CCHAR
    case = argv[2] if len(argv) == 3 else ""
    if not case.startswith(("cli_", "smoke_")) or case not in globals():
        sys.exit(__doc__)
    CCHAR = os.path.abspath(argv[1])
    shutil.rmtree(case + ".d", ignore_errors=True)
    os.makedirs(case + ".d")
    os.chdir(case + ".d")
    globals()[case]()


if __name__ == "__main__":
    main(sys.argv)
