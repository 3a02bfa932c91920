#!/usr/bin/env python3
"""End-to-end benchmark of wlansim: simulation campaigns through wlansim_run,
their WLSR results served by wlansim_queryd, and a closed-loop socket client.

Run from the root of a source checkout:

    python3 wlbench/run.py --workload dense_bss --seed 1 --seconds 10 --trace 0
    python3 wlbench/run.py --fast          # all workloads, tiny sizes, one round

The first run builds the program (Release) and its traced twin under
.bench_build/. Each run repeats whole rounds of its workload until --seconds
have passed (at least two rounds), checks every round's outputs, and prints
one JSON object as the last line of stdout: end-to-end metrics with
--trace 0, per-layer metrics from the traced build with --trace 1. See
wlbench/README.md for the workloads, metrics and checks.
"""

import argparse
import gc
import hashlib
import json
import os
import select
import selectors
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import wlsr  # noqa: E402
from checks import CheckError  # noqa: E402

ROOT = os.getcwd()
BUILD = ".bench_build"
TOOLS = ["wlansim_run", "wlansim_queryd"]
CACHE_MB = 64
MIN_ROUNDS = 2
# Calibration passes (about 0.15 s each) before the first round, after every
# round, and at least in all; the host's speed wanders by 5-10 % over
# seconds, so the calibration is a median over passes spread across the run.
CALIB_FIRST, CALIB_PER_ROUND, CALIB_MIN = 4, 2, 16
# CPU seconds one pass of native/calib takes on the development machine in
# its usual state. CPU-time metrics are scaled by CALIB_REF_S over the median
# calibration time of the run, so they read in that machine's seconds
# whatever speed the host runs at (see README, "Calibration").
CALIB_REF_S = 0.146


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ---------------------------------------------------------------

def _cmake(args, logfile):
    with open(logfile, "a") as out:
        rc = subprocess.call(["cmake"] + args, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(logfile) as f:
            log(f.read()[-4000:])
        raise SystemExit("build failed (cmake %s); see %s" % (" ".join(args[:2]), logfile))


def build():
    """Configures once and builds the Release and traced binaries; a no-op
    rebuild when nothing changed. Returns {variant: {tool: path}}."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("no wlansim source tree in %s: run from the root of a checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    native = os.path.join(BUILD, "native")
    variants = {
        "release": (".", os.path.join(BUILD, "release"), TOOLS,
                    ["-DWLANSIM_BUILD_TESTS=OFF", "-DWLANSIM_BUILD_BENCHMARKS=OFF",
                     "-DWLANSIM_BUILD_EXAMPLES=OFF"]),
        "traced": (os.path.join(os.path.relpath(HERE, ROOT), "native"), native,
                   TOOLS + ["peak_rss", "calib"], []),
    }
    paths = {}
    for name, (src, out, targets, extra) in variants.items():
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            _cmake(["-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen + extra, logfile)
        _cmake(["--build", out, "-j", jobs, "--target"] + targets, logfile)
        sub = "" if name == "release" else "wlansim"
        paths[name] = {
            "wlansim_run": os.path.join(out, sub, "src", "wlansim_run"),
            "wlansim_queryd": os.path.join(out, sub, "tools", "wlansim_queryd"),
            "peak_rss": os.path.join(native, "peak_rss"),
            "calib": os.path.join(native, "calib"),
        }
    return paths


def build_identity(tools):
    """--version of the binaries plus the compiler and build type."""
    version = subprocess.run([tools["wlansim_run"], "--version"], capture_output=True, text=True).stdout.strip()
    cache = {}
    with open(os.path.join(BUILD, "release", "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    compiler_version = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout.splitlines()
    identity = {
        "version": version,
        "compiler": compiler_version[0] if compiler_version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
    }
    identity["comparable"] = identity["build_type"] == "Release"
    return identity


# ---- processes ---------------------------------------------------------------

def run_tool(peak_rss, argv, env=None):
    """Runs one program to its end through peak_rss; returns (exit status,
    peak RSS MiB, CPU seconds)."""
    rss_file = os.path.join(BUILD, "rss-%d" % os.getpid())
    proc = subprocess.run([peak_rss, rss_file] + argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        log("%s failed (%d): %s" % (" ".join(argv[:3]), proc.returncode,
                                    proc.stderr.decode(errors="replace")[-2000:]))
        return proc.returncode, 0.0, 0.0
    with open(rss_file) as f:
        kib, user, system = f.read().split()
    os.unlink(rss_file)
    return proc.returncode, int(kib) / 1024.0, float(user) + float(system)


def calibrate(calib, passes):
    """CPU seconds of each of `passes` passes of the fixed reference work."""
    out = subprocess.run([calib, str(passes)], capture_output=True, text=True, check=True)
    return [float(x) for x in out.stdout.split()[:-1]]


class Daemon:
    """wlansim_queryd over a set of files, from launch to a reaped exit."""

    def __init__(self, binary, sock, files, threads, env):
        self.start = time.perf_counter()
        argv = [binary, "--socket=" + sock, "--threads=%d" % threads, "--cache-mb=%d" % CACHE_MB]
        argv += ["--register=" + f for f in files]
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self.setup_s = None
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening" in line:
            self.setup_s = time.perf_counter() - self.start
            self.setup_cpu_s = self._cpu_so_far()

    def _cpu_so_far(self):
        """CPU time of every thread of the daemon so far, in seconds
        (schedstat counts nanoseconds, where stat counts clock ticks)."""
        ns = 0
        task_dir = "/proc/%d/task" % self.proc.pid
        for tid in os.listdir(task_dir):
            with open(os.path.join(task_dir, tid, "schedstat")) as f:
                ns += int(f.read().split()[0])
        return ns / 1e9

    def _peak_rss_mb(self):
        """Peak RSS so far of the serving process itself (VmHWM is per
        address space, so nothing of the launching interpreter is in it)."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def _handles_sigterm(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("SigCgt:"):
                    return int(line.split()[1], 16) >> (signal.SIGTERM - 1) & 1
        return False

    def terminate(self):
        """Asks the daemon to drain and exit; reap() waits for it."""
        # wlansim_queryd installs its SIGTERM handler only after printing its
        # ready line; a SIGTERM sent in between would kill it undrained.
        deadline = time.monotonic() + 10
        while self.proc.poll() is None and not self._handles_sigterm() and time.monotonic() < deadline:
            time.sleep(0.001)
        if self.proc.poll() is None:
            # Read last thing before the drain, so the peak covers every
            # query the daemon served.
            self.peak_rss_mb = self._peak_rss_mb()
            self.proc.send_signal(signal.SIGTERM)

    def reap(self):
        deadline = time.monotonic() + 20
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.proc.stdout.read()  # the final STATS report
        err = self.proc.stderr.read().decode(errors="replace")
        if self.setup_s is None or self.proc.returncode != 0:
            log("wlansim_queryd failed (%s): %s" % (self.proc.returncode, err[-2000:]))


class Conn:
    """One client connection. It is closed-loop: its next query goes out
    only when the previous answer is in. Records (query, send ns, receive
    ns, status, body) per query."""

    def __init__(self, sock, script, passes):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(sock)
        self.todo = [t for _ in range(passes) for t in script]
        self.log = []
        self.buf = bytearray()

    def send(self):
        payload = self.todo[len(self.log)].encode()
        self.sent = time.monotonic_ns()
        self.sock.sendall(struct.pack("<I", len(payload)) + payload)

    def on_readable(self):
        """Reads what arrived (the selector saw it readable, so recv does
        not block); returns True when the answer is complete."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        if len(self.buf) < 4:
            return False
        (n,) = struct.unpack_from("<I", self.buf)
        if len(self.buf) < 4 + n:
            return False
        received = time.monotonic_ns()
        reply = bytes(self.buf[4:4 + n])
        del self.buf[:4 + n]
        self.log.append((self.todo[len(self.log)], self.sent, received, reply[0], reply[1:]))
        return True


def drive(sock, script, passes, clients):
    """Runs `clients` closed-loop connections, each `passes` times through
    the script, from one thread. The connections go in step: each sends
    its next query when every connection has its previous answer, so they
    always run the same query at the same time and the daemon's peak
    memory under concurrent load does not depend on how their timing
    drifts. Returns (seconds, [per-connection logs])."""
    conns = [Conn(sock, script, passes) for _ in range(clients)]
    sel = selectors.DefaultSelector()
    start = time.perf_counter()
    try:
        for c in conns:
            sel.register(c.sock, selectors.EVENT_READ, c)
        for _ in conns[0].todo:
            for c in conns:
                c.send()
            waiting = len(conns)
            while waiting:
                events = sel.select(timeout=120)
                if not events:
                    raise ConnectionError("no answer within 120 s")
                for key, _ in events:
                    if key.data.on_readable():
                        waiting -= 1
    except (OSError, ConnectionError) as e:
        log("query connection failed: %s" % e)
    finally:
        seconds = time.perf_counter() - start
        for c in conns:
            c.sock.close()
        sel.close()
    return seconds, [c.log for c in conns]


# ---- workloads -----------------------------------------------------------

class Workload:
    """A workload is a write phase (wlansim_run invocations), a read phase (a
    query script served by wlansim_queryd over the written files) and the
    checks on both. Subclasses fill in the three."""

    name = ""
    launches = 24  # daemon launches per round, each timed to ready + cold pass
    warm_passes = 20  # script passes per warm client and round

    def __init__(self, seed, fast):
        self.seed = seed
        self.fast = fast
        if fast:
            self.launches, self.warm_passes = 1, 2

    def invocations(self, rdir):
        """[(wlansim_run args, replications)] writing into rdir."""
        raise NotImplementedError

    def wlsr_files(self, rdir):
        raise NotImplementedError

    def script(self):
        raise NotImplementedError

    def check_outputs(self, rdir):
        """Checks the written files; returns the decoded rows the answer
        checks compare against."""
        raise NotImplementedError

    def check_answers(self, answers, data):
        """answers maps each query text to its (first) served body."""
        raise NotImplementedError


def _campaign_check(what, rdir, stem, reps, key_cols=()):
    """Shared checks of one wlansim_run invocation: WLSR rows vs replications
    run, its aggregate CSV vs the benchmark's fold. Returns the rows."""
    data = wlsr.read(os.path.join(rdir, stem + ".wlsr"))
    checks.check_row_count(data, reps, what)
    rows = list(wlsr.rows(data))
    with open(os.path.join(rdir, stem + ".csv")) as f:
        checks.check_aggregate(f.read(), checks.group_values(rows, key_cols), list(key_cols), what + " --csv")
    return rows


def _rate_cap(params):
    """PHY ceiling of a row; every run here uses the default 802.11b."""
    return checks.RATE_CAP_MBPS[params.get("standard", "11b")]


def _campaign_answer_checks(answers, collection, rows, what):
    expected = checks.group_values(rows, [])
    checks.check_aggregate(answers["AGGREGATE " + collection], expected, [], what + " AGGREGATE")
    checks.check_equal(answers["SELECT * FROM " + collection], answers["AGGREGATE " + collection],
                       what + " SELECT * vs AGGREGATE")
    for text, body in answers.items():
        if text.startswith("SELECT ") and " FROM %s" % collection in text and "*" not in text:
            metrics = text[len("SELECT "):text.index(" FROM")].split(",")
            checks.check_aggregate(body, {(): {m: expected[()][m] for m in metrics}}, [], what + " " + text)


class DenseBss(Workload):
    name = "dense_bss"
    why = "3 co-channel BSSs x 4 saturated 802.11b stations: every frame reaches ~14 receivers"

    def __init__(self, seed, fast):
        super().__init__(seed, fast)
        self.reps = 2 if fast else 8
        self.params = ["--param", "sim_time_s=0.3"] if fast else []

    def invocations(self, rdir):
        d = os.path.join(rdir, "dense")
        return [(["--scenario=dense_multi_bss", "--reps=%d" % self.reps, "--seed=%d" % self.seed]
                 + self.params + ["--csv=" + d + ".csv", "--reps-csv=" + d + ".reps.csv",
                                  "--binary-out=" + d + ".wlsr"], self.reps)]

    def wlsr_files(self, rdir):
        return [os.path.join(rdir, "dense.wlsr")]

    def script(self):
        c = "dense_multi_bss:campaign"
        return ["LIST", "SCHEMA " + c, "SELECT goodput_mbps,loss_rate FROM " + c,
                "SELECT rx_ok,tx_attempts FROM " + c, "SELECT mean_delay_ms FROM " + c,
                "AGGREGATE " + c, "SELECT * FROM " + c]

    def check_outputs(self, rdir):
        rows = _campaign_check(self.name, rdir, "dense", self.reps)
        with open(os.path.join(rdir, "dense.reps.csv")) as f:
            checks.check_reps_csv(f.read(), rows, self.name + " --reps-csv")
        checks.check_properties(rows, lambda p: 3, _rate_cap, lambda p: None, self.name)
        return rows

    def check_answers(self, answers, rows):
        _campaign_answer_checks(answers, "dense_multi_bss:campaign", rows, self.name)


class CityGrid(Workload):
    name = "city_grid"
    why = "25-BSS city_grid sweep with the spatial index: channel offers, interference and heap sifts"

    def __init__(self, seed, fast):
        super().__init__(seed, fast)
        self.n_bss = 9 if fast else 25
        self.stas = [1, 2]
        self.reps = 1 if fast else 4
        self.params = ["--param", "sim_time_s=%s" % ("0.3" if fast else "1")]

    def invocations(self, rdir):
        d = os.path.join(rdir, "city")
        return [(["--scenario=city_grid", "--reps=%d" % self.reps, "--seed=%d" % self.seed,
                  "--param", "spatial=true", "--param", "n_bss=%d" % self.n_bss]
                 + self.params + ["--sweep", "stas_per_bss=" + ",".join(map(str, self.stas)),
                                  "--csv=" + d + ".csv", "--binary-out=" + d + ".wlsr"],
                 self.reps * len(self.stas))]

    def wlsr_files(self, rdir):
        return [os.path.join(rdir, "city.wlsr")]

    def script(self):
        c = "city_grid:sweep"
        return ["LIST", "SCHEMA " + c, "SELECT goodput_mbps,loss_rate FROM %s WHERE stas_per_bss=2" % c,
                "SELECT offers_per_send FROM %s GROUP BY stas_per_bss" % c,
                "SELECT channel_offers,channel_sends FROM " + c, "AGGREGATE " + c, "SELECT * FROM " + c]

    def check_outputs(self, rdir):
        rows = _campaign_check(self.name, rdir, "city", self.reps * len(self.stas), ["stas_per_bss"])
        checks.check_properties(rows, lambda p: self.n_bss, _rate_cap,
                                lambda p: self.n_bss * (int(p["stas_per_bss"]) + 1), self.name)
        return rows

    def check_answers(self, answers, rows):
        c = "city_grid:sweep"
        by_point = checks.group_values(rows, ["stas_per_bss"])
        checks.check_aggregate(answers["AGGREGATE " + c], by_point, ["stas_per_bss"], self.name + " AGGREGATE")
        checks.check_equal(answers["SELECT * FROM " + c], answers["AGGREGATE " + c], self.name + " SELECT *")
        where = "SELECT goodput_mbps,loss_rate FROM %s WHERE stas_per_bss=2" % c
        checks.check_aggregate(answers[where], {k: {m: v[m] for m in ("goodput_mbps", "loss_rate")}
                                                for k, v in by_point.items() if k == ("2",)},
                               ["stas_per_bss"], self.name + " " + where)
        group = "SELECT offers_per_send FROM %s GROUP BY stas_per_bss" % c
        checks.check_aggregate(answers[group], {k: {"offers_per_send": v["offers_per_send"]}
                                                for k, v in by_point.items()},
                               ["stas_per_bss"], self.name + " " + group)


# Every simulation scenario that the two dense workloads do not run, at its
# registered defaults, plus two variants that reach the cipher and the rate
# controllers.
MIX = [
    ("adhoc_vs_infra", []), ("coexistence", []), ("edca", []), ("fragmentation", []),
    ("hidden_terminal", []), ("ism_interference", []), ("lora_coexistence", []),
    ("rate_vs_distance", []), ("roaming", []), ("saturation", []), ("sensor_coexistence", []),
    ("saturation", ["cipher=ccmp"]), ("rate_vs_distance", ["controller=minstrel", "fading=true"]),
]


class ScenarioMix(Workload):
    name = "scenario_mix"
    why = "every other scenario at defaults plus CCMP and Minstrel+fading: ciphers, rate control, EDCA, PS"

    def __init__(self, seed, fast):
        super().__init__(seed, fast)
        self.reps = 1 if fast else 4

    def _stem(self, i):
        scenario, params = MIX[i]
        return "mix%02d_%s" % (i, scenario)

    def invocations(self, rdir):
        out = []
        for i, (scenario, params) in enumerate(MIX):
            d = os.path.join(rdir, self._stem(i))
            argv = ["--scenario=" + scenario, "--reps=%d" % self.reps, "--seed=%d" % self.seed]
            for p in params + (["sim_time_s=0.5"] if self.fast else []):
                argv += ["--param", p]
            out.append((argv + ["--csv=" + d + ".csv", "--binary-out=" + d + ".wlsr"], self.reps))
        return out

    def wlsr_files(self, rdir):
        return [os.path.join(rdir, self._stem(i) + ".wlsr") for i in range(len(MIX))]

    def _collections(self):
        return sorted({s + ":campaign" for s, _ in MIX})

    def script(self):
        out = ["LIST"]
        for c in self._collections():
            out += ["AGGREGATE " + c]
        out += ["SELECT goodput_mbps,loss_rate FROM saturation:campaign",
                "SELECT goodput_mbps FROM rate_vs_distance:campaign", "SCHEMA sensor_coexistence:campaign"]
        return out

    def check_outputs(self, rdir):
        pooled = {}
        for i, (scenario, params) in enumerate(MIX):
            what = "%s %s %s" % (self.name, scenario, " ".join(params))
            rows = _campaign_check(what, rdir, self._stem(i), self.reps)
            checks.check_properties(rows, lambda p: 1, _rate_cap, lambda p: None, what)
            # A campaign collection pools its files in path order.
            pooled.setdefault(scenario + ":campaign", []).append((self._stem(i), rows))
        return {c: [r for _, rows in sorted(files) for r in rows] for c, files in pooled.items()}

    def check_answers(self, answers, pooled):
        for c in self._collections():
            checks.check_aggregate(answers["AGGREGATE " + c], checks.group_values(pooled[c], []), [],
                                   "%s AGGREGATE %s" % (self.name, c))
        for text in ("SELECT goodput_mbps,loss_rate FROM saturation:campaign",
                     "SELECT goodput_mbps FROM rate_vs_distance:campaign"):
            c = text.split(" FROM ")[1]
            metrics = text[len("SELECT "):text.index(" FROM")].split(",")
            checks.check_aggregate(answers[text], checks.group_values(pooled[c], [], metrics), [],
                                   self.name + " " + text)


class ResultsQuery(Workload):
    name = "results_query"
    why = "1e5-replication streamed pipeline_probe campaign and a 2-shard sweep written, then served"

    SWEEP = [("n_metrics", ["2", "3", "4"]), ("samples", ["16", "64"])]
    SELECTS = ["count_0,count_1", "value_0", "count_2,count_3", "value_1,value_2", "count_1",
               "value_2", "latency_hist_mean", "seed_mod,count_3"]
    launches = 2
    warm_passes = 4

    def __init__(self, seed, fast):
        super().__init__(seed, fast)
        self.reps = 2000 if fast else 100000
        self.sweep_reps = 20 if fast else 200

    def invocations(self, rdir):
        common = ["--scenario=pipeline_probe", "--seed=%d" % self.seed, "--param", "counters=4",
                  "--param", "hist=true"]
        out = [(common + ["--reps=%d" % self.reps, "--stream",
                          "--binary-out=" + os.path.join(rdir, "probe.wlsr")], self.reps)]
        points = 1
        for key, values in self.SWEEP:
            common = common + ["--sweep", key + "=" + ",".join(values)]
            points *= len(values)
        for shard in range(2):
            lo, hi = shard * points // 2, (shard + 1) * points // 2
            out.append((common + ["--reps=%d" % self.sweep_reps, "--shard=%d/2" % shard,
                                  "--binary-out=" + os.path.join(rdir, "shard%d.wlsr" % shard)],
                        self.sweep_reps * (hi - lo)))
        return out

    def wlsr_files(self, rdir):
        return [os.path.join(rdir, f) for f in ("probe.wlsr", "shard0.wlsr", "shard1.wlsr")]

    def script(self):
        # Six cheap queries, eight single- or two-column SELECTs over the
        # 1e5-row campaign and two full folds: the median falls inside the
        # SELECT class and the 95th percentile inside the campaign AGGREGATE.
        c, s = "pipeline_probe:campaign", "pipeline_probe:sweep"
        return (["LIST", "SCHEMA " + c, "SCHEMA " + s,
                 "HIST %s latency_hist WHERE n_metrics=2" % s,
                 "SELECT count_0 FROM %s WHERE samples=16 GROUP BY n_metrics" % s, "AGGREGATE " + s]
                + ["SELECT %s FROM %s" % (m, c) for m in self.SELECTS]
                + ["HIST %s latency_hist" % c, "AGGREGATE " + c])

    def check_outputs(self, rdir):
        probe = wlsr.read(os.path.join(rdir, "probe.wlsr"))
        checks.check_row_count(probe, self.reps, self.name + " campaign")
        rows = list(wlsr.rows(probe))
        checks.check_count_ranges(rows, self.name + " campaign")
        sweep_rows = []
        for shard in range(2):
            data = wlsr.read(os.path.join(rdir, "shard%d.wlsr" % shard))
            for g in data["groups"]:
                if g["n_rows"] != self.sweep_reps:
                    raise CheckError("%s: shard %d point of %d rows" % (self.name, shard, g["n_rows"]))
            sweep_rows += list(wlsr.rows(data))
        if len(sweep_rows) != self.sweep_reps * 6:
            raise CheckError("%s: %d sweep rows" % (self.name, len(sweep_rows)))
        checks.check_count_ranges(sweep_rows, self.name + " sweep")
        return rows, sweep_rows

    def check_answers(self, answers, data):
        rows, sweep_rows = data
        c, s = "pipeline_probe:campaign", "pipeline_probe:sweep"
        campaign = checks.group_values(rows, [])
        checks.check_aggregate(answers["AGGREGATE " + c], campaign, [], self.name + " AGGREGATE campaign")
        for text, body in answers.items():
            if text.startswith("SELECT ") and text.endswith(" FROM " + c):
                metrics = text[len("SELECT "):text.index(" FROM")].split(",")
                checks.check_aggregate(body, {(): {m: campaign[()][m] for m in metrics}}, [],
                                       self.name + " " + text)
        keys = [k for k, _ in self.SWEEP]
        checks.check_aggregate(answers["AGGREGATE " + s], checks.group_values(sweep_rows, keys), keys,
                               self.name + " AGGREGATE sweep")
        text = "SELECT count_0 FROM %s WHERE samples=16 GROUP BY n_metrics" % s
        picked = [(p, r) for p, r in sweep_rows if p["samples"] == "16"]
        checks.check_aggregate(answers[text], checks.group_values(picked, ["n_metrics"], ["count_0"]),
                               ["n_metrics"], self.name + " " + text)
        checks.check_hist(answers["HIST %s latency_hist" % c], self.reps * 3 * 64, self.name + " HIST campaign")
        expected = sum(self.sweep_reps * 2 * int(samples) for samples in self.SWEEP[1][1])
        checks.check_hist(answers["HIST %s latency_hist WHERE n_metrics=2" % s], expected,
                          self.name + " HIST sweep")


WORKLOADS = {w.name: w for w in (DenseBss, CityGrid, ScenarioMix, ResultsQuery)}


# ---- rounds --------------------------------------------------------------

class Round:
    """One pass of a workload: write, serve, cold script, warm clients."""

    def __init__(self, workload, tools, rdir, workers, trace_dir=None):
        self.w = workload
        self.rdir = rdir
        self.attempted = 0
        self.failed = 0
        env = dict(os.environ)
        if trace_dir:
            env["WLBENCH_TRACE_DIR"] = os.path.abspath(trace_dir)
        jobs = ["--jobs=%d" % workers, "--quiet"]
        start = time.perf_counter()
        reps = 0
        rss = []
        self.cpu_s = self.write_cpu_s = 0.0
        for argv, n in workload.invocations(rdir):
            rc, peak, cpu = run_tool(tools["peak_rss"], [tools["wlansim_run"]] + argv + jobs, env)
            self.cpu_s += cpu
            self.write_cpu_s += cpu
            self.attempted += n
            reps += n
            rss.append(peak)
            if rc != 0:
                self.failed += n
        self.write_s = time.perf_counter() - start
        self.reps = reps
        files = workload.wlsr_files(rdir)
        self.wlsr_bytes = sum(os.path.getsize(f) for f in files if os.path.exists(f))
        if self.failed:
            raise CheckError("%s: wlansim_run failed" % workload.name)

        # Read phase: the daemon is launched `launches` times; each launch is
        # timed to ready and answers one cold pass of the script, and the
        # last one then serves the warm closed-loop clients.
        script = workload.script()
        self.setup_s, self.setup_cpu_s, self.cold_s, self.logs = [], [], [], []
        stopping = []
        try:
            for launch in range(workload.launches):
                sock = os.path.join(rdir, "q%d.sock" % launch)
                daemon = Daemon(tools["wlansim_queryd"], sock, files, workers, env)
                stopping.append(daemon)
                self.attempted += len(files)
                try:
                    if daemon.setup_s is None:
                        self.failed += len(files)
                        raise CheckError("%s: wlansim_queryd did not become ready" % workload.name)
                    self.setup_s.append(daemon.setup_s)
                    self.setup_cpu_s.append(daemon.setup_cpu_s)
                    cold_s, launch_logs = drive(sock, script, 1, 1)
                    self.cold_s.append(cold_s)
                    expected = len(script)
                    if launch == workload.launches - 1:
                        warm_s, warm_logs = drive(sock, script, workload.warm_passes, workers)
                        launch_logs += warm_logs
                        expected += len(script) * workload.warm_passes * workers
                finally:
                    daemon.terminate()
                self.logs += launch_logs
                served = sum(len(log_) for log_ in launch_logs)
                self.attempted += expected
                self.failed += expected - served
                if expected != served:
                    raise CheckError("%s: %d of %d queries unanswered" % (workload.name, expected - served,
                                                                         expected))
        finally:
            # A daemon takes about 0.1 s to notice its stop signal; the next
            # launches go ahead meanwhile, and all are reaped here.
            for daemon in stopping:
                daemon.reap()
                self.cpu_s += daemon.cpu_s
                rss.append(daemon.peak_rss_mb)
        for daemon in stopping:
            if daemon.proc.returncode != 0:
                raise CheckError("%s: wlansim_queryd exited with %s" % (workload.name, daemon.proc.returncode))
        bad = [e for log_ in self.logs for e in log_ if e[3] != 0]
        self.failed += len(bad)
        if bad:
            for entry in bad[:3]:
                log("query failed: %r -> %r" % (entry[0], entry[4][:200]))
            raise CheckError("%s: %d queries failed" % (workload.name, len(bad)))
        self.peak_rss_mb = max(rss)
        # The round's work; daemon shutdowns, which idle-poll, are left out.
        self.wall_s = self.write_s + sum(self.setup_s) + sum(self.cold_s) + warm_s
        self.warm_latencies_ms = [(e[2] - e[1]) / 1e6 for log_ in warm_logs for e in log_]
        self.warm_qps = len(self.warm_latencies_ms) / warm_s

    def answers(self):
        """{query text: [every body served for it]}, cold pass first."""
        out = {}
        for log_ in self.logs:
            for text, _, _, _, body in log_:
                out.setdefault(text, []).append(body)
        return out

    def digest(self):
        """Hash of the files a round writes; it repeats in every round."""
        h = hashlib.sha256()
        for name in sorted(os.listdir(self.rdir)):
            if name.endswith((".csv", ".wlsr")):
                with open(os.path.join(self.rdir, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
        return h.hexdigest()


def run_rounds(workload, tools, seconds, trace):
    """Runs whole rounds until `seconds` have passed (and at least two).
    In a traced run untraced and traced rounds alternate. Returns (untraced
    rounds, per-layer metrics of the traced rounds, attempted, failed,
    correct)."""
    workers = max(1, min(2, os.cpu_count() or 1))
    base = os.path.join(BUILD, "runs", "%s-%d" % (workload.name, os.getpid()))
    shutil.rmtree(base, ignore_errors=True)
    rounds, traced_walls, traced_layers = [], [], []
    attempted = failed = 0
    correct = True
    reference = None
    # Rounds keep only their figures, so collector pauses stay out of the
    # client's timings.
    gc.disable()
    start = time.perf_counter()
    calib = calibrate(tools["release"]["calib"], CALIB_FIRST)
    try:
        i = 0
        while i < MIN_ROUNDS or time.perf_counter() - start < seconds:
            rdir = os.path.join(base, "r%d" % i)
            os.makedirs(rdir)
            tdir = os.path.join(base, "t%d" % i) if trace and i % 2 == 1 else None
            if tdir:
                os.makedirs(tdir)
            r = None
            try:
                r = Round(workload, tools["traced" if tdir else "release"], rdir, workers, tdir)
                answers = r.answers()
                checks.check_identical(answers, workload.name)
                first = {t: b[0] for t, b in answers.items()}
                if reference is None:
                    data = workload.check_outputs(rdir)
                    workload.check_answers({t: b.decode() for t, b in first.items()}, data)
                    reference = (r.digest(), first)
                    del data
                elif r.digest() != reference[0]:
                    raise CheckError("%s: round %d wrote different files from round 0" % (workload.name, i))
                elif first != reference[1]:
                    raise CheckError("%s: round %d answered differently from round 0" % (workload.name, i))
                if tdir:
                    traced_layers.append(layers.round_metrics(workload.name, r, tdir))
                    traced_walls.append(r.wall_s)
            except (CheckError, wlsr.FormatError) as e:
                log("CHECK FAILED: %s" % e)
                correct = False
            attempted += r.attempted if r else 1
            failed += r.failed if r else 1
            if r is None:
                break
            passes = calibrate(tools["release"]["calib"], CALIB_PER_ROUND)
            calib += passes
            r.calib_s = statistics.median(passes)
            log("%s round %d%s: write %.3fs setup %.4fs (cpu %.4fs) cold %.4fs wall %.3fs cpu %.3fs "
                "calib %.4fs rss %.1fMiB qps %.0f"
                % (workload.name, i, " traced" if tdir else "", r.write_s, statistics.median(r.setup_s),
                   statistics.median(r.setup_cpu_s), statistics.median(r.cold_s), r.wall_s, r.cpu_s,
                   r.calib_s, r.peak_rss_mb, r.warm_qps))
            if not tdir:
                rounds.append(r)
            r.logs = answers = None
            for d in (rdir, tdir):
                if d:
                    shutil.rmtree(d, ignore_errors=True)
            gc.collect()
            i += 1
        if len(calib) < CALIB_MIN:
            calib += calibrate(tools["release"]["calib"], CALIB_MIN - len(calib))
    finally:
        gc.enable()
        shutil.rmtree(base, ignore_errors=True)
    for r in rounds:
        r.scale = CALIB_REF_S / statistics.median(calib)
    per_layer = None
    if trace and rounds and traced_layers:
        per_layer = layers.combine(traced_layers, traced_walls, rounds)
    return rounds, per_layer, attempted, failed, correct


def end_to_end(rounds):
    """The bounded metrics: CPU time rather than wall time, which on a
    shared host follows the neighbours' load, and scaled by the run's
    calibration, which follows the host's speed (see README)."""
    med = statistics.median
    return {
        "cpu_s": (med(r.cpu_s * r.scale for r in rounds), "s"),
        "rep_cpu_ms": (med(1e3 * r.write_cpu_s * r.scale / r.reps for r in rounds), "ms"),
        "peak_rss_mb": (med(r.peak_rss_mb for r in rounds), "MiB"),
        "wlsr_bytes": (med(r.wlsr_bytes for r in rounds), "bytes"),
        "setup_s": (med(x * r.scale for r in rounds for x in r.setup_cpu_s), "s"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true", help="tiny sizes, one round; all workloads unless --workload")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.fast and not args.workload:
        ap.error("--workload is required (or --fast)")

    tools = build()
    identity = build_identity(tools["release"])
    print("build: " + json.dumps(identity, sort_keys=True), flush=True)
    if not identity["comparable"]:
        print("WARNING: %s build; its figures are not comparable with Release runs" % identity["build_type"])

    names = [args.workload] if args.workload else sorted(WORKLOADS)
    seconds = 0 if args.fast else args.seconds
    all_ok = True
    for name in names:
        workload = WORKLOADS[name](args.seed, args.fast)
        rounds, per_layer, attempted, failed, correct = run_rounds(workload, tools, seconds, args.trace)
        if args.trace:
            metrics = per_layer or {}
        else:
            metrics = end_to_end(rounds) if rounds else {}
        correct = correct and bool(metrics)
        all_ok = all_ok and correct and failed == 0
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        if args.fast and len(names) > 1:
            result["workload"] = name
        print(json.dumps(result), flush=True)
    return 0 if all_ok or not args.fast else 1


if __name__ == "__main__":
    sys.exit(main())
