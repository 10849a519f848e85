#!/usr/bin/env python3
"""The rtic benchmark: three check/serve workloads against the real CLI.

Run from the root of a source checkout:

    python3 rticbench/run.py --workload check-monitoring --seed 1 \
        --seconds 55 --trace 0
    python3 rticbench/run.py --self-test

It builds bin/rtic.exe and rticbench/ledger.exe with dune, generates the
workload from --seed, checks every output against the in-process
reference, and prints the metrics as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, measured on the untouched CLI.
--trace 1 prints the per-layer metrics: the outside-in layer ledger
(ledger.exe layers) next to a few untraced end-to-end repetitions, so
transport overhead and attributed share can be derived.  README.md in
this directory defines every metric.

Load: one client process, one connection, closed loop (the next request
is sent only after the previous reply arrived), beside the one rtic
process under test.  Exit codes: 0 all outputs correct, 1 a mismatch
(the result line says correct=false), 2 usage or build error (no result).
"""

import argparse
import contextlib
import gc
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

# BENCHMARK.json gates check-monitoring and serve-monitoring; check-banking
# is run by hand (README.md, "Workloads").
WORKLOADS = {
    "check-monitoring": {"mode": "check", "scenario": "monitoring", "steps": 20000},
    "check-banking": {"mode": "check", "scenario": "banking", "steps": 5000},
    "serve-monitoring": {"mode": "serve", "scenario": "monitoring", "steps": 20000},
}

END_TO_END = {
    "txn_per_s": "1/s",
    "cpu_us_per_txn": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "p50_us": "us",
    "p99_us": "us",
    "read_p50_us": "us",
}

PER_LAYER = {
    "trace.parse_us_per_txn": "us",
    "history.materialize_ms": "ms",
    "history.materialize_share": "ratio",
    "monitor.step_p50_us": "us",
    "monitor.step_p99_us": "us",
    "monitor.step_total_ms": "ms",
    "kernel.aux_rows_peak": "count",
    "kernel.aux_rows_final": "count",
    "kernel.minor_words_per_txn": "words",
    "kernel.top_heap_mb": "MB",
    "supervisor.step_p50_us": "us",
    "supervisor.step_p99_us": "us",
    "supervisor.overhead_us_per_txn": "us",
    "wal.bytes_per_txn": "B",
    "server.txn_p50_us": "us",
    "server.txn_p99_us": "us",
    "server.stats_p50_us": "us",
    "transport.overhead_us": "us",
    "run.attributed_share": "ratio",
}

# Counts that must repeat exactly for a given seed (the self-test).
COUNTS = [
    "kernel.aux_rows_peak",
    "kernel.aux_rows_final",
    "kernel.minor_words_per_txn",
    "kernel.top_heap_mb",
    "wal.bytes_per_txn",
]

# Seed never used while the benchmark or a change was tuned; later claims
# re-check on it.
HELD_OUT_SEED = 9001

RTIC = os.path.join("_build", "default", "bin", "rtic.exe")
LEDGER = os.path.join("_build", "default", "rticbench", "ledger.exe")
WORK_ROOT = ".rticbench-work"
SESSION = "bench"
MIN_REPS = 3
SETUP_PER_REP = 3  # set-up samples taken with each timed repetition


class BenchError(Exception):
    """A usage, build or environment failure: no result is printed."""


def log(msg):
    print("rticbench: " + msg, file=sys.stderr, flush=True)


def percentile(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def build():
    for needed in ("dune-project", os.path.join("bin", "rtic.ml"), os.path.join("rticbench", "ledger.ml")):
        if not os.path.exists(needed):
            raise BenchError("not a source checkout (missing %s)" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./bin/rtic.exe", "./rticbench/ledger.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    except FileNotFoundError:
        raise BenchError("dune is not on PATH")
    if r.returncode != 0:
        raise BenchError("build failed")


@contextlib.contextmanager
def work_dir(name):
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(WORK_ROOT, "%s-%d" % (name, os.getpid()))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def ledger(*args):
    r = subprocess.run([LEDGER] + list(args), stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise BenchError("ledger %s failed" % args[0])
    return json.loads(r.stdout.strip().splitlines()[-1])


def generate(workload, seed, wdir):
    w = WORKLOADS[workload]
    os.makedirs(wdir)
    return ledger("gen", "--scenario", w["scenario"], "--steps", str(w["steps"]),
                  "--seed", str(seed), "--dir", wdir)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def wait_child(p):
    """Reap [p] and return (exit code, CPU seconds, peak RSS in MB)."""
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def kill_child(p):
    if p.returncode is None and p.poll() is None:
        p.kill()
        p.wait()


# ---------------------------------------------------------------- check

def check_command(spec, trace):
    """Run `rtic check SPEC TRACE` once: stdout, exit code, wall, time to
    first output byte, CPU and peak RSS of the rtic process."""
    t0 = time.perf_counter()
    p = subprocess.Popen([RTIC, "check", spec, trace], stdout=subprocess.PIPE)
    try:
        fd = p.stdout.fileno()
        chunks, first = [], None
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            if first is None:
                first = time.perf_counter() - t0
            chunks.append(chunk)
        code, cpu, rss = wait_child(p)
        wall = time.perf_counter() - t0
    finally:
        p.stdout.close()
        kill_child(p)
    return {"out": b"".join(chunks), "code": code, "wall": wall,
            "first": wall if first is None else first, "cpu": cpu, "rss": rss}


def repeat(seconds, once):
    """Call [once] at least MIN_REPS times and then while the budget
    lasts; a repetition that would end past [seconds] is not started."""
    out, start = [], time.perf_counter()
    while True:
        a = time.perf_counter()
        out.append(once())
        now = time.perf_counter()
        if len(out) >= MIN_REPS and now - start + (now - a) > seconds:
            return out


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("mismatch: " + what)


def check_setup_sample(wdir, tally):
    r = check_command(os.path.join(wdir, "spec.txt"), os.path.join(wdir, "one.txt"))
    tally.expect("1-txn check", r["code"] == 0 and r["out"] == b"1 transaction(s), 0 violation(s)\n")
    return r["wall"]


def check_rep(wdir, meta, expected, tally):
    r = check_command(os.path.join(wdir, "spec.txt"), os.path.join(wdir, "trace.txt"))
    tally.expect("check output", r["code"] == meta["check_exit"] and r["out"] == expected)
    return r


def check_e2e(wdir, meta, seconds, tally):
    expected = read_bytes(os.path.join(wdir, "check.expected"))
    setups = []

    def once():
        setups.extend(check_setup_sample(wdir, tally) for _ in range(SETUP_PER_REP))
        return check_rep(wdir, meta, expected, tally)

    reps = repeat(seconds, once)
    n = meta["txns"] * len(reps)
    walls = [r["wall"] for r in reps]
    return {
        "txn_per_s": n / sum(walls),
        "cpu_us_per_txn": sum(r["cpu"] for r in reps) / n * 1e6,
        "peak_rss_mb": statistics.median(r["rss"] for r in reps),
        "setup_s": statistics.median(setups),
        "p50_us": statistics.median(walls) * 1e6,
        "p99_us": percentile(walls, 0.99) * 1e6,
        "read_p50_us": statistics.median(r["first"] for r in reps) * 1e6,
    }, statistics.median(walls)


# ---------------------------------------------------------------- serve

def load_requests(wdir):
    """requests.txt split into one bytes chunk per request, plus whether
    each is a stats read."""
    lines = read_bytes(os.path.join(wdir, "requests.txt")).split(b"\n")
    reqs, i = [], 0
    while i < len(lines) and lines[i]:
        head = lines[i].split(b" ")
        nops = int(head[3]) if head[0] == b"txn" else 0
        reqs.append((b"\n".join(lines[i:i + 1 + nops]) + b"\n", head[0] == b"stats"))
        i += 1 + nops
    return reqs


class Conn:
    def __init__(self, path, server, deadline):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.buf = b""
        while True:
            try:
                self.sock.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if server.poll() is not None or time.perf_counter() > deadline:
                    self.sock.close()
                    raise BenchError("server did not accept on " + path)
                time.sleep(0.0005)

    def line(self):
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0:
                out, self.buf = self.buf[:nl], self.buf[nl + 1:]
                return out
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("server closed the connection")
            self.buf += chunk

    def request(self, data):
        self.sock.sendall(data)
        return self.line()

    def close(self):
        self.sock.close()


def ok_reply(line):
    try:
        return json.loads(line).get("ok") is True
    except ValueError:
        return False


def serve_session(wdir, reqs, tally):
    """One server lifetime: spawn, accept, open (the set-up), then the
    request stream when [reqs] is given, then shutdown and reap."""
    sock_path = os.path.join(wdir, "s.sock")
    with open(os.path.join(wdir, "serve.log"), "ab") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([RTIC, "serve", "--socket", sock_path],
                             stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
    conn = None
    try:
        conn = Conn(sock_path, p, t0 + 30)
        tally.expect("greeting", b"rtic-serve/1" in conn.line())
        opened = conn.request(b"open %s %s\n" % (SESSION.encode(), os.path.join(wdir, "spec.txt").encode()))
        setup = time.perf_counter() - t0
        tally.expect("open", ok_reply(opened))
        res = {"setup": setup}
        if reqs is not None:
            lat = [0] * len(reqs)
            replies = [None] * len(reqs)
            pc = time.perf_counter_ns
            gc.disable()
            try:
                first = time.perf_counter()
                for i, (data, _) in enumerate(reqs):
                    a = pc()
                    replies[i] = conn.request(data)
                    lat[i] = pc() - a
                res["wall"] = time.perf_counter() - first
            finally:
                gc.enable()
            res["lat"] = lat
            res["replies"] = replies
        tally.expect("shutdown", ok_reply(conn.request(b"shutdown\n")))
        conn.close()
        conn = None
        code, cpu, rss = wait_child(p)
        tally.expect("serve exit", code == 0)
        res.update(cpu=cpu, rss=rss)
        return res
    finally:
        if conn is not None:
            conn.close()
        kill_child(p)


def scrub(j):
    if isinstance(j, dict):
        return {k: scrub(v) for k, v in j.items() if k not in ("latency_ns", "counters")}
    if isinstance(j, list):
        return [scrub(v) for v in j]
    return j


def verify_replies(replies, reqs, expected, tally):
    for reply, (_, is_stats), exp in zip(replies, reqs, expected):
        try:
            doc = json.loads(reply)
        except ValueError:
            doc = {}
        if is_stats:
            ok = doc.get("ok") is True and scrub(doc.get("stats")) == exp["stats"]
        else:
            ok = (doc.get("ok") is True and doc.get("outcome") == "checked"
                  and doc.get("reports") == exp["reports"] and doc.get("inconclusive") == [])
        tally.expect("stats reply" if is_stats else "txn reply", ok)


def serve_e2e(wdir, meta, seconds, tally):
    reqs = load_requests(wdir)
    with open(os.path.join(wdir, "serve.expected")) as f:
        expected = [json.loads(l) for l in f if l.strip()]
    if len(expected) != len(reqs):
        raise BenchError("serve.expected does not match requests.txt")
    setups = []

    def once():
        setups.extend(serve_session(wdir, None, tally)["setup"] for _ in range(SETUP_PER_REP - 1))
        s = serve_session(wdir, reqs, tally)
        setups.append(s["setup"])
        verify_replies(s.pop("replies"), reqs, expected, tally)
        return s

    sessions = repeat(seconds, once)
    n = meta["txns"] * len(sessions)
    txn_lat, read_lat = [], []
    for s in sessions:
        for ns, (_, is_stats) in zip(s["lat"], reqs):
            (read_lat if is_stats else txn_lat).append(ns / 1e3)
    walls = [s["wall"] for s in sessions]
    return {
        "txn_per_s": n / sum(walls),
        "cpu_us_per_txn": sum(s["cpu"] for s in sessions) / n * 1e6,
        "peak_rss_mb": statistics.median(s["rss"] for s in sessions),
        "setup_s": statistics.median(setups),
        "p50_us": statistics.median(txn_lat),
        "p99_us": percentile(txn_lat, 0.99),
        "read_p50_us": statistics.median(read_lat),
    }, statistics.median(walls)


# ---------------------------------------------------------------- runs

def e2e(workload, wdir, meta, seconds, tally):
    run = check_e2e if WORKLOADS[workload]["mode"] == "check" else serve_e2e
    return run(wdir, meta, seconds, tally)


def layers(workload, wdir, meta, seconds, tally):
    """Per-layer metrics: untraced end-to-end repetitions for a third of
    the budget, the in-process ledger for the rest."""
    start = time.perf_counter()
    e2e_metrics, e2e_wall = e2e(workload, wdir, meta, seconds / 3, tally)
    left = max(0.0, seconds - (time.perf_counter() - start))
    led = ledger("layers", "--dir", wdir, "--seconds", "%.3f" % left)
    tally.attempted += led["attempted"]
    tally.failed += led["failed"]
    if WORKLOADS[workload]["mode"] == "check":
        # the user's request is the whole command; in-process it is the
        # batch path
        on_path = led["batch_path_s"]
        overhead = (e2e_wall - on_path) * 1e6
    else:
        on_path = led["server_requests_s"]
        overhead = e2e_metrics["p50_us"] - led["server.txn_p50_us"]
    out = {k: led[k] for k in PER_LAYER if k in led}
    out["transport.overhead_us"] = overhead
    out["run.attributed_share"] = on_path / e2e_wall
    return out


def result(correct, tally, values, units):
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def pin_to_one_cpu():
    """Run the client and every process it starts on one CPU.  In the
    closed loop exactly one of the two sides is runnable at a time, so they
    lose no parallelism, and no request waits for an idle (on a VM:
    halted) second CPU to be woken -- a cost that varies with the load of
    the machine far more than the request itself does."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def bench(args):
    build()
    pin_to_one_cpu()
    calib = ledger("calibrate")
    print("calibration " + json.dumps(calib), flush=True)
    tally = Tally()
    with work_dir("%s-%d" % (args.workload, args.seed)) as wdir:
        meta = generate(args.workload, args.seed, wdir)
        if args.trace:
            values, units = layers(args.workload, wdir, meta, args.seconds, tally), PER_LAYER
        else:
            values, units = e2e(args.workload, wdir, meta, args.seconds, tally)[0], END_TO_END
    correct = tally.failed == 0
    print(json.dumps(result(correct, tally, values, units)), flush=True)
    return 0 if correct else 1


def self_test(seed):
    """Same seed -> byte-identical inputs and references; the ledger's
    counts repeat exactly across two runs."""
    build()
    failures = []
    with work_dir("self-test") as base:
        for workload in WORKLOADS:
            dirs = [os.path.join(base, "%s-%d" % (workload, i)) for i in range(2)]
            for d in dirs:
                generate(workload, seed, d)
            for name in sorted(os.listdir(dirs[0])):
                if read_bytes(os.path.join(dirs[0], name)) != read_bytes(os.path.join(dirs[1], name)):
                    failures.append("%s: %s differs for seed %d" % (workload, name, seed))
            other = os.path.join(base, "%s-other" % workload)
            generate(workload, seed + 1, other)
            if read_bytes(os.path.join(other, "trace.txt")) == read_bytes(os.path.join(dirs[0], "trace.txt")):
                failures.append("%s: seeds %d and %d give the same trace" % (workload, seed, seed + 1))
        for workload in ("check-monitoring", "check-banking"):
            d = os.path.join(base, "%s-0" % workload)
            runs = [ledger("layers", "--dir", d, "--seconds", "0") for _ in range(2)]
            for r in runs:
                if r["failed"]:
                    failures.append("%s: ledger output mismatch" % workload)
            for k in COUNTS:
                if runs[0][k] != runs[1][k]:
                    failures.append("%s: %s %r != %r" % (workload, k, runs[0][k], runs[1][k]))
            log("%s counts: %s" % (workload, ", ".join("%s=%r" % (k, runs[0][k]) for k in COUNTS)))
    for f in failures:
        log("FAIL " + f)
    log("self-test %s (seed %d; held-out seed %d)" % ("FAILED" if failures else "passed", seed, HELD_OUT_SEED))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that inputs and counts repeat exactly for --seed")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test(args.seed)
        if args.workload is None:
            ap.error("--workload is required")
        return bench(args)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
