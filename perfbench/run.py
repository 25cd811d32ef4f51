#!/usr/bin/env python3
"""perfbench: the repository benchmark, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-long --seed 1 --seconds 20 --trace 0

It builds compserve, compcheck and perfbench/pb.exe with dune, generates
the workload's inputs from the seed (pb gen), starts the real binaries,
drives them as a closed loop from this one thread, checks every verdict,
and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the six end-to-end metrics; --trace 1 runs the traced
daemon and the in-process layer replay and reports the per-layer metrics.
--steadiness N repeats a workload N times on consecutive seeds and prints
each end-to-end metric's quartiles next to the spin-loop noise floor.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import gc
import json
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("serve-long", "serve-fleet", "check-files")
SERVE_BIN = "_build/default/bin/compserve.exe"
CHECK_BIN = "_build/default/bin/compcheck.exe"
PB_BIN = "_build/default/perfbench/pb.exe"

# Closed-loop shape per serve workload: client connections (at most nproc
# = 2) and streams resident at once.  A stream's truncation window
# travels with the generated stream.
SERVE = {
    "serve-long": (1, 3),
    "serve-fleet": (2, 128),
}
# Set-up samples per run; setup_s is their median.  One sample is a few
# ms with an interquartile range near 70% of its median on a 2-vCPU VM,
# so the median needs many.  Half are taken before the measured phase and
# half after it, so that they span the run and not one second of it.
COLD_STARTS = 41
BEFORE = COLD_STARTS // 2
OP_TIMEOUT_S = 60.0

# Trivial history for compcheck's cold-start set-up samples.
TRIVIAL = b"schedule S conflict rw\nroot T1 @ S T1\nleaf a parent T1 r(x)\nlog S: a\n"


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def now():
    return time.perf_counter()


def cpu_ticks():
    """(total, steal) jiffies of the machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
        return sum(v), v[7] if len(v) > 7 else 0
    except OSError:
        return 0, 0


def steal_share(before, after):
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


# ---------------------------------------------------------------------
# Build and inputs
# ---------------------------------------------------------------------


def build():
    for need in ("dune-project", "bin/dune", "lib"):
        if not os.path.exists(need):
            die("%s not found: run from the root of a repository checkout" % need)
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    # Dune's shared cache and the compilers' temporary files live outside
    # the checkout by default; keep the build inside it.
    tmp = os.path.abspath(os.path.join(".perfbench-run", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/compserve.exe", "./bin/compcheck.exe",
         "./perfbench/pb.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if r.returncode != 0:
        die("build failed:\n" + r.stdout[-4000:], 3)


def read_streams(path):
    """streams.txt -> [(window, [(body, expect, kind)])]."""
    with open(path, "rb") as f:
        data = f.read()
    streams, pos = [], 0

    def line():
        nonlocal pos
        nl = data.index(b"\n", pos)
        words = data[pos:nl].decode().split()
        pos = nl + 1
        return words

    while pos < len(data):
        _, window, n = line()
        appends = []
        for _ in range(int(n)):
            _, nbytes, expect, kind = line()
            body = data[pos:pos + int(nbytes)]
            pos += int(nbytes)
            appends.append((body, expect, kind))
        streams.append((int(window), appends))
    return streams


def read_files(run_dir):
    """files.txt -> [(path, bytes, expect, kind)]."""
    out = []
    with open(os.path.join(run_dir, "files.txt")) as f:
        for ln in f:
            name, nbytes, expect, kind = ln.split()
            out.append((os.path.join(run_dir, "files", name), int(nbytes), expect, kind))
    return out


def generate(workload, seed, run_dir):
    cmd = [PB_BIN, "gen", "--workload", workload, "--seed", str(seed), "--out", run_dir]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        die("input generation failed:\n" + r.stderr[-4000:], 3)
    return json.loads(r.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------


def pctl(sorted_vals, q):
    """Nearest-rank percentile of an ascending list, q in (0, 100]."""
    if not sorted_vals:
        return 0.0
    k = max(1, -(-len(sorted_vals) * q // 100))
    return sorted_vals[int(k) - 1]


# op_tail_ms: the highest percentile with at least ten samples beyond it
# at the workload's op count per run.  The serve workloads time thousands
# of appends (p99); check-files times 600-1300 files depending on the
# machine's speed, so its percentile is fixed at p95 rather than left to
# switch between p95 and p99 from one run to the next.
TAIL_Q = {"serve-long": 99, "serve-fleet": 99, "check-files": 95}


def summarize(lat, deep, completed, wall, q):
    lat = sorted(lat)
    return {
        "op_p50_ms": 1e3 * statistics.median(lat) if lat else 0.0,
        "op_tail_ms": 1e3 * pctl(lat, q),
        "deep_p50_ms": 1e3 * statistics.median(deep) if deep else 0.0,
        "ops_per_s": completed / wall if wall > 0 else 0.0,
    }


# ---------------------------------------------------------------------
# The compserve client
# ---------------------------------------------------------------------


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = b""
        self.inflight = None  # (slot, kind, t0, trace)

    def send(self, data):
        self.sock.sendall(data)

    def parse(self):
        """One complete response out of the buffer, or None."""
        nl = self.buf.find(b"\n")
        if nl < 0:
            return None
        words = self.buf[:nl].decode().split()
        if words and words[0] in ("json", "text"):
            n = int(words[1])
            if len(self.buf) < nl + 1 + n + 1:
                return None
            payload = self.buf[nl + 1:nl + 1 + n].decode()
            self.buf = self.buf[nl + 1 + n + 1:]
            return (words[0], payload)
        self.buf = self.buf[nl + 1:]
        return tuple(words) if words else ("err", "empty line")

    def fill(self):
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("compserve closed the connection")
        self.buf += data

    def read(self, timeout=OP_TIMEOUT_S):
        deadline = now() + timeout
        while True:
            r = self.parse()
            if r is not None:
                return r
            left = deadline - now()
            if left <= 0 or not select.select([self.sock], [], [], left)[0]:
                raise TimeoutError("no response from compserve")
            self.fill()

    def close(self):
        self.sock.close()


class Daemon:
    """One compserve process: spawned, answered health, ready.  Every
    daemon is listed in [live] until it is stopped, so an aborted run can
    still stop them all."""

    live = []

    def __init__(self, run_dir, tag, spans=None):
        self.sock_path = os.path.join(run_dir, "d%s.sock" % tag)
        args = [SERVE_BIN, "--socket", self.sock_path, "--shards", "1"]
        if spans:
            args += ["--trace-rate", "1.0", "--spans", spans]
        self.log = open(os.path.join(run_dir, "d%s.log" % tag), "wb")
        self.t0 = now()
        self.proc = subprocess.Popen(args, stdin=subprocess.DEVNULL,
                                     stdout=self.log, stderr=self.log)
        Daemon.live.append(self)
        self.conns = []

    def connect(self, n):
        while len(self.conns) < n:
            try:
                self.conns.append(Conn(self.sock_path))
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    die("compserve exited during start-up (see its log)", 4)
                if now() - self.t0 > 30:
                    die("compserve did not start listening within 30 s", 4)
                time.sleep(0.0002)
        c = self.conns[0]
        c.send(b"health\n")
        r = c.read()
        if r[0] != "json" or json.loads(r[1]).get("status") != "ok":
            die("unexpected health answer: %r" % (r,), 4)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for ln in f:
                if ln.startswith("VmHWM:"):
                    return int(ln.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        for c in self.conns:
            c.close()
        self.conns = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        Daemon.live.remove(self)
        return self.proc.returncode


class Slot:
    """One resident stream position: which generated stream it is running
    and how far it got.  One request in flight at most."""

    def __init__(self):
        self.stream = None
        self.sid = None
        self.pos = 0
        self.limit = 0  # appends this slot sends from its current stream
        self.state = "done"


class Loop:
    """A closed loop over compserve: every connection carries at most one
    request, and the slots take turns round-robin.  A slot whose stream
    ends (or is rejected) closes it and opens the next generated one."""

    def __init__(self, streams, traced=False, wrong_first=False):
        self.streams = streams
        self.next_stream = 0
        self.next_sid = 0
        self.traced = traced
        self.wrong_first = wrong_first
        self.attempted = 0
        self.failed = 0
        self.lat, self.deep = [], []
        self.rtt = {}  # trace id -> round trip, traced appends only
        self.started = 0

    def assign(self, slot, share=1.0):
        """Give [slot] the next generated stream, of which it sends the
        first [share] of the appends."""
        slot.stream = self.streams[self.next_stream % len(self.streams)]
        self.next_stream += 1
        self.started += 1
        slot.sid = "s%d" % self.next_sid
        self.next_sid += 1
        slot.pos = 0
        slot.limit = max(1, round(share * len(slot.stream[1])))
        slot.state = "open"

    def request(self, slot):
        if slot.state == "open":
            window = slot.stream[0]
            line = "open %s %d\n" % (slot.sid, window) if window else "open %s\n" % slot.sid
            return line.encode(), None
        if slot.state == "append":
            body = slot.stream[1][slot.pos][0]
            trace = None
            if self.traced:
                trace = self.attempted + 1
                head = "append %s %d t=%x:1\n" % (slot.sid, len(body), trace)
            else:
                head = "append %s %d\n" % (slot.sid, len(body))
            return head.encode() + body, trace
        return ("close %s\n" % slot.sid).encode(), None

    def expected(self, slot):
        _, expect, kind = slot.stream[1][slot.pos]
        if self.wrong_first:
            self.wrong_first = False
            expect = "reject" if expect == "accept" else "accept"
        return expect, kind

    def settle(self, slot, resp, dt, trace, more):
        """Check one response and move the slot on; [dt] is the round trip
        of a timed request, None during warm-up."""
        ok = True
        if slot.state == "open":
            ok = resp == ("ok",)
            slot.state = "append"
        elif slot.state == "append":
            expect, kind = self.expected(slot)
            appends = slot.stream[1]
            if resp[0] == "verdict" and resp[1] == slot.sid:
                verdict = resp[2]
                ok = verdict == expect and (expect == "accept" or
                                            " ".join(resp[3:]) == kind)
            else:
                ok = False
            if dt is not None:
                self.lat.append(dt)
                if 10 * (slot.pos + 1) >= 9 * len(appends):
                    self.deep.append(dt)
                if trace is not None:
                    self.rtt[trace] = dt
            slot.pos += 1
            if slot.pos >= slot.limit or not ok:
                slot.state = "close"
        else:
            ok = resp == ("ok",)
            if more:
                self.assign(slot)
            else:
                slot.state = "done"
        if not ok:
            self.failed += 1
            print("perfbench: unexpected answer %r" % (resp,), file=sys.stderr)

    def run(self, conns, slots, seconds):
        """The measured phase.  The slots first run their staggered first
        streams untimed (see [open_slots]), so timing starts in the steady
        mix of stream depths.  Requests then go out until [seconds] pass;
        in-flight requests are answered.  Returns (appends completed in
        the timed window, its wall seconds)."""
        ready = list(slots)
        free = list(conns)
        warming = set(slots)
        t_start = None
        completed = 0
        while True:
            if t_start is None and not warming:
                t_start = now()
            sending = t_start is None or now() - t_start < seconds
            while sending and free and ready:
                slot, c = ready.pop(0), free.pop()
                data, trace = self.request(slot)
                c.inflight = (slot, slot.state, now(), trace)
                self.attempted += 1
                c.send(data)
            busy = [c for c in conns if c.inflight is not None]
            if not busy:
                break
            readable = select.select([c.sock for c in busy], [], [], OP_TIMEOUT_S)[0]
            if not readable:
                self.failed += len(busy)
                print("perfbench: compserve timed out", file=sys.stderr)
                break
            for c in busy:
                if c.sock not in readable:
                    continue
                c.fill()
                resp = c.parse()
                if resp is None:
                    continue
                slot, kind, t0, trace = c.inflight
                dt = now() - t0
                c.inflight = None
                timed = t_start is not None and t0 >= t_start
                self.settle(slot, resp, dt if timed else None, trace, sending)
                if kind == "close":
                    warming.discard(slot)
                if kind == "append" and timed:
                    completed += 1
                if slot.state != "done":
                    ready.append(slot)
                free.append(c)
        return completed, now() - t_start


def open_slots(daemon, loop, n):
    """Open the first [n] streams (pipelined on the first connection).
    Slot i runs only the first (i+1)/n of its first stream, so the
    resident streams end at staggered times and the measured phase starts
    in the steady mix of depths instead of all streams growing in
    lockstep from empty."""
    slots = [Slot() for _ in range(n)]
    c = daemon.conns[0]
    for i, s in enumerate(slots):
        loop.assign(s, (i + 1) / n)
        c.send(loop.request(s)[0])
    for s in slots:
        r = c.read()
        if r != ("ok",):
            die("open failed: %r" % (r,), 4)
        s.state = "append"
    return slots


def serve_setup(run_dir, workload, streams, tag, spans=None):
    """Spawn a daemon and make it ready: health answered, streams open.
    Returns (daemon, loop, slots, set-up seconds)."""
    conns, resident = SERVE[workload]
    d = Daemon(run_dir, tag, spans)
    d.connect(conns)
    loop = Loop(streams, traced=spans is not None)
    slots = open_slots(d, loop, resident)
    return d, loop, slots, now() - d.t0


def serve_cold_starts(run_dir, workload, streams, k, tag):
    """[k] set-up samples from throwaway daemons."""
    out = []
    for i in range(k):
        d, _, _, dt = serve_setup(run_dir, workload, streams, "%s%d" % (tag, i))
        out.append(dt)
        d.stop()
    return out


# ---------------------------------------------------------------------
# compcheck on files
# ---------------------------------------------------------------------


def compcheck(path):
    """Run [compcheck path]; (exit code, stdout, wall seconds, max RSS MB)."""
    t0 = now()
    p = subprocess.Popen([CHECK_BIN, path], stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out, deadline = b"", t0 + OP_TIMEOUT_S
    fd = p.stdout.fileno()
    while True:
        left = deadline - now()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            p.kill()
            p.wait()
            return None, out, now() - t0, 0.0
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        out += chunk
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    dt = now() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, dt, ru.ru_maxrss / 1024.0


def file_ok(code, out, expect):
    """[compcheck FILE] prints "Comp-C: accept" or "Comp-C: reject" and no
    failure kind, so a file is checked on its verdict and exit code."""
    want = 0 if expect == "accept" else 1
    return code == want and ("Comp-C: %s" % expect).encode() in out


def files_phase(files, seed, seconds, wrong_first=False):
    """Closed loop over the corpus, one compcheck at a time, each pass in
    a fresh seeded order, until [seconds] pass."""
    rng = random.Random(seed)
    order = []
    sizes = sorted(f[1] for f in files)
    deep_bytes = sizes[(9 * len(sizes)) // 10]
    lat, deep, walls = [], [], {}
    attempted = failed = 0
    peak = 0.0
    t_start = now()
    while now() - t_start < seconds:
        if not order:
            # every pass over the corpus in a fresh seeded order, so the
            # pass a deadline cuts short is a random sample of it
            order = list(range(len(files)))
            rng.shuffle(order)
        path, nbytes, expect, _ = files[order.pop()]
        if wrong_first:
            expect, wrong_first = ("reject" if expect == "accept" else "accept"), False
        attempted += 1
        code, out, dt, rss = compcheck(path)
        if code is None or not file_ok(code, out, expect):
            failed += 1
            print("perfbench: %s: exit %s, expected %s" % (path, code, expect), file=sys.stderr)
        lat.append(dt)
        walls.setdefault(os.path.basename(path), []).append(dt)
        if nbytes >= deep_bytes:
            deep.append(dt)
        peak = max(peak, rss)
    wall = now() - t_start
    return {"lat": lat, "deep": deep, "walls": walls, "attempted": attempted,
            "failed": failed, "peak": peak, "wall": wall}


def files_cold_starts(run_dir, k):
    path = os.path.join(run_dir, "trivial.ct")
    with open(path, "wb") as f:
        f.write(TRIVIAL)
    out = []
    for _ in range(k):
        code, stdout, dt, _ = compcheck(path)
        if not file_ok(code, stdout, "accept"):
            die("compcheck failed on a trivial history", 4)
        out.append(dt)
    return out


# ---------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------


def end_to_end(workload, seed, seconds, run_dir, wrong_first):
    ticks = cpu_ticks()
    if workload == "check-files":
        setups = files_cold_starts(run_dir, BEFORE)
        r = files_phase(read_files(run_dir), seed, seconds, wrong_first=wrong_first)
        setups += files_cold_starts(run_dir, COLD_STARTS - BEFORE)
        m = summarize(r["lat"], r["deep"], len(r["lat"]), r["wall"], TAIL_Q[workload])
        m["peak_rss_mb"] = r["peak"]
        attempted, failed, n, n_deep = r["attempted"], r["failed"], len(r["lat"]), len(r["deep"])
    else:
        streams = read_streams(os.path.join(run_dir, "streams.txt"))
        setups = serve_cold_starts(run_dir, workload, streams, BEFORE, "b")
        d, loop, slots, dt = serve_setup(run_dir, workload, streams, "m")
        setups.append(dt)
        loop.wrong_first = wrong_first
        completed, wall = loop.run(d.conns, slots, seconds)
        m = summarize(loop.lat, loop.deep, completed, wall, TAIL_Q[workload])
        m["peak_rss_mb"] = d.peak_rss_mb()
        if d.stop() != 0:
            loop.failed += 1
            print("perfbench: compserve did not drain cleanly", file=sys.stderr)
        setups += serve_cold_starts(run_dir, workload, streams, COLD_STARTS - 1 - BEFORE, "a")
        attempted, failed = loop.attempted, loop.failed
        n, n_deep = len(loop.lat), len(loop.deep)
    m["setup_s"] = statistics.median(setups)
    units = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "deep_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
    q = TAIL_Q[workload]
    print("%s: %d ops timed (%d deep), tail = p%d over %d samples (%d beyond it), "
          "set-up over %d cold starts"
          % (workload, n, n_deep, q, n, n * (100 - q) // 100, len(setups)))
    for k in ("setup_s", "op_p50_ms", "op_tail_ms", "deep_p50_ms", "ops_per_s", "peak_rss_mb"):
        print("  %-12s %12.4f %s" % (k, m[k], units[k]))
    print("  attempted %d, failed %d; CPU steal %.1f%% of machine time during the run"
          % (attempted, failed, 100 * steal_share(ticks, cpu_ticks())))
    return attempted, failed, {k: {"value": m[k], "unit": units[k]} for k in units}


# ---------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------


def prom_sum(text, family):
    """Sum of one Prometheus family's samples over every label set."""
    total = 0.0
    for ln in text.splitlines():
        if ln.startswith(family + " ") or ln.startswith(family + "{"):
            total += float(ln.rsplit(" ", 1)[1])
    return total


def span_metrics(spans_path, rtt):
    """Daemon-side per-append times from the spans/1 dump, by trace id."""
    with open(spans_path) as f:
        doc = json.load(f)
    by_trace = {}
    for s in doc["spans"]:
        t = int(s["trace"], 16)
        by_trace.setdefault(t, {})[s["name"]] = (s["start_us"], s["dur_us"])
    dec, qw, enc, rem = [], [], [], []
    for t, sp in by_trace.items():
        if t not in rtt or not all(
                k in sp for k in ("serve.decode", "serve.queue_wait", "serve.encode")):
            continue
        d, q, e = sp["serve.decode"], sp["serve.queue_wait"], sp["serve.encode"]
        dec.append(d[1] / 1e3)
        qw.append(q[1] / 1e3)
        enc.append(e[1] / 1e3)
        # daemon time: decode, queue wait, execution (parse + engine, from
        # the end of the queue wait to the start of the encode), encode;
        # what is left of the round trip is client, kernel and the
        # transport's select loop.
        exec_ms = (e[0] - (q[0] + q[1])) / 1e3
        rem.append(1e3 * rtt[t] - (d[1] / 1e3 + q[1] / 1e3 + exec_ms + e[1] / 1e3))
    mean = lambda v: sum(v) / len(v) if v else 0.0
    return {
        "serve.decode_ms": mean(dec),
        "serve.queue_wait_ms": mean(qw),
        "serve.queue_wait_p99_ms": pctl(sorted(qw), 99),
        "serve.encode_ms": mean(enc),
        "serve.remainder_ms": mean(rem),
    }, len(dec)


def serve_pass(run_dir, workload, streams, seconds, tag, traced):
    spans = os.path.join(run_dir, "spans-%s.json" % tag) if traced else None
    d, loop, slots, _ = serve_setup(run_dir, workload, streams, tag, spans)
    loop.run(d.conns, slots, seconds)
    scrape = {}
    if traced:
        c = d.conns[0]
        c.send(b"metrics\n")
        scrape["metrics"] = c.read()[1]
        c.send(b"stats\n")
        scrape["stats"] = json.loads(c.read()[1])
    if d.stop() != 0:
        loop.failed += 1
    return loop, scrape, spans


def serve_layers(workload, run_dir, seconds):
    """An untraced and a traced daemon phase over the same streams; the
    daemon's spans, metrics and path coverage give the per-append split."""
    streams = read_streams(os.path.join(run_dir, "streams.txt"))
    plain, _, _ = serve_pass(run_dir, workload, streams, seconds, "u", False)
    tr, scrape, spans_path = serve_pass(run_dir, workload, streams, seconds, "t", True)
    metrics, n_spans = span_metrics(spans_path, tr.rtt)
    prom = scrape["metrics"]
    n_app = prom_sum(prom, "serve_append_wall_s_count") or 1.0
    metrics["serve.parse_ms"] = 1e3 * (prom_sum(prom, "serve_append_wall_s_sum") -
                                       prom_sum(prom, "monitor_append_wall_s_sum")) / n_app
    metrics["monitor.append_ms"] = 1e3 * prom_sum(prom, "monitor_append_wall_s_sum") / max(
        1.0, prom_sum(prom, "monitor_append_wall_s_count"))
    # Coverage counts run with the phase's throughput, so each is given
    # per append.
    points = scrape["stats"]["coverage"]["points"]
    appends = points["engine.appends"] or 1
    for p in ("initial", "fast", "delta", "kernel", "full"):
        metrics["engine.path." + p] = points["engine.append.path." + p] / appends
    metrics["engine.restores"] = points["engine.restores"] / appends
    metrics["engine.truncations"] = points["engine.truncations"] / appends
    p50 = lambda v: statistics.median(v) if v else 0.0
    metrics["serve.tracing_overhead"] = p50(tr.lat) / max(1e-12, p50(plain.lat))
    print("%s traced: %d timed appends traced, %d with a full span tree"
          % (workload, len(tr.lat), n_spans))
    print("  per append: round trip %.3f ms = decode %.3f + queue wait %.3f + parse %.3f"
          " + engine %.3f + encode %.3f + remainder %.3f"
          % (1e3 * statistics.mean(tr.lat) if tr.lat else 0.0,
             metrics["serve.decode_ms"], metrics["serve.queue_wait_ms"],
             metrics["serve.parse_ms"], metrics["monitor.append_ms"],
             metrics["serve.encode_ms"], metrics["serve.remainder_ms"]))
    return plain.attempted + tr.attempted, plain.failed + tr.failed, metrics, tr.started


def replay(workload, seed, streams, budget):
    r = subprocess.run([PB_BIN, "replay", "--workload", workload, "--seed", str(seed),
                        "--streams", str(streams), "--budget", str(budget)],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        die("replay failed:\n" + r.stderr[-4000:], 3)
    return json.loads(r.stdout.strip().splitlines()[-1])


# The layers each user path never calls, and the per-layer metrics that
# time them.  The traced run prints these as n/a and reports them as 0.
OFF_PATH = {
    "serve": [
        ("the batch Engine.analyze", ("engine.analyze_ms", "observed.compute_ms",
                                      "reduction.reduce_ms", "observed.pairs",
                                      "reduction.steps")),
        ("Validate", ("validate.check_ms",)),
        ("Classic/Shapes", ("classic.accepted_by_ms", "shapes.classify_ms")),
        ("the compcheck CLI", ("compcheck.overhead_ms",)),
    ],
    "files": [
        ("the transport or Wire", ("serve.decode_ms", "serve.encode_ms", "wire.decode_us",
                                   "wire.encode_us", "wire.bytes_per_op")),
        ("Shards", ("serve.queue_wait_ms", "serve.queue_wait_p99_ms", "shards.handoff_us")),
        ("the daemon's append", ("serve.parse_ms", "monitor.append_ms")),
        ("the incremental Engine", ("engine.extend_ms", "engine.extend_deep_ms",
                                    "engine.extend_minor_words", "engine.resident_words",
                                    "engine.path.initial", "engine.path.fast",
                                    "engine.path.delta", "engine.path.kernel",
                                    "engine.path.full", "engine.restores",
                                    "engine.truncations")),
        ("request tracing", ("serve.tracing_overhead", "serve.remainder_ms")),
    ],
}


def traced(workload, seed, seconds, run_dir):
    """The per-layer run, on the workload's own user path only, timed
    from outside the program: on a serve workload an untraced and a
    traced daemon phase of half a run each, on check-files compcheck over
    the corpus for half a run.  Then pb replay of the same inputs (the
    streams the traced phase started, within half a run; every file)."""
    half = seconds / 2.0
    if workload == "check-files":
        fr = files_phase(read_files(run_dir), seed, half)
        attempted, failed = fr["attempted"], fr["failed"]
        rep = replay(workload, seed, 0, half)
        over = [statistics.median(w) * 1e3 - rep["inproc_ms"][name]
                for name, w in fr["walls"].items()]
        metrics = {"compcheck.overhead_ms": statistics.mean(over)}
        print("%s traced: %d compcheck runs over %d files" % (workload, fr["attempted"],
                                                               len(fr["walls"])))
        off = OFF_PATH["files"]
    else:
        attempted, failed, metrics, started = serve_layers(workload, run_dir, half)
        rep = replay(workload, seed, started, half)
        off = OFF_PATH["serve"]
    print("  replay of %d ops" % rep["ops"])
    attempted += rep["ops"]
    failed += rep["mismatches"]
    metrics.update(rep["metrics"])
    off = {k: layer for layer, ks in off for k in ks}
    for k in off:
        metrics[k] = 0.0
    return attempted, failed, metrics, off


def per_layer_units():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


# ---------------------------------------------------------------------
# Steadiness report
# ---------------------------------------------------------------------


def spin_floor(reps):
    r = subprocess.run([PB_BIN, "spin", "--reps", str(reps)], stdout=subprocess.PIPE, text=True)
    return [float(ln.split()[0]) for ln in r.stdout.splitlines()]


def steadiness(workloads, seed, seconds, reps):
    """[reps] rounds, each running every workload once on the round's
    seed, so drift in the host's speed lands on every workload alike.  A
    few spin loops per round measure that drift."""
    values = {w: {} for w in workloads}
    spin = []
    for i in range(reps):
        round_spin = spin_floor(3)
        spin += round_spin
        for w in workloads:
            r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                "--seed", str(seed + i), "--seconds", str(seconds),
                                "--trace", "0"], stdout=subprocess.PIPE, text=True)
            res = json.loads(r.stdout.strip().splitlines()[-1])
            print("%s seed %d: %s%s  (spin %.4f s)" % (w, seed + i, "  ".join(
                "%s %.4g" % (k, v["value"]) for k, v in res["metrics"].items()),
                "" if res["correct"] else "  INCORRECT", statistics.median(round_spin)),
                flush=True)
            for k, v in res["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
    for w in workloads:
        print("%s: %d runs, seeds %d..%d" % (w, reps, seed, seed + reps - 1))
        for k, v in values[w].items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            print("  %-12s median %12.4f  q1 %12.4f  q3 %12.4f  spread %5.1f%%"
                  % (k, med, q1, q3, 100 * (q3 - q1) / med if med else 0.0))
    q1, med, q3 = statistics.quantiles(spin, n=4)
    print("noise floor: spin loop median %.4f s, q1 %.4f, q3 %.4f, spread %.1f%% (%d reps)"
          % (med, q1, q3, 100 * (q3 - q1) / med, len(spin)))


# ---------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="N",
                    help="repeat the workload N times and report quartiles")
    ap.add_argument("--inject-wrong-expectation", action="store_true",
                    help="flip the first op's expected verdict (the run must fail)")
    a = ap.parse_args()
    # A cyclic collection of this process would land inside a timed op;
    # reference counting frees what the client allocates.
    gc.disable()
    build()
    if a.steadiness:
        ws = WORKLOADS if a.workload == "all" else (a.workload,)
        steadiness(ws, a.seed, a.seconds, a.steadiness)
        return 0
    if a.workload == "all":
        die("--workload all needs --steadiness")
    run_dir = os.path.join(".perfbench-run", "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    os.makedirs(run_dir)
    try:
        sizes = generate(a.workload, a.seed, run_dir)
        print("inputs: " + ", ".join("%s %d" % kv for kv in sizes.items()))
        if a.trace:
            attempted, failed, raw, off = traced(a.workload, a.seed, a.seconds, run_dir)
            units = per_layer_units()
            if set(raw) != set(units):
                die("per-layer metrics do not match BENCHMARK.json: %s"
                    % sorted(set(raw) ^ set(units)), 3)
            for k in units:
                if k in off:
                    print("  %-32s n/a: %s is not on this workload's path" % (k, off[k]))
                else:
                    print("  %-32s %14.4f %s" % (k, raw[k], units[k]))
            metrics = {k: {"value": raw[k], "unit": u} for k, u in units.items()}
        else:
            attempted, failed, metrics = end_to_end(a.workload, a.seed, a.seconds, run_dir,
                                                    a.inject_wrong_expectation)
    finally:
        for d in list(Daemon.live):
            d.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
