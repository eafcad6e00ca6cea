#!/usr/bin/env python3
"""End-to-end benchmark of the cscpta pointer-analysis toolchain.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --aa --workload W [--runs N] [--seconds S]

The first form builds the repository from source (CMake, Release) into
.bench_build, or into $CARGO_TARGET_DIR when that is set, makes the
workload's inputs from the seed, measures for S seconds with tracing off
and prints one JSON object as the last line of stdout. With --trace 1 it
runs the traced per-layer replay instead. The second form is the A/A
steadiness check: two interleaved sets of runs of the same code.
perfbench/README.md describes the workloads and the metrics.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
WORKLOADS = ("oneshot", "batch-store", "serve")

# The end-to-end metric set is the same on every workload, so each
# workload reports its four timed figures as lane1_rel..lane4_rel, each in
# multiples of the host probe's time (class Host). These are the figures'
# own names, printed on the line before the result.
LANES = {
    "oneshot": ("ci", "csc", "2obj", "zipper"),
    "batch-store": ("storeless", "cold", "warm", "fleet"),
    "serve": ("round_p50", "round_p90", "ci_query_p50", "csc_query_p50"),
}
# Input generations per run; setup_s is their median.
SETUPS = 9
# Threads per batch pass. --jobs 2 was the plan, but `cscpta --batch
# --jobs 2` sometimes crashes or emits a differing aggregate on this
# manifest (README.md, "Known defect") and --jobs 1 never has; the fleet
# still runs two single-threaded workers.
JOBS = "1"
WORKERS = "2"
# Serve rounds per run at least, so that round p90 has at least ten
# samples beyond it; size_mb is the median answer bytes of these rounds.
MIN_ROUNDS = 102
# The CPUs this process may use. The client runs on the first; a measured
# single process and the probe it is compared with run on the last one, so
# that both meet the same core of the shared host: unpinned, one seed's
# storeless median read 4.8 or 6.0 probe-times from run to run. Pinned to
# two CPUs, the fleet and its two probes drifted apart by 1.6x, so a
# sample of width 2 and its probes may use every CPU.
CPUS = sorted(os.sched_getaffinity(0))


def pinned(width=1):
    """A preexec_fn that moves a child of `width` 1 onto the last CPU and a
    wider one onto every CPU, or None when there is no CPU to keep the
    client apart (and the client is not pinned either)."""
    if len(CPUS) < 2:
        return None
    cpus = CPUS[-1:] if width == 1 else CPUS
    return lambda: os.sched_setaffinity(0, cpus)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok


def build():
    """Configures once, then builds (a no-op when up to date)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no repository sources next to perfbench/")
    steps = [["cmake", "--build", BUILD, "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return (os.path.join(BUILD, "repo", "tools", "cscpta"),
            os.path.join(BUILD, "perfbench_driver"),
            os.path.join(BUILD, "perfbench_probe"))


class Host:
    """The host-speed reference: perfbench_probe, a fixed job that uses no
    repository code, run as its own process between timed samples. Each
    sample is reported relative to the mean of the probe times just before
    and just after it, so a slow host stretch slows both alike. A sample
    that keeps `width` processes busy at once (the fleet's two workers) is
    compared with `width` probes started together, because how many cores
    the shared host leaves free changes by itself."""

    def __init__(self, probe, work):
        self.argv = [probe]
        self.err = os.path.join(work, "probe.err")
        self.times = []
        self.mark()

    def once(self, width=1):
        """Seconds until `width` probes started together have all ended."""
        with open(self.err, "wb") as err:
            start = time.perf_counter()
            procs = [subprocess.Popen(self.argv, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err,
                                      preexec_fn=pinned(width))
                     for _ in range(width)]
            codes = [proc.wait() for proc in procs]
            wall = time.perf_counter() - start
        if any(codes):
            sys.exit("perfbench: the host probe failed")
        if width == 1:
            self.times.append(wall * 1000.0)
        return wall

    def mark(self, width=1):
        """Times the probe before the next sample."""
        self.width, self.before = width, self.once(width)

    def ready(self, width):
        """Makes sure the last probe had the width of the next sample."""
        if self.width != width:
            self.mark(width)

    def around(self):
        """Seconds of the probe around the sample that just ended."""
        after = self.once(self.width)
        ref, self.before = (self.before + after) / 2, after
        return ref

    def summary(self):
        return {"host.probe_ms": median(self.times),
                "host.probe_ms.start": median(self.times[:5]),
                "host.probe_ms.end": median(self.times[-5:]),
                "host.probes": len(self.times)}


def run_proc(argv, out_path, err_path, width=1):
    """Runs argv to completion, pinned as pinned(width) says, with its
    stdout/stderr in files. Returns (wall seconds, exit code, peak RSS in MB
    of it and its children)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, preexec_fn=pinned(width))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def scrub(node):
    """Drops every timing ("timings" objects, "*_ms" keys) from a report."""
    if isinstance(node, dict):
        return {k: scrub(v) for k, v in node.items()
                if k != "timings" and not k.endswith("_ms")}
    if isinstance(node, list):
        return [scrub(v) for v in node]
    return node


def emit(driver, work, seed, workload, times=SETUPS):
    """Writes the workload's seeded inputs into work, `times` times over.
    Returns (plan, list of set-up seconds)."""
    setups = []
    for _ in range(times):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        start = time.perf_counter()
        res = subprocess.run([driver, "emit", "--seed", str(seed), "--dir",
                              work, "--workload", workload],
                             stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, preexec_fn=pinned())
        setups.append(time.perf_counter() - start)
        if res.returncode:
            sys.exit(f"perfbench: emit failed for workload {workload}")
    return json.loads(res.stdout.strip().splitlines()[-1]), setups


# --------------------------------------------------------------------------
# Workloads. Each is a closed loop with one client: every process or
# request waits for the previous one to finish.
# --------------------------------------------------------------------------

def oneshot(cscpta, work, plan, seconds, tally, host):
    """Sequential `cscpta <prog> --analyses S --json` processes rotating
    through the plan's items (every spec on every program) until the time
    is up (whole rotations). A spec's figure pools its samples over all
    the programs."""
    items = plan["oneshot"]
    walls = {it["spec"]: [] for it in items}
    rels = {it["spec"]: [] for it in items}
    refs, rss, sizes = {}, [], []
    out, err = os.path.join(work, "out.json"), os.path.join(work, "err.txt")
    deadline = time.perf_counter() + seconds
    while True:
        size = 0
        for it in items:
            spec = it["spec"]
            wall, code, mb = run_proc(
                [cscpta, os.path.join(work, it["program"]), "--analyses",
                 spec, "--json"], out, err)
            ref = host.around()
            rss.append(mb)
            text = read(out)
            size += len(text)
            try:
                doc = scrub(json.loads(text)) if code == 0 else None
            except ValueError:
                doc = None
            ok = doc is not None and refs.setdefault(
                (spec, it["program"]), doc) == doc
            if tally.check(ok, f"oneshot {spec}: exit {code} or the report "
                               "differs from the run's first one"):
                walls[spec].append(wall * 1000.0)
                rels[spec].append(wall / ref)
        sizes.append(size)
        if time.perf_counter() >= deadline:
            break
    specs = list(walls)
    figures = [median(rels[spec]) for spec in specs]
    raw = [median(walls[spec]) for spec in specs]
    samples = {spec: len(walls[spec]) for spec in specs}
    return figures, raw, max(rss), median(sizes), samples


def batch_store(cscpta, work, plan, seconds, tally, host):
    """Interleaved iterations of four --batch passes over the 18-run
    manifest: storeless, cold into an empty store, warm from it (twice: a
    warm pass is short and its samples spread the most), and a two-worker
    fleet into a fresh store."""
    manifest = os.path.join(work, plan["batch_manifest"])
    store, fleet = os.path.join(work, "store"), os.path.join(work, "fleet")
    base = [cscpta, "--batch", manifest, "--json"]
    passes = (
        ("storeless", base + ["--jobs", JOBS], None, 1),
        ("cold", base + ["--jobs", JOBS, "--store", store], store, 1),
        ("warm", base + ["--jobs", JOBS, "--store", store], None, 1),
        ("warm", base + ["--jobs", JOBS, "--store", store], None, 1),
        ("fleet", base + ["--jobs", JOBS, "--workers", WORKERS, "--store",
                          fleet, "--stats"], fleet, int(WORKERS)),
    )
    walls = {name: [] for name, _, _, _ in passes}
    rels = {name: [] for name, _, _, _ in passes}
    out, err = os.path.join(work, "out.json"), os.path.join(work, "err.txt")
    first, rss, store_bytes = None, [], []
    deadline = time.perf_counter() + seconds
    while True:
        for name, argv, fresh, width in passes:
            if fresh:
                shutil.rmtree(fresh, ignore_errors=True)
            host.ready(width)
            wall, code, mb = run_proc(argv, out, err, width)
            ref = host.around()
            rss.append(mb)
            agg = read(out, "rb")
            if code == 0 and first is None:
                first = agg
            ok = code == 0 and agg == first
            if name == "fleet":
                m = re.search(r"tasks (\d+) done, (\d+) quarantined",
                              read(err))
                ok = ok and m is not None and m.group(2) == "0"
            if name == "cold":
                store_bytes.append(tree_bytes(store))
            if tally.check(ok, f"batch {name}: exit {code}, aggregate "
                               "differs, or a task was quarantined"):
                walls[name].append(wall * 1000.0)
                rels[name].append(wall / ref)
        if time.perf_counter() >= deadline:
            break
    for path in (store, fleet):
        shutil.rmtree(path, ignore_errors=True)
    names = list(walls)
    figures = [median(rels[name]) for name in names]
    raw = [median(walls[name]) for name in names]
    samples = {name: len(walls[name]) for name in names}
    return figures, raw, max(rss), median(store_bytes), samples


class Session:
    """One `cscpta --serve` process driven over its stdin/stdout pipes."""

    def __init__(self, argv, err_path):
        self.err = open(err_path, "ab")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err,
                                     bufsize=0, preexec_fn=pinned())
        self.out = self.proc.stdout.fileno()
        os.set_blocking(self.out, False)

    def ask(self, line):
        """Sends one request and returns its answer line ("" if the session
        died). It polls for the answer instead of sleeping on the pipe:
        waking a sleeping client costs a shared host up to milliseconds,
        and more in its slow stretches."""
        try:
            os.write(self.proc.stdin.fileno(), (line + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                try:
                    chunk = os.read(self.out, 1 << 16)
                except BlockingIOError:
                    continue
                if not chunk:
                    return ""
                buf += chunk
            return buf.decode()
        except (BrokenPipeError, OSError):
            return ""

    def close(self):
        """Shuts the session down; returns (exit code, peak RSS MB)."""
        self.ask('{"op":"shutdown"}')
        try:
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0


def answer(line):
    """A response with its "meta" member removed; None unless "ok"."""
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    if not isinstance(doc, dict) or doc.get("ok") is not True:
        return None
    doc.pop("meta", None)
    return doc


def request_kind(line):
    """"add-delta", or "<spec>.<query kind>" with the default spec ci."""
    doc = json.loads(line)
    if doc["op"] != "query":
        return doc["op"]
    return f"{doc.get('spec', 'ci')}.{doc['kind']}"


def full_mode(line):
    doc = json.loads(line)
    if doc["op"] == "query":
        doc["mode"] = "full"
    return json.dumps(doc)


def serve_oracle(cscpta, work, entry, rounds, tally):
    """Non-meta answers to every request of the rounds a program's session
    was asked, from a session that asks each query in "mode":"full",
    cross-checked on the last of them against a from-scratch server that
    loads the program and those rounds' deltas as files."""
    err = os.path.join(work, "oracle.err")
    prog = os.path.join(work, entry["program"])
    s = Session([cscpta, "--serve", prog], err)
    answers = [answer(s.ask(full_mode(req)))
               for rnd in rounds for req, _ in rnd]
    code, _ = s.close()
    deltas = os.path.join(work, "oracle-deltas.jir")
    with open(deltas, "w") as fh:
        fh.write("".join(json.loads(rnd[0][0])["source"] for rnd in rounds))
    s = Session([cscpta, "--serve", prog, deltas], err)
    final = [answer(s.ask(full_mode(req))) for req, _ in rounds[-1][1:]]
    scratch_code, _ = s.close()
    tally.check(code == 0 and scratch_code == 0 and None not in answers
                and final == answers[-len(final):],
                "serve oracle sessions failed or disagree")
    return answers


def serve(cscpta, work, plan, seconds, tally, host):
    """One `cscpta --serve` session per planned program, all open at once
    and asked in turn: round k of every session, then round k + 1, until
    the time is up (at least MIN_ROUNDS rounds) or the rounds run out. So
    every program gets the same number of rounds. A session's set-up is
    its spawn, load and one warm-up answer per spec; a round is timed from
    sending its add-delta to receiving its last answer."""
    inputs, sessions, setups = [], [], []
    err = os.path.join(work, "serve.err")
    for entry in plan["serve"]:
        inputs.append([[(req, request_kind(req)) for req in json.loads(line)]
                       for line in read(os.path.join(
                           work, entry["rounds"])).splitlines()])
        start = time.perf_counter()
        s = Session([cscpta, "--serve", os.path.join(work, entry["program"])],
                    err)
        for req in read(os.path.join(work, entry["warmup"])).splitlines():
            tally.check(answer(s.ask(req)) is not None,
                        "serve warm-up answer not ok")
        setups.append(time.perf_counter() - start)
        sessions.append(s)
    latency, round_ms, round_rel, round_bytes = {}, [], [], []
    lines = [[] for _ in sessions]
    host.mark()
    deadline, asked_rounds = time.perf_counter() + seconds, 0
    for k in range(min(len(rounds) for rounds in inputs)):
        every_run = k * len(sessions) < MIN_ROUNDS
        if not every_run and time.perf_counter() >= deadline:
            break
        asked_rounds += 1
        # Round k of every session shares one probe before and after it:
        # a round is short, and a probe per round would halve the rounds.
        walls, asked = [], []
        for s, rounds, out in zip(sessions, inputs, lines):
            begin, nbytes = time.perf_counter(), 0
            for req, kind in rounds[k]:
                sent = time.perf_counter()
                out.append(s.ask(req))
                asked.append((kind, time.perf_counter() - sent))
                nbytes += len(out[-1])
            walls.append(time.perf_counter() - begin)
            if every_run:
                round_bytes.append(nbytes)
        ref = host.around()
        for wall in walls:
            round_ms.append(wall * 1000.0)
            round_rel.append(wall / ref)
        for kind, secs in asked:
            latency.setdefault(kind, []).append(secs / ref)
    rss = []
    for s in sessions:
        code, mb = s.close()
        rss.append(mb)
        tally.check(code == 0, f"serve session exited {code}")
    for entry, rounds, out in zip(plan["serve"], inputs, lines):
        oracle = serve_oracle(cscpta, work, entry, rounds[:asked_rounds],
                              tally)
        for line, ref in zip(out, oracle):
            mine = answer(line)
            tally.check(mine is not None and mine == ref,
                        "serve answer not ok or differs from the oracle")
    figures = [median(round_rel), p90(round_rel),
               median(latency["ci.points-to"]),
               median(latency["csc.points-to"])]
    raw = [median(round_ms), p90(round_ms)]
    samples = {"sessions": len(sessions), "rounds": len(round_ms)}
    samples.update({f"{k}_p50_rel": median(v) for k, v in latency.items()})
    return (figures, raw, max(rss), median(round_bytes), samples,
            median(setups))


# --------------------------------------------------------------------------
# One measured run, the traced replay, and the A/A check
# --------------------------------------------------------------------------

def measure(args, cscpta, driver, probe, work):
    plan, setups = emit(driver, work, args.seed, args.workload)
    host = Host(probe, work)
    tally = Tally()
    setup_s = median(setups)
    if args.workload == "oneshot":
        figures, raw, rss, size, samples = oneshot(cscpta, work, plan,
                                                   args.seconds, tally, host)
    elif args.workload == "batch-store":
        figures, raw, rss, size, samples = batch_store(
            cscpta, work, plan, args.seconds, tally, host)
    else:
        figures, raw, rss, size, samples, session_setup = serve(
            cscpta, work, plan, args.seconds, tally, host)
        setup_s += session_setup
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "relative": dict(zip(LANES[args.workload], figures)),
                      "wall_ms": dict(zip(LANES[args.workload], raw)),
                      "samples": samples, **host.summary()}))
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_ratio": ((tally.attempted - tally.failed)
                     / max(tally.attempted, 1), "ratio"),
        "size_mb": (size / 1e6, "MB"),
    }
    for i, value in enumerate(figures, 1):
        metrics[f"lane{i}_rel"] = (value, "x")
    return tally, metrics


def traced(args, driver, probe, work):
    emit(driver, work, args.seed, "all", times=1)
    host = Host(probe, work)
    for _ in range(4):
        host.once()
    trace_out = os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")
    res = subprocess.run([driver, "replay", "--dir", work, "--trace-out",
                          trace_out], stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True)
    if res.returncode:
        sys.exit("perfbench: the traced replay failed")
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    for _ in range(5):
        host.once()
    print(json.dumps({"self_ms": doc["self_ms"], "trace": trace_out,
                      **host.summary()}))
    metrics = {k: (v["value"], v["unit"]) for k, v in doc["metrics"].items()}
    metrics["host.probe_ms"] = (median(host.times), "ms")
    tally = Tally()
    tally.attempted, tally.failed = doc["attempted"], doc["failed"]
    return tally, metrics


def spread(values):
    """Quartile spread: (Q3 - Q1) / median."""
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / mid


def aa(args):
    """Two sets of the same code, interleaved run by run (alternating
    which set goes first), each run on its own seed. Prints each metric's
    two medians and quartile spreads and whether they agree within the
    bound BENCHMARK.json fixes."""
    spec = json.loads(read(os.path.join(ROOT, "BENCHMARK.json")))
    sets, probes = {"A": [], "B": []}, {"A": [], "B": []}
    for i in range(args.runs):
        seed = args.seed + i
        for name in (("A", "B") if i % 2 == 0 else ("B", "A")):
            res = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 args.workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if res.returncode:
                sys.exit(f"perfbench: run {name} seed {seed} failed")
            lines = res.stdout.strip().splitlines()
            sets[name].append(json.loads(lines[-1]))
            probes[name].append(json.loads(lines[-2])["host.probe_ms"])
            log(f"set {name} seed {seed} done")
    verdicts = {}
    print(f"{'metric':12} {'median A':>11} {'median B':>11} {'spread A':>9} "
          f"{'spread B':>9} {'B worse':>8} {'bound':>6}  agree")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in sets["A"]]
        b = [r["metrics"][name]["value"] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        sa, sb = spread(a), spread(b)
        worse = ((mb - ma) if m["better"] == "lower" else (ma - mb)) / ma
        ok = worse <= bound and (name == "setup_s"
                                 or (sa <= bound and sb <= bound))
        verdicts[name] = {"median_a": ma, "median_b": mb,
                          "quartiles_a": statistics.quantiles(a, n=4),
                          "quartiles_b": statistics.quantiles(b, n=4),
                          "spread_a": sa, "spread_b": sb, "b_worse": worse,
                          "bound": bound, "agree": ok}
        print(f"{name:12} {ma:11.4f} {mb:11.4f} {sa:9.3f} {sb:9.3f} "
              f"{worse:8.3f} {bound:6.2f}  {'yes' if ok else 'NO'}")
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "agree": all(v["agree"] for v in verdicts.values()),
                      "host.probe_ms": probes, "metrics": verdicts}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--aa", action="store_true",
                    help="A/A steadiness check over --runs seeds per set")
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()
    if args.aa:
        return aa(args)

    cscpta, driver, probe = build()
    if pinned():
        os.sched_setaffinity(0, CPUS[:1])
    work = os.path.join(BUILD, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            tally, metrics = traced(args, driver, probe, work)
        else:
            tally, metrics = measure(args, cscpta, driver, probe, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
