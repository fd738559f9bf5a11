#!/usr/bin/env python3
"""Repository benchmark: `ridc` scan time, throughput and correctness.

Run from the root of a source checkout:

    python3 ridbench/run.py --workload dpm-paper-scan --seed 1 \\
        --seconds 15 --trace 0

The first run builds `ridc` and `ridbench_tool` from source into
.bench_build/. Each run generates its workload corpus from --seed, dumps it
under .bench_work/ (set-up, timed several times), then for --seconds
repeatedly runs the real `ridc` binary over the files and checks every
scan's reports against the generator's ground truth.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
`ridc` scans with traced runs of the same pipeline (`ridbench_tool trace`,
one span per layer call) and prints the per-layer metrics. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
README.md in this directory defines every metric and workload.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "ridbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3
SCAN_TIMEOUT_S = 120
# Share of the files holding refcount-changing functions that one
# incremental-resume operation edits.
EDIT_SHARE = 0.01
EDIT_MARK = " int ridbench_pad = 0;"

# Why each workload exists and what it is predicted to leave unchanged is
# recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "dpm-paper-scan": {
        "corpus": "paper", "scale": 0.1, "threads": 1, "specs": [],
        "triage": False, "store": False,
    },
    "path-dense-triage": {
        "corpus": "path-dense", "scale": 2.0, "threads": 4,
        "specs": ["lock.spec", "kmalloc.spec"], "triage": True,
        "store": False,
    },
    "incremental-resume": {
        "corpus": "paper", "scale": 0.1, "threads": 1, "specs": [],
        "triage": False, "store": True,
    },
}

REPORT_TIER = re.compile(r" \{([a-z-]+)\}$")


def log(msg):
    print("ridbench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def build():
    """Configure once and bring ridc and ridbench_tool up to date."""
    for need in ("src/CMakeLists.txt", "examples/ridc.cpp",
                 "ridbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("checker sources missing: " + need)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "ridc",
                  "ridbench_tool"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "ridc"), os.path.join(BUILD, "ridbench_tool")


def run_timed(argv, stdout_path, stderr_path, cwd):
    """Run one process; return (exit code, wall seconds, peak RSS in MB).

    The wall time runs from just before the process is spawned to the
    moment it is reaped, so it includes start-up and exit teardown."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd)
        killer = threading.Timer(SCAN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Truth:
    """Ground truth written by `ridbench_tool gen` (truth.tsv)."""

    def __init__(self, corpus_dir):
        self.detects = set()
        self.fp = set()
        self.changing_by_file = {}
        self.functions = 0
        with open(os.path.join(corpus_dir, "truth.tsv")) as f:
            for line in f:
                name, _kind, detects, fp, file_no, changing = \
                    line.rstrip("\n").split("\t")
                if detects == "1":
                    self.detects.add(name)
                if fp == "1":
                    self.fp.add(name)
                if changing == "1":
                    self.changing_by_file.setdefault(int(file_no), []) \
                        .append(name)
                self.functions += 1
        self.expected = self.detects | self.fp

    def verdict_errors(self, report_text, triage):
        """Functions whose verdict differs from the truth.

        Compared as sets, so the count is independent of report order.
        Without triage a function's verdict is report/no report, and the
        expected set is rid_detects or induces_fp. With triage a reported
        rid_detects function must also be `confirmed` and an induces_fp
        one `refuted`, on every one of its reports."""
        tiers = {}
        for line in report_text.splitlines():
            if not line:
                continue
            fn = line.split(": ", 1)[0]
            m = REPORT_TIER.search(line)
            tiers.setdefault(fn, set()).add(m.group(1) if m else "")
        wrong = set(tiers) ^ self.expected
        if triage:
            for fn in self.expected & set(tiers):
                want = "confirmed" if fn in self.detects else "refuted"
                if tiers[fn] != {want}:
                    wrong.add(fn)
        return len(wrong)


class Workload:
    def __init__(self, name, seed, scale_factor, ridc, tool):
        self.name = name
        self.cfg = WORKLOADS[name]
        self.seed = seed
        self.scale = self.cfg["scale"] * scale_factor
        self.ridc = ridc
        self.tool = tool
        self.dir = os.path.join(WORK, "%s-%d-%d" % (name, seed, os.getpid()))
        self.ops = 0
        self.edited = {}

    # -- set-up ---------------------------------------------------------

    def setup_once(self, rep=0):
        """Generate and dump the corpus, then run the first scan over it:
        it brings the corpus and the binary into the page cache, so every
        timed scan starts warm. For incremental-resume the first scan is
        the cold --store scan whose store every timed resume starts from.

        Each set-up writes a directory of its own, and all are deleted
        when the run ends: on ext4, deleting a corpus just before writing
        the next one slows the writes several-fold."""
        where = os.path.join(self.dir, "rep%d" % rep)
        self.corpus = os.path.join(where, "corpus")
        self.store = os.path.join(where, "store")
        self.wal = os.path.join(self.store, "analysis.wal")
        self.snapshot = os.path.join(where, "analysis.wal.snapshot")
        os.makedirs(where)
        t0 = time.perf_counter()
        gen = subprocess.run(
            [self.tool, "gen", self.cfg["corpus"], str(self.seed),
             repr(self.scale), self.corpus],
            stdout=subprocess.PIPE, stderr=sys.stderr, check=False)
        if gen.returncode:
            fail("corpus generation failed")
        with open(os.path.join(self.corpus, "files.txt")) as f:
            self.files = f.read().split()
        self.truth = Truth(self.corpus)
        rc, _, _ = run_timed(self.ridc_argv(resume=False),
                             os.path.join(where, "first.out"),
                             os.path.join(where, "first.err"), self.corpus)
        if rc not in (0, 1):
            fail("first scan failed with exit code %d" % rc)
        if self.cfg["store"]:
            if os.listdir(self.store) != ["analysis.wal"]:
                fail("cold --store scan left no store log")
            shutil.copyfile(self.wal, self.snapshot)
        return time.perf_counter() - t0

    def setup(self):
        times = [self.setup_once(rep) for rep in range(SETUP_REPEATS)]
        return statistics.median(times)

    # -- one scan -------------------------------------------------------

    def spec_args(self):
        args = ["--builtin-dpm"]
        for spec in self.cfg["specs"]:
            args += ["--spec", spec]
        return args

    def mode_args(self, resume):
        args = ["--threads", str(self.cfg["threads"])]
        if self.cfg["triage"]:
            args.append("--triage")
        if self.cfg["store"]:
            args += ["--store", self.store]
            if resume:
                args.append("--resume")
        return args

    def ridc_argv(self, resume=True):
        return ([self.ridc] + self.spec_args() + self.mode_args(resume) +
                ["--keep-going"] + self.files)

    def tool_argv(self, emit):
        return ([self.tool, "trace", "--dir", self.corpus, "--emit", emit] +
                self.spec_args() + self.mode_args(resume=True))

    def prepare(self):
        """Untimed: restore the stored snapshot and the pristine files,
        then apply this operation's truth-preserving edit."""
        if not self.cfg["store"]:
            return
        for path, text in self.edited.items():
            with open(path, "w") as f:
                f.write(text)
        self.edited = {}
        self.restore_store()
        rng = random.Random("%d-%d" % (self.seed, self.ops))
        self.ops += 1
        candidates = sorted(self.truth.changing_by_file)
        k = max(1, round(EDIT_SHARE * len(candidates)))
        for file_no in rng.sample(candidates, k):
            path = os.path.join(self.corpus, self.files[file_no])
            with open(path) as f:
                text = f.read()
            self.edited[path] = text
            for fn in self.truth.changing_by_file[file_no]:
                text = edit_function(text, fn)
            with open(path, "w") as f:
                f.write(text)

    def restore_store(self):
        """Cut the store's log back to the cold scan's snapshot.

        A resume only appends to the log (WalWriter::open drops a torn
        tail, then appends), so the snapshot is a prefix of the log and
        truncating restores it byte for byte; the prefix is checked. The
        truncation is flushed here, so that the first fsync of the timed
        resume does not pay for it."""
        with open(self.snapshot, "rb") as f:
            snapshot = f.read()
        with open(self.wal, "rb+") as f:
            if f.read(len(snapshot)) != snapshot:
                fail("store log no longer starts with its snapshot")
            f.truncate(len(snapshot))
            f.flush()
            os.fsync(f.fileno())

    def check(self, rc, report_path, rejected):
        """Return (verdict errors, scan failed, report bytes)."""
        with open(report_path, "rb") as f:
            out = f.read()
        errors = self.truth.verdict_errors(out.decode(), self.cfg["triage"])
        expected_rc = 1 if self.truth.expected else 0
        failed = rc != expected_rc or rejected or errors > 0
        if failed:
            log("%s: scan failed (exit %d, %d verdict error(s)%s)" % (
                self.name, rc, errors, ", file rejected" if rejected else ""))
        return errors, failed, out

    def scan(self):
        self.prepare()
        out = os.path.join(self.dir, "scan.out")
        err = os.path.join(self.dir, "scan.err")
        rc, wall, rss = run_timed(self.ridc_argv(), out, err, self.corpus)
        with open(err, "rb") as f:
            rejected = b"ridc: skipping " in f.read()
        errors, failed, text = self.check(rc, out, rejected)
        return {"wall": wall, "rss": rss, "errors": errors,
                "failed": failed, "emit": hashlib.sha256(text).hexdigest()}

    def traced(self):
        self.prepare()
        emit = os.path.join(self.dir, "trace.emit")
        out = os.path.join(self.dir, "trace.json")
        err = os.path.join(self.dir, "trace.err")
        rc, wall, _ = run_timed(self.tool_argv(emit), out, err, self.corpus)
        if rc != 0:
            log("%s: traced run failed with exit code %d" % (self.name, rc))
            return {"failed": True, "errors": 0, "wall": wall}
        with open(out) as f:
            layers = json.loads(f.read().strip().splitlines()[-1])
        errors, failed, text = self.check(
            1 if layers["reports"] else 0, emit,
            layers["frontend.files_rejected"] > 0)
        with open(emit + ".untriaged", "rb") as f:
            untriaged = f.read()
        return {"wall": wall, "layers": layers, "errors": errors,
                "failed": failed, "emit": hashlib.sha256(text).hexdigest(),
                "untriaged": hashlib.sha256(untriaged).hexdigest()}

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def edit_function(text, fn):
    """Insert an unused local at the top of @fn's body, on the line of its
    opening brace: the body fingerprint changes, so --resume re-executes
    the function and its callers, while no line number and no verdict
    changes."""
    head = re.compile(r"\b%s\([^)]*\)\s*\{" % re.escape(fn))
    m = head.search(text)
    if not m:
        fail("edit: no definition of %s" % fn)
    return text[:m.end()] + EDIT_MARK + text[m.end():]


def median(samples, key):
    return statistics.median(s[key] for s in samples)


def end_to_end(wl, seconds):
    setup_s = wl.setup()
    scans = []
    start = time.perf_counter()
    while not scans or time.perf_counter() - start < seconds:
        scans.append(wl.scan())
    # The fastest scan of the run: other tenants of a shared host slow
    # stretches of seconds by up to a third and never speed a scan up, so
    # the fastest scan varies least from run to run (README.md, "Noise").
    scan_s = min(s["wall"] for s in scans)
    failed = sum(s["failed"] for s in scans)
    errors = max(s["errors"] for s in scans)
    stable = int(len({s["emit"] for s in scans}) == 1)
    metrics = {
        "scan_s": (scan_s, "s"),
        "functions_per_s": (wl.truth.functions / scan_s, "1/s"),
        "peak_rss_mb": (median(scans, "rss"), "MB"),
        "setup_s": (setup_s, "s"),
    }
    # Correctness figures are never reported as end-to-end metrics (they
    # are 0 when the checker is right); they are printed here and carried
    # by "correct"/"failed" in the result line.
    info = {"scan_samples": (len(scans), "count"),
            "scan_median_s": (median(scans, "wall"), "s"),
            "functions": (wl.truth.functions, "count"),
            "verdict_errors": (errors, "count"),
            "scan_failure_ratio": (failed / len(scans), "ratio"),
            "emit_order_stable": (stable, "bool")}
    return scans, failed, metrics, info


LAYER_KEYS = [
    ("frontend.read_s", "s"), ("frontend.lex_s", "s"),
    ("frontend.tokens", "count"), ("frontend.parse_s", "s"),
    ("frontend.lower_s", "s"), ("frontend.files_rejected", "count"),
    ("ir.link_s", "s"), ("ir.functions", "count"), ("ir.blocks", "count"),
    ("ir.instructions", "count"),
    ("analysis.callgraph_s", "s"), ("analysis.callgraph_nodes", "count"),
    ("analysis.callgraph_edges", "count"), ("analysis.scc_levels", "count"),
    ("analysis.classify_s", "s"), ("analysis.cat1", "count"),
    ("analysis.cat2", "count"), ("analysis.cat3", "count"),
    ("analysis.analyze_s", "s"), ("analysis.symexec_s", "s"),
    ("analysis.ipp_s", "s"), ("analysis.paths", "count"),
    ("analysis.blocks_executed", "count"), ("analysis.state_forks", "count"),
    ("analysis.functions_analyzed", "count"),
    ("analysis.functions_truncated", "count"),
    ("smt.queries", "count"), ("smt.theory_checks", "count"),
    ("smt.solve_s", "s"), ("smt.query_cache_hit_rate", "ratio"),
    ("smt.unknowns", "count"),
    ("summary.entries_computed", "count"),
    ("summary.entries_instantiated", "count"),
    ("summary.inst_cache_hit_rate", "ratio"),
    ("summary.entries_compacted", "count"),
    ("triage.s", "s"), ("triage.hp_functions_executed", "count"),
    ("triage.confirmed", "count"), ("triage.refuted", "count"),
    ("triage.cross_pass_hit_rate", "ratio"), ("triage.budget_stops", "count"),
    ("store.open_s", "s"), ("store.hits", "count"), ("store.misses", "count"),
    ("store.loaded_records", "count"), ("store.bytes_appended", "bytes"),
    ("store.torn_frames", "count"), ("store.failed_writes", "count"),
    ("core.emit_s", "s"), ("core.emit_bytes", "bytes"),
    ("trace.probe_s", "s"), ("trace.teardown_s", "s"),
]

# Leaf layer times whose sum is the attributed part of a traced run. The
# analysis workers' busy time is divided by the thread count so that the
# sum stays a share of wall time at any thread count.
ATTRIBUTED = ["frontend.read_s", "frontend.lex_s", "frontend.parse_s",
              "frontend.lower_s", "ir.link_s", "store.open_s",
              "analysis.classify_s", "analysis.worker_s", "triage.s",
              "core.emit_s"]


def layer_figures(run, threads):
    """Per-layer figures of one traced run, with the derived ones."""
    m = dict(run["layers"])
    busy = m["analysis.symexec_s"] + m["analysis.ipp_s"]
    parallel = m["analysis.analyze_s"] - m["analysis.classify_s"]
    m["analysis.worker_s"] = busy / threads
    m["analysis.unattributed_s"] = parallel - busy / threads
    m["analysis.worker_busy_ratio"] = busy / (threads * parallel)
    attributed = sum(m[k] for k in ATTRIBUTED)
    m["trace.wall_s"] = run["wall"]
    m["trace.attributed_share"] = attributed / run["wall"]
    m["trace.unattributed_s"] = run["wall"] - attributed
    return m


def per_layer(wl, seconds):
    wl.setup()
    scans, traced = [], []
    start = time.perf_counter()
    # Alternate so both kinds see the same machine conditions; at least
    # two of each, so that emit stability compares two runs.
    while (len(traced) < 2 or len(scans) < 2 or
           time.perf_counter() - start < seconds):
        scans.append(wl.scan())
        traced.append(wl.traced())
    runs = scans + traced
    failed = sum(r["failed"] for r in runs)
    good = [r for r in traced if "layers" in r]
    if not good:
        fail("no traced run succeeded")
    figures = [layer_figures(r, WORKLOADS[wl.name]["threads"]) for r in good]
    metrics = {}
    for key, unit in LAYER_KEYS + [
            ("analysis.unattributed_s", "s"),
            ("analysis.worker_busy_ratio", "ratio"),
            ("trace.attributed_share", "ratio"),
            ("trace.unattributed_s", "s")]:
        metrics[key] = (statistics.median(f[key] for f in figures), unit)
    metrics["trace.overhead_s"] = (
        statistics.median(f["trace.wall_s"] for f in figures) -
        median(scans, "wall"), "s")
    emits = {r["emit"] for r in scans + good}
    untriaged = {r["untriaged"] for r in good}
    metrics["core.emit_order_stable"] = (
        int(len(emits) == 1 and len(untriaged) == 1), "bool")
    metrics["verdict_errors"] = (max(r["errors"] for r in runs), "count")
    metrics["scan_failure_ratio"] = (failed / len(runs), "ratio")
    info = {"scan_samples": (len(scans), "count"),
            "traced_samples": (len(traced), "count"),
            "final_emit_stable": (int(len(emits) == 1), "bool"),
            "untriaged_emit_stable": (int(len(untriaged) == 1), "bool")}
    return runs, failed, metrics, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale-factor", type=float, default=1.0,
                    help="multiply the workload's corpus size (tests use "
                         "a reduced size; timings are defined at 1)")
    args = ap.parse_args()

    ridc, tool = build()
    wl = Workload(args.workload, args.seed, args.scale_factor, ridc, tool)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        measure = per_layer if args.trace else end_to_end
        runs, failed, metrics, info = measure(wl, args.seconds)
    finally:
        wl.cleanup()

    mode = "trace" if args.trace else "e2e"
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        print("%s %s %s: %r %s" % (args.workload, mode, name, value, unit))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
