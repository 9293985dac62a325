"""End-to-end and per-layer benchmark for nomre.

    python3 bench/run.py --workload accept-long --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; the package is imported from its ``src``.
One process, one thread, closed loop: the next operation starts when the
previous one has ended (for ``cli`` one ``nomre`` child at a time).

With ``--trace 0`` the run times whole rounds of operations for
``--seconds`` and prints the end-to-end metrics. With ``--trace 1`` it
runs a fixed number of operations, each once with spans around every
library call and once without, and prints the per-layer metrics. The last
line of standard output is one JSON object: correct, attempted, failed
and metrics. Result and trace files go to ``bench/out/``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")

SETUP_RUNS = 6  # fresh interpreters before and again after the timed phase
CLI_SETUP_RUNS = 3  # passes of the compile commands for cli, before and after
# Operations of a traced run: a fixed amount of work, so that a layer's busy
# time compares across commits, of about 5 s per copy on the reference machine.
TRACE_OPS = {"accept-long": 24, "kleene-diff": 400, "roundtrip": 400, "cli": 24}
IMPORT_MODULES = ("calculus", "automata", "expr", "compiler")
LAYERS = (
    "expr.parse", "expr.render", "compiler.compile_expr", "automata.accept",
    "automata.enumerate_words", "calculus.language_enumerate", "extract.extract_expr",
    "cli.main",
)


def load_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nomre", "__init__.py")):
        sys.exit("bench: no nomre package under %s" % src)
    sys.path.insert(0, src)
    import nomre

    if not os.path.abspath(nomre.__file__).startswith(src + os.sep):
        sys.exit("bench: imported nomre from %s, not from the checkout" % nomre.__file__)


def plain_call(layer, fn, *args):
    return fn(*args)


class Tracer:
    """Spans around the benchmark's own calls into the library, in memory."""

    SIZES = {
        "expr.render": ("expr.render.chars", lambda args, out: len(out)),
        "compiler.compile_expr": ("compiler.transitions", lambda args, out: len(out.transitions)),
        "automata.accept": ("automata.accept.tokens", lambda args, out: len(args[1])),
        "automata.enumerate_words": ("automata.enumerate_words.words", lambda args, out: len(out)),
        "calculus.language_enumerate": ("calculus.language_enumerate.words",
                                        lambda args, out: len(out)),
    }

    def __init__(self):
        self.spans = []  # [name, start, end, parent id]
        self.counts = {}
        self.parent = None

    def call(self, layer, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.spans.append([layer, t0, t1, self.parent])
        size = self.SIZES.get(layer)
        if size:
            self.counts[size[0]] = self.counts.get(size[0], 0) + size[1](args, out)
        return out

    def begin(self, label):
        self.spans.append([label, time.perf_counter(), None, None])
        self.parent = len(self.spans) - 1

    def end(self):
        self.spans[self.parent][2] = time.perf_counter()
        self.parent = None

    def self_times(self):
        """Busy time and calls per span name, children subtracted."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        busy, calls = {}, {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            busy[name] = busy.get(name, 0.0) + (t1 - t0) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return busy, calls

    def write(self, path):
        with open(path, "w") as f:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                    "parent": parent}) + "\n")


# ---------------------------------------------------------------- set-up

def child_env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def fresh_interpreter(code, importtime=False):
    """Time ``import nomre`` and the given set-up in a new interpreter."""
    script = (
        "import json, time\n"
        "t0 = time.perf_counter()\n"
        "import nomre\n"
        "t1 = time.perf_counter()\n"
        + code +
        "print(json.dumps({'import_s': t1 - t0, 'setup_s': time.perf_counter() - t0}))\n"
    )
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", script]
    p = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                       check=True)
    return json.loads(p.stdout.splitlines()[-1]), p.stderr


def import_self_ms(stderr):
    """Self times of the nomre modules from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, module = [x.strip() for x in line[len("import time:"):].split("|")]
        for m in IMPORT_MODULES:
            if module == "nomre." + m:
                out[m] = int(self_us) / 1000.0
    return out


def measure_setup(wl, runs):
    """Least set-up time over several fresh starts.

    On a shared machine the same start takes one of two distinct times,
    so a median falls in either from run to run; noise only adds time,
    and the least start repeats.
    """
    if wl.name == "cli":
        # The least start of each compile command, summed.
        best = {}
        for _ in range(runs):
            for k, argv in enumerate(wl.setup_commands()):
                t0 = time.perf_counter()
                if wl.run(argv)[0] != 0:
                    raise RuntimeError("set-up failed: %s" % " ".join(argv))
                best[k] = min(best.get(k, float("inf")), time.perf_counter() - t0)
        return sum(best.values())
    return min(fresh_interpreter(wl.setup_code)[0]["setup_s"] for _ in range(runs))


# ------------------------------------------------------------------ runs

def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_values) * pct // 100) - 1)
    return sorted_values[int(k)]


class Ledger:
    """Outputs of every operation, checked as they arrive."""

    def __init__(self, wl, items):
        self.wl = wl
        self.items = items
        self.firsts = {}
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def run(self, i, call):
        item = self.items[i % len(self.items)]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.op(item, call)
        except self.wl.failure as e:
            self.failed += 1
            self.errors.append("failed: %s" % e)
            return None
        dt = time.perf_counter() - t0
        err = self.wl.check(item, out)
        if err:
            self.errors.append(err)
        key = i % len(self.items)
        if key not in self.firsts:
            self.firsts[key] = out
        elif self.firsts[key] != out:
            self.errors.append("operation %d gave another output on a repeat" % key)
        return dt

    def final_checks(self):
        firsts = [(self.items[k], out) for k, out in sorted(self.firsts.items())]
        self.errors += self.wl.final_checks(firsts)
        return firsts


def untraced(wl, seed, seconds, smoke):
    wl.setup(plain_call)
    items = wl.prepare(seed, smoke)
    setup_runs = 1 if smoke else CLI_SETUP_RUNS if wl.name == "cli" else SETUP_RUNS
    setup_s = measure_setup(wl, setup_runs)
    ledger = Ledger(wl, items)
    size = wl.round_ops or len(items)
    # One round of warm-up, checked but not counted. Then the objects the
    # benchmark keeps (inputs, first outputs) leave the collector's view,
    # so that collections in the timed phase scan only the program's own.
    for i in range(0 if smoke else size):
        ledger.run(i, plain_call)
    ledger.attempted = ledger.failed = 0
    gc.freeze()
    lat = []
    i = size
    t0 = time.perf_counter()
    while True:
        for _ in range(size):
            dt = ledger.run(i, plain_call)
            if dt is not None:
                lat.append(dt)
            i += 1
        elapsed = time.perf_counter() - t0
        if smoke or (elapsed >= seconds and ledger.attempted >= wl.min_ops):
            break
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    # Half the starts before the timed phase and half after it: the
    # machine's speed drifts over tens of seconds, and the least of starts
    # so far apart is likelier to catch the same fast phase in every run.
    setup_s = min(setup_s, measure_setup(wl, setup_runs))
    firsts = ledger.final_checks()
    lat.sort()
    metrics = {
        "ops_per_s": (len(lat) / elapsed, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, wl.tail_pct) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "automaton_states": (wl.states(firsts), "count"),
    }
    return ledger, metrics


def traced(wl, seed, work, smoke):
    import workloads

    import_s = min(fresh_interpreter("")[0]["import_s"] for _ in range(1 if smoke else SETUP_RUNS))
    import_ms = import_self_ms(fresh_interpreter("", importtime=True)[1])
    tr = Tracer()
    tr.begin("setup")
    wl.setup(tr.call)
    tr.end()
    items = wl.prepare(seed, smoke)
    n_ops = (wl.round_ops or len(items)) if smoke else TRACE_OPS[wl.name]
    ledger = Ledger(wl, items)
    gc.freeze()
    on = off = 0.0
    for i in range(n_ops):
        # Alternate which copy runs first so that warm caches favour neither.
        for traced_copy in ((True, False) if i % 2 == 0 else (False, True)):
            if traced_copy:
                tr.begin("op")
                dt = ledger.run(i, tr.call)
                tr.end()
                on += dt or 0.0
            else:
                off += wl_time(wl, items[i % len(items)])
    if wl.name == "cli":
        for item in items[:n_ops]:
            tr.begin("op")
            wl.in_process(item, tr.call)
            tr.end()
    tr.begin("probe")
    workloads.probe(tr.call, work)
    tr.end()
    ledger.final_checks()
    busy, calls = tr.self_times()
    count = tr.counts.get
    tokens = count("automata.accept.tokens", 0)
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".busy_s"] = (busy.get(layer, 0.0), "s")
        if layer not in ("expr.render", "cli.main"):
            metrics[layer + ".calls"] = (calls.get(layer, 0), "count")
    metrics["expr.render.chars"] = (count("expr.render.chars", 0), "count")
    metrics["compiler.transitions"] = (count("compiler.transitions", 0), "count")
    metrics["automata.accept.us_per_token"] = (
        busy.get("automata.accept", 0.0) * 1e6 / tokens if tokens else 0.0, "us")
    for k in ("automata.enumerate_words.words", "calculus.language_enumerate.words"):
        metrics[k] = (count(k, 0), "count")
    metrics["cli.import_s"] = (import_s, "s")
    for m in IMPORT_MODULES:
        metrics["cli.import.%s_ms" % m] = (import_ms.get(m, 0.0), "ms")
    metrics["trace.overhead_s"] = (on - off, "s")
    return ledger, metrics, tr


def wl_time(wl, item):
    t0 = time.perf_counter()
    wl.op(item, plain_call)
    return time.perf_counter() - t0


# ------------------------------------------------------------------ main

def run_one(name, seed, seconds, trace, smoke=False):
    import workloads

    work = os.path.join(OUT, "work-%s-%d" % (name, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        wl = workloads.make(name, ROOT, work)
        if trace:
            ledger, metrics, tr = traced(wl, seed, work, smoke)
            tr.write(os.path.join(OUT, "trace-%s-%d.jsonl" % (name, seed)))
        else:
            ledger, metrics = untraced(wl, seed, seconds, smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": not [e for e in ledger.errors if not e.startswith("failed: ")],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, ledger.errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload once on small inputs, with all checks")
    args = ap.parse_args(argv)
    load_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    os.makedirs(OUT, exist_ok=True)
    if args.smoke:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = {t: {m["name"] for m in spec[k]} for t, k in ((0, "end_to_end"), (1, "per_layer"))}
        ok = True
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                t0 = time.perf_counter()
                result, errors = run_one(name, args.seed, 0, trace, smoke=True)
                if set(result["metrics"]) != names[trace]:
                    errors.append("metrics differ from BENCHMARK.json: %s" % sorted(
                        set(result["metrics"]) ^ names[trace]))
                ok = ok and result["correct"] and not result["failed"] and not errors
                print("%-12s trace=%d correct=%s attempted=%d failed=%d %.1fs %s" % (
                    name, trace, result["correct"], result["attempted"], result["failed"],
                    time.perf_counter() - t0, "; ".join(errors[:3])))
        return 0 if ok else 1
    if args.workload not in workloads.WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    result, errors = run_one(args.workload, args.seed, args.seconds, args.trace)
    for e in errors[:10]:
        print("error: %s" % e, file=sys.stderr)
    line = json.dumps(result)
    with open(os.path.join(OUT, "result-%s-%d-%d.json" % (args.workload, args.seed, args.trace)),
              "w") as f:
        f.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
