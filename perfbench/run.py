"""bvhy benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload validate-axioms --seed 0 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout that holds this
file.  The workload's documents are generated from ``--seed``
and written under ``.perfbench_work/``; the program sees only those files.

``--trace 0`` drives the CLI the way a user does: a closed loop with a
single client, one ``python -m bvhy.cli validate|transfer`` child at a
time, over whole rounds of the document set until ``--seconds`` have
passed.  ``--trace 1`` instead runs the same calls in-process with a span
around each (``perfbench/spans.py``) and reports the per-layer metrics
that every workload reaches; its spans and every layer figure, those of
layers only some workloads reach too, are written to ``.perfbench_out/``.

Outputs are checked after the loop, outside the timed region.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

# the checkout root: the program's sources are in src/ next to perfbench/
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# set-up is repeated at least this often and for at least this long
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
STARTUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
# stop issuing work past this point so a run always ends within its limit
RUN_LIMIT_S = 150.0
# The machine's speed drifts by tens of percent within minutes (other
# tenants of the host), so end-to-end times are scaled to a reference speed:
# a fixed piece of Fraction and dict work is timed before and after every
# op, and the op's times are multiplied by REFERENCE_S / (their mean).  Wall
# times use the calibration's wall time, CPU times its CPU time, so that
# time stolen by other tenants (in the wall time only) does not scale CPU.
CALIBRATION_LOOPS = 6000
REFERENCE_S = 0.028


def _bootstrap() -> None:
    if not (SRC / "bvhy" / "cli.py").is_file():
        sys.exit(f"error: no bvhy sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def calibrate():
    """Wall and CPU time of fixed rational arithmetic into a dict: the same
    kind of work as the program's, in code no change to the program can
    touch."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc = {}
    for i in range(CALIBRATION_LOOPS):
        k = i * 7919 % 1500
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 13 + 1, i % 7 + 1)
    return time.perf_counter() - t0, time.process_time() - c0


def speed(before, after):
    """Reference speed over the machine's around a timed piece of work, as
    (wall factor, CPU factor)."""
    return tuple(2 * REFERENCE_S / (b + a) for b, a in zip(before, after))


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, but never
    below the median; returns (value, percent).  Below 20 samples that
    percentile would sit under the median, so the median is reported."""
    xs = sorted(values)
    if len(xs) < 20:
        return statistics.median(xs), 50.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, stdout_path: Path, stderr_path: Path) -> dict:
    """Run one child to completion; wall time from spawn to exit, CPU time
    and peak RSS from ``os.wait4``."""
    with open(stdout_path, "wb") as fo, open(stderr_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "exit": proc.returncode}


def setup(workload: str, seed: int, workdir: Path):
    """Generate and write the documents several times.  Returns the
    documents and the median time of a repeat, unscaled and scaled to the
    reference speed by calibrations just before and after that repeat."""
    from bvhy import serialize
    import gen

    times, scaled, docs = [], [], None
    before = calibrate()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        docs = gen.generate(workload, seed)
        for i, doc in enumerate(docs):
            (workdir / f"doc{i}.json").write_text(serialize.dump(doc.algebra))
        times.append(time.perf_counter() - t0)
        after = calibrate()
        scaled.append(times[-1] * speed(before, after)[0])
        before = after
    return docs, statistics.median(times), statistics.median(scaled)


def cli_argv(doc, path: Path, out: Path):
    from gen import TRANSFER_ARITY

    argv = [sys.executable, "-m", "bvhy.cli", doc.command, str(path)]
    if doc.command == "transfer":
        argv += ["--max-arity", str(TRANSFER_ARITY), "--out", str(out)]
    return argv


def closed_loop(docs, workdir: Path, seconds: float, started: float):
    """Whole rounds over the documents until ``seconds`` have passed, so
    that every document is sampled equally often.  Each op record carries
    ``speed`` and ``cpu_speed``, the reference speed over the machine's
    around it."""
    ops = []
    before = calibrate()
    t0 = time.perf_counter()
    while True:
        for i, doc in enumerate(docs):
            base = workdir / f"op{len(ops)}"
            rec = spawn(cli_argv(doc, workdir / f"doc{i}.json",
                                 base.with_suffix(".table")),
                        base.with_suffix(".out"), base.with_suffix(".err"))
            after = calibrate()
            wall_speed, cpu_speed = speed(before, after)
            rec.update(doc=i, base=base, speed=wall_speed, cpu_speed=cpu_speed)
            ops.append(rec)
            before = after
        if time.perf_counter() - t0 >= seconds \
                or time.perf_counter() - started >= RUN_LIMIT_S:
            return ops


class OutputChecks:
    """Checks each op's outputs once; repeats of a document must reproduce
    the first op's failing items (validate) or bytes (transfer)."""

    def __init__(self, workload: str, seed: int, docs):
        import checks

        self.checks = checks
        self.docs = docs
        self.digests = checks.load_digests().get(workload, {}) \
            if seed == checks.DEFAULT_SEED else {}
        self.seed = seed
        self.workload = workload
        self.oracle = checks.TableOracle()
        self.first = {}
        self.errors = []

    def check(self, i: int, exit_code: int, stdout: bytes, stderr: bytes,
              table: bytes = b"") -> bool:
        doc = self.docs[i]
        err = None
        if self.checks.has_traceback(stderr):
            err = "traceback on stderr"
        elif doc.command == "validate":
            err, failing = self.checks.check_validate(doc, exit_code, stdout)
            if err is None:
                if self.first.setdefault(i, failing) != failing:
                    err = f"failing items {failing} != first run {self.first[i]}"
        elif i in self.first and exit_code == 0:
            if self.first[i] != table:
                err = "table bytes differ from the first run of this document"
        else:
            if self.seed == self.checks.DEFAULT_SEED and doc.name not in self.digests:
                err = f"no recorded digest for {doc.name}"
            else:
                rng = random.Random(f"oracle:{self.workload}:{self.seed}:{i}")
                err = self.checks.check_transfer(
                    doc, exit_code, stdout, table, self.digests.get(doc.name),
                    self.oracle, rng)
            if err is None:
                self.first[i] = table
        if err:
            self.errors.append(f"{doc.name}: {err}")
        return err is None


def warm_up(workdir: Path) -> float:
    """Start one child that only imports the CLI; fills the file and
    bytecode caches.  Returns its wall time."""
    return spawn([sys.executable, "-c", "import bvhy.cli"],
                 workdir / "startup.out", workdir / "startup.err")["wall"]


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def run_cli(workload: str, seed: int, seconds: float, workdir: Path, started: float):
    docs, raw_setup_s, setup_s = setup(workload, seed, workdir)
    warm_up(workdir)
    ops = closed_loop(docs, workdir, seconds, started)

    checker = OutputChecks(workload, seed, docs)
    failed = 0
    for op in ops:
        base = op["base"]
        ok = checker.check(op["doc"], op["exit"], _read(base.with_suffix(".out")),
                           _read(base.with_suffix(".err")),
                           _read(base.with_suffix(".table")))
        failed += not ok
    walls = [op["wall"] * op["speed"] for op in ops]
    tail, pct = tail_percentile(walls)
    print(f"{workload} seed={seed}: {len(ops)} ops over {len(docs)} documents; "
          f"op_tail_s is p{pct:.1f} of {len(walls)} samples; speed factor "
          f"median wall {statistics.median(op['speed'] for op in ops):.4f}, "
          f"cpu {statistics.median(op['cpu_speed'] for op in ops):.4f}; "
          f"unscaled setup_s {raw_setup_s:.4g}, "
          f"op_p50_s {statistics.median(op['wall'] for op in ops):.4g}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "docs_per_s": (len(ops) / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail, "s"),
        "cpu_per_doc_s": (statistics.median(op["cpu"] * op["cpu_speed"] for op in ops), "s"),
    }
    metrics["peak_rss_mb"] = (max(op["rss_kb"] for op in ops) / 1024.0, "MB")
    metrics["ok_frac"] = ((len(ops) - failed) / len(ops), "ratio")
    return len(ops), failed, checker.errors, metrics


def trace_path(workload: str, seed: int) -> Path:
    return OUT / f"trace-{workload}-seed{seed}.json"


def run_traced(workload: str, seed: int, seconds: float, workdir: Path, started: float):
    import gen
    import spans
    from bvhy import trees

    docs, _, _ = setup(workload, seed, workdir)
    warm_up(workdir)
    startup = [warm_up(workdir) for _ in range(STARTUP_REPEATS)]

    # the oracle's enumerator alone, independent of the documents, so the
    # same figure exists on every workload
    enum_s, tree_count = 0.0, 0
    for k in range(2, gen.TRANSFER_ARITY + 1):
        for l in range(k - 1):
            t0 = time.perf_counter()
            tree_count += len(trees.enumerate_trees(
                k, constraints={"bracket_count": l}))
            enum_s += time.perf_counter() - t0

    tracer = spans.Tracer()
    checker = OutputChecks(workload, seed, docs)
    counts, overhead = [], []
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        i = attempted % len(docs)
        command, path = docs[i].command, str(workdir / f"doc{i}.json")
        tracer.op_id = attempted
        # alternate which variant runs first so cache warmth cancels out
        if attempted % 2:
            plain_s, _ = spans.op_run(command, path, None)
            traced_s, out = spans.op_run(command, path, tracer)
        else:
            traced_s, out = spans.op_run(command, path, tracer)
            plain_s, _ = spans.op_run(command, path, None)
        overhead.append(traced_s / plain_s)
        counts.append(spans.op_counts(out))
        exit_code = 0 if json.loads(out["report"])["passed"] else 1
        attempted += 1
        failed += not checker.check(i, exit_code, out["report"], b"",
                                    out.get("table_bytes", b""))
        now = time.perf_counter()
        if attempted >= len(docs) and now - t0 >= seconds \
                or now - started >= RUN_LIMIT_S:
            break

    m = spans.summarize(spans.layer_times(tracer.spans), counts, overhead)
    m["cli.startup_s"] = statistics.median(startup)
    m["trees.enumerate_trees_s"] = enum_s
    m["trees.count"] = tree_count
    OUT.mkdir(exist_ok=True)
    with open(trace_path(workload, seed), "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "docs": [d.name for d in docs], "layers": m,
                   "spans": tracer.spans}, fh)
    metrics = {name: (value, spans.unit(name)) for name, value in m.items()
               if not spans.partial(name)}
    shares = {l: round(m[f"{l}.share"], 3) for l in spans.LAYERS}
    print(f"{workload} seed={seed}: {attempted} traced ops; layer shares "
          f"{shares}; engine.nonzero_ratio {m['engine.nonzero_ratio']:.3f}")
    return attempted, failed, checker.errors, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    _bootstrap()
    import gen

    if args.workload not in gen.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(gen.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = run_traced if args.trace else run_cli
        attempted, failed, errors, metrics = run(
            args.workload, args.seed, args.seconds, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in errors[:20]:
        print(f"FAILED {err}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
