"""Question-latency benchmark for fusionrings.

Usage, from the repository root:

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A question is one library call (or one CLI invocation) on one ring at one
depth; its answer is checked against a reference written from theory.  The
loop is closed, with one client and no threads: the next question is asked
when the previous one has returned.  The seed only permutes the fixed
multiset of questions (and, on explicit-structure, draws the dimension
reassignments), so every run does the same work.  A run asks whole rounds
of that multiset; the number of rounds is set from --seconds and a fixed
per-workload constant, never from a measurement.  Question times are
scaled to a reference speed by a calibration loop (see scaled_times).

--trace 0 measures the end-to-end metrics with the library untouched.
--trace 1 wraps the library from outside (tracer.py), asks one round
untraced, the same round traced and again untraced (the overhead ratio
compares the last two), then runs the census of size ladders and per-layer
probes (questions.census), and reports the per-layer metrics.

The last line of stdout is the result; the line before it is the run
record (versions, sample counts, tail percentile, failures, self-checks).
Both are also written under qbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORK = HERE / ".work"
SETUP_SAMPLES = 5
MIN_ROUNDS = 3
CLI_TIMEOUT_S = 150
CAL_REF_S = 0.003  # reference time of calibration_work()
CAL_WINDOW = 5

LIMITS = ("no hardware counters; the page cache is not dropped between runs; "
          "the machine is shared with other tenants and has "
          f"{os.cpu_count()} cores; the benchmark and its children are pinned to one "
          "of them; wall-clock timings only, scaled by a calibration loop")

# per-layer metric -> (layer whose calls decide whether the workload's
# round measured it, unit, better)
PER_LAYER = {
    "ring.product.calls": ("ring.product", "count", "lower"),
    "ring.product.distinct_pairs": ("ring.product", "count", "lower"),
    "ring.product.memo_hit_ratio": ("ring.product", "ratio", "higher"),
    "ring.product.self_s": ("ring.product", "s", "lower"),
    "ring.explore.self_s": ("ring.explore", "s", "lower"),
    "ring.explore.labels": ("ring.explore", "count", "lower"),
    "central.merge_closure.self_s": ("central.merge_closure", "s", "lower"),
    "central.merge_closure.pairs": ("central.merge_closure", "count", "lower"),
    "central.sigma_cosets.self_s": ("central.sigma_cosets", "s", "lower"),
    "central.is_central_subobject.self_s": ("central.is_central_subobject", "s", "lower"),
    "central.is_central_subobject.block_pairs": ("central.is_central_subobject", "count",
                                                 "lower"),
    "ring.validate_ring.self_s": ("ring.validate_ring", "s", "lower"),
    "ring.validate_ring.triples": ("ring.validate_ring", "count", "lower"),
    "central.central_lattice.self_s": ("central.central_lattice", "s", "lower"),
    "central.central_lattice.size": ("central.central_lattice", "count", "lower"),
    "ring.subobject.self_s": ("ring.subobject", "s", "lower"),
    "ring.subobject.calls": ("ring.subobject", "count", "lower"),
    "automorph.search.self_s": ("automorph.search", "s", "lower"),
    "automorph.search.found": ("automorph.search", "count", "higher"),
    "automorph.verify.calls": ("automorph.verify", "count", "lower"),
    "central.identify_group.self_s": ("central.identify_group", "s", "lower"),
    "central.chain_oracle.self_s": ("central.chain_oracle", "s", "lower"),
    "subgroups.validate_restriction.self_s": ("subgroups.validate_restriction", "s", "lower"),
    "subgroups.grouplikes.self_s": ("subgroups.grouplikes", "s", "lower"),
    "catalog.build.self_s": ("catalog.build", "s", "lower"),
    "cli.startup_s": ("cli._main", "s", "lower"),
    "serialize.self_s": ("serialize", "s", "lower"),
}
EXPONENTS = {  # ladder -> (metric, layer whose self time is fitted)
    "merge": ("central.merge_closure.exponent", "central.merge_closure"),
    "validate": ("ring.validate_ring.exponent", "ring.validate_ring"),
    "product": ("ring.product.exponent", "ring.product"),
}


def fail(msg: str):
    print(f"qbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# ------------------------------------------------------------- set-up


def setup_probe(workload: str):
    """Child mode: time importing the library and building the rings."""
    start = time.perf_counter()
    import fusionrings  # noqa: F401
    imported = time.perf_counter() - start
    import questions
    setup = questions.WORKLOADS[workload].setup
    start = time.perf_counter()
    setup()
    print(imported + time.perf_counter() - start)


def measure_setup(workload: str) -> list[float]:
    """Set-up times of fresh processes, scaled like question times by the
    calibration runs made just before and after each."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cal = [calibrate() for _ in range(3)]
        if workload == "cli":
            # the start-up floor every CLI call pays
            start = time.perf_counter()
            run = subprocess.run([sys.executable, "-m", "fusionrings.cli", "catalog"],
                                 capture_output=True, text=True, env=child_env(),
                                 cwd=ROOT, timeout=CLI_TIMEOUT_S)
            seconds = time.perf_counter() - start
            if run.returncode != 0:
                fail(f"`fusionrings catalog` exited {run.returncode}: {run.stderr[-500:]}")
        else:
            run = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                                  workload], capture_output=True, text=True,
                                 env=child_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S)
            if run.returncode != 0:
                fail(f"set-up probe failed: {run.stderr[-500:]}")
            seconds = float(run.stdout.split()[-1])
        cal += [calibrate() for _ in range(3)]
        samples.append(seconds * CAL_REF_S / statistics.median(cal))
    return samples


# ----------------------------------------------------------------- cli


def write_cli_inputs(questions) -> dict:
    WORK.mkdir(exist_ok=True)
    paths = {}
    for name, doc in questions.RESTRICTIONS.items():
        path = WORK / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path.relative_to(ROOT))
    missing = WORK / "missing-sigma.json"
    if missing.exists():
        missing.unlink()
    paths["missing"] = str(missing.relative_to(ROOT))
    return paths


def cli_runner(paths: dict, phase_sink=None):
    """Runs one CLI question in a fresh process.  With a phase sink the
    child is the traced entry point and its aggregates are handed over."""
    env = child_env()

    def run(argv):
        argv = [a.format(**paths) for a in argv]
        if phase_sink is None:
            cmd = [sys.executable, "-m", "fusionrings.cli", *argv]
            done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  cwd=ROOT, timeout=CLI_TIMEOUT_S)
            return done.returncode, done.stdout, done.stderr
        WORK.mkdir(exist_ok=True)
        fd, spans_file = tempfile.mkstemp(prefix="spans-", suffix=".json", dir=WORK)
        os.close(fd)
        try:
            cmd = [sys.executable, str(HERE / "cli_child.py"), spans_file, *argv]
            env["QBENCH_SPAWNED"] = repr(time.time())
            done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  cwd=ROOT, timeout=CLI_TIMEOUT_S)
            with open(spans_file) as fh:
                phase_sink(json.load(fh))
        finally:
            os.unlink(spans_file)
        return done.returncode, done.stdout, done.stderr

    return run


# ----------------------------------------------------------- questions


def ask(q, ctx, tr=None) -> dict:
    """One question: the timed call, then (untimed) its check."""
    import questions

    error = None
    start = time.perf_counter()
    try:
        if tr is None:
            answer = q.ask(ctx)
        else:
            tr.enabled = True
            with tr.span("bench.question"):
                answer = q.ask(ctx)
    except Exception as exc:  # a raising question is a failed question
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if tr is not None:
            tr.enabled = False
    seconds = time.perf_counter() - start
    if error is None:
        try:
            facts = q.facts(answer)
        except Exception as exc:
            error = f"unreadable answer: {type(exc).__name__}: {exc}"
    if error is not None:
        facts = {"error": error}
        wrong = [error]
    else:
        wrong = questions.mismatches(facts, q.expect)
    return {"qid": q.qid, "seconds": seconds, "digest": questions.digest(facts),
            "wrong": wrong}


def calibration_work():
    """Fixed work shaped like the library's: string-keyed tables of sparse
    supports, built and then read back."""
    table = {}
    for i in range(1500):
        table[(f"V{i % 150}", f"W{i // 150}")] = {f"X{i % 13}": i, "X": 1}
    total = 0
    for (a, b), supp in table.items():
        total += len(a) + len(b) + sum(supp.values())
    return total


def calibrate() -> float:
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def ask_round(qs, ctx, tr=None, collect=True) -> list[dict]:
    out = []
    for q in qs:
        if collect:
            gc.collect()
        cal = calibrate()
        rec = ask(q, ctx, tr)
        rec["cal"] = cal
        out.append(rec)
    return out


# ---------------------------------------------------------- self-checks


def self_checks(questions, qs, seed, records) -> dict:
    """The checker must not pass vacuously, and answers must not depend on
    the order the questions are asked in."""
    checks = {}
    ids = lambda order: [q.qid for q in order]
    checks["same_seed_same_order"] = ids(questions.order(qs, seed, 0)) == \
        ids(questions.order(qs, seed, 0))
    other = questions.order(qs, seed + 1, 0)
    checks["other_seed_same_multiset"] = sorted(ids(other)) == sorted(q.qid for q in qs)
    checks["other_seed_other_order"] = ids(other) != ids(questions.order(qs, seed, 0))
    by_qid: dict[str, set] = {}
    for rec in records:
        by_qid.setdefault(rec["qid"], set()).add(rec["digest"])
    checks["same_answer_every_round"] = all(len(d) == 1 for d in by_qid.values())
    checks["every_reference_nonempty"] = all(q.expect for q in qs)
    canary = qs[0]
    key = next(iter(canary.expect))
    wrong = dict(canary.expect, **{key: ("deliberately wrong", canary.expect[key])})
    checks["wrong_reference_fails"] = bool(questions.mismatches(dict(canary.expect), wrong))
    checks["missing_fact_fails"] = bool(questions.mismatches({}, canary.expect))
    return checks


# -------------------------------------------------------------- metrics


def scaled_times(records) -> list[float]:
    """Question wall times at the reference machine speed.

    On a shared machine the speed of a core drifts by 10-30% between runs.
    Each question's wall time is therefore multiplied by CAL_REF_S over the
    median calibration time of the CAL_WINDOW questions asked on either
    side of it, which cancels drift slower than a few questions.
    """
    cal = [rec["cal"] for rec in records]
    out = []
    for i, rec in enumerate(records):
        local = statistics.median(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
        out.append(rec["seconds"] * CAL_REF_S / local)
    return out


def tail(sorted_values):
    """The sample with exactly ten samples beyond it, and its percentile."""
    n = len(sorted_values)
    return sorted_values[n - 11], 100 * (n - 10) / n


def run_record(args, questions, qs, rounds, records, checks, extra) -> dict:
    failures = {}
    for rec in records:
        if rec["wrong"]:
            failures.setdefault(rec["qid"], rec["wrong"])
    per_question = {}
    for rec in records:
        per_question.setdefault(rec["qid"], []).append(rec["seconds"])
    unexpected = sorted(set(failures) - questions.KNOWN_DEFECTS)
    try:
        click_version = metadata.version("click")
    except metadata.PackageNotFoundError:
        click_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "questions_per_round": len(qs),
        "commit": git_commit(), "src_sha256": source_hash(),
        "python": platform.python_version(), "click": click_version,
        "nproc": os.cpu_count(), "loop": "closed, one client, no threads",
        "limits": LIMITS,
        "failures": failures, "unexpected_failures": unexpected,
        "known_defects_failing": sorted(set(failures) & questions.KNOWN_DEFECTS),
        "self_checks": checks,
        "answers_digest": hashlib.sha256(json.dumps(sorted(
            {(r["qid"], r["digest"]) for r in records})).encode()).hexdigest()[:16],
        "order_digest": hashlib.sha256(" ".join(
            q.qid for q in questions.order(qs, args.seed, 0)).encode()).hexdigest()[:16],
        "question_s": dict(sorted(per_question.items())),
        "question_log": [(r["qid"], r["seconds"], r.get("cal")) for r in records],
        **extra,
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fusionrings").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metric(value, unit):
    return {"value": value, "unit": unit}


def finish(args, record, result):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"record": record, "result": result},
                                                 indent=1, default=repr))
    print(json.dumps({"record": record}, default=repr))
    print(json.dumps(result))


# ----------------------------------------------------------- untraced


def run_untraced(args, questions, wl, qs, ctx):
    setup = measure_setup(wl.name)
    rounds = max(MIN_ROUNDS, round(args.seconds / wl.round_s))
    records = []
    for r in range(rounds):
        records += ask_round(questions.order(qs, args.seed, r), ctx,
                             collect=wl.setup is not None)
    times = sorted(scaled_times(records))
    n = len(times)
    tail_s, pct = tail(times)
    failed = sum(1 for rec in records if rec["wrong"])
    who = resource.RUSAGE_CHILDREN if wl.setup is None else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    checks = self_checks(questions, qs, args.seed, records)
    record = run_record(args, questions, qs, rounds, records, checks, {
        "samples": n, "tail_percentile": pct, "tail_samples_beyond": 10,
        "time_scale": f"wall seconds x {CAL_REF_S} s / local calibration median",
        "calibration_median_s": statistics.median(rec["cal"] for rec in records),
        "setup_samples_s": setup,
        "peak_rss_of": "largest child process" if wl.setup is None else "this process",
    })
    result = {
        "correct": all(checks.values()) and not record["unexpected_failures"],
        "attempted": n, "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "question_p50_s": metric(statistics.median(times), "s"),
            "question_tail_s": metric(tail_s, "s"),
            "questions_per_s": metric(n / sum(times), "1/s"),
            "ok_share": metric((n - failed) / n, "share"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        },
    }
    finish(args, record, result)


# ------------------------------------------------------------ traced


def fit_slope(points):
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(y, 1e-9)) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def layer_values(phase) -> dict:
    calls, self_s = phase.get("calls", {}), phase.get("self_s", {})
    counters, maxima = phase.get("counters", {}), phase.get("maxima", {})
    prod_calls = calls.get("ring.product", 0)
    distinct = counters.get("ring.product.distinct_pairs", 0)
    startup = phase.get("samples", {}).get("cli.startup_s", [])
    out = {}
    for name in PER_LAYER:
        layer, quantity = name.rsplit(".", 1)
        if name == "ring.product.memo_hit_ratio":
            out[name] = (prod_calls - distinct) / prod_calls if prod_calls else 0.0
        elif name == "cli.startup_s":
            out[name] = statistics.median(startup) if startup else 0.0
        elif name == "ring.explore.labels":
            out[name] = maxima.get(name, 0)
        elif quantity == "self_s":
            out[name] = self_s.get(layer, 0.0)
        elif quantity == "calls":
            out[name] = calls.get(layer, 0)
        else:
            out[name] = counters.get(name, 0)
    return out


def run_traced(args, questions, wl, qs, ctx, tr):
    import tracer

    phases = {"round": {}, "census": {}}

    def sink(phase):
        return lambda child_phase: tracer.merge_phase(phases[phase], child_phase)

    if wl.setup is None:
        traced_ctx = dict(ctx, cli=cli_runner(ctx["paths"], sink("round")))
    else:
        traced_ctx = ctx
    collect = wl.setup is not None
    round_qs = questions.order(qs, args.seed, 0)
    warm = ask_round(round_qs, ctx, collect=collect)
    tr.reset()
    traced = ask_round(round_qs, traced_ctx, tr, collect=collect)
    tracer.merge_phase(phases["round"], tr.take())
    untraced = ask_round(round_qs, ctx, collect=collect)

    # census: ladders and per-layer probes, one phase per entry
    census_ctx = {"cli": cli_runner({}, sink("census")), "seed": args.seed}
    ladders: dict[str, list] = {}
    census_records = []
    for q, ladder, size in questions.census():
        census_records.append(ask(q, census_ctx, tr))
        item = tr.take()
        tracer.merge_phase(phases["census"], item)
        if ladder is not None:
            layer = EXPONENTS[ladder][1]
            ladders.setdefault(ladder, []).append((size, item["self_s"].get(layer, 0.0)))

    round_vals = layer_values(phases["round"])
    census_vals = layer_values(phases["census"])
    round_calls = phases["round"].get("calls", {})
    source, metrics = {}, {}
    for name, (layer, unit, _) in PER_LAYER.items():
        measured = round_calls.get(layer, 0) > 0
        source[name] = "round" if measured else "census"
        metrics[name] = metric((round_vals if measured else census_vals)[name], unit)
    for ladder, (name, _) in EXPONENTS.items():
        metrics[name] = metric(fit_slope(ladders[ladder]), "slope")
    traced_wall = sum(r["seconds"] for r in traced)
    metrics["trace.overhead_ratio"] = metric(
        sum(scaled_times(traced)) / sum(scaled_times(untraced)), "ratio")
    in_layers = sum(v for k, v in phases["round"].get("self_s", {}).items()
                    if k != "bench.question")
    in_layers += sum(phases["round"].get("samples", {}).get("cli.startup_s", []))
    metrics["trace.accounted_share"] = metric(in_layers / traced_wall, "share")

    records = warm + traced + untraced + census_records
    checks = self_checks(questions, qs, args.seed, warm + traced + untraced)
    failed = sum(1 for rec in records if rec["wrong"])
    record = run_record(args, questions, qs, 3, records, checks, {
        "per_layer_source": source,
        "per_layer_round": round_vals, "per_layer_census": census_vals,
        "ladders": ladders,
        "round_wall_s": {"warm": sum(r["seconds"] for r in warm),
                         "traced": traced_wall,
                         "untraced": sum(r["seconds"] for r in untraced)},
    })
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}.jsonl", "w") as fh:
        fh.write(json.dumps(["phase", "id", "parent", "name", "start", "end", "self_s",
                             "product_calls", "product_s"]) + "\n")
        for phase_name, phase in phases.items():
            for span in phase.get("spans", []):
                fh.write(json.dumps([phase_name, *span]) + "\n")
    result = {"correct": all(checks.values()) and not record["unexpected_failures"],
              "attempted": len(records), "failed": failed, "metrics": metrics}
    finish(args, record, result)


# --------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args()

    # One core for this process and every child it starts, so that the
    # calibration runs measure the core the questions run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "fusionrings" / "__init__.py").is_file():
        fail(f"no library sources at {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return
    import fusionrings
    if Path(fusionrings.__file__).resolve().parent != (SRC / "fusionrings").resolve():
        fail(f"imported fusionrings from {fusionrings.__file__}, not from {SRC}")
    import questions
    if args.workload not in questions.WORKLOADS:
        fail(f"--workload must be one of {', '.join(questions.WORKLOADS)}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    wl = questions.WORKLOADS[args.workload]
    tr = None
    if args.trace:
        import tracer
        tr = tracer.install(fusionrings)
    if wl.setup is None:
        paths = write_cli_inputs(questions)
        ctx = {"paths": paths, "cli": cli_runner(paths)}
    else:
        ctx = wl.setup()
    ctx["seed"] = args.seed
    qs = wl.questions()
    if args.trace:
        run_traced(args, questions, wl, qs, ctx, tr)
    else:
        run_untraced(args, questions, wl, qs, ctx)


if __name__ == "__main__":
    main()
