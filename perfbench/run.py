"""jordanlab benchmark: the four CLI subcommands at fixed sizes, run as a user would.

    python3 perfbench/run.py --workload theta --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --steadiness 10
    python3 perfbench/run.py --record-expected

Load model: a closed loop with a single client.  One item (one CLI call) runs
at a time, each in a fresh interpreter with cold caches (child.py), and the
next starts only when the previous one has ended.  The workload's items are
run in rounds until `--seconds` have passed; every item runs at least once.

Every record is checked against an expected result digest (expected.json),
written by --record-expected from the code before any optimisation.  An item fails if it exits
non-zero, if any claim failed, or if its digest differs.

End-to-end metrics (`--trace 0`), per workload:
  wall_s        sum over items of the median time inside `cli.main`, from the
                call to the emitted record (start-up and import excluded)
  checks_per_s  sum of `checked` over all claims of all items, over wall_s
  setup_s       interpreter start plus import: the median over every item run
                of the run, times the number of items
  peak_rss_mb   largest child ru_maxrss over the run
Times are in seconds at a fixed reference core speed (speed.py): the call by
the speed sampled through it, start-up by the median speed of the item's
call.  Raw call times are printed alongside.  Failed items over items run
(fail_ratio) is reported as `failed`/`attempted`.

Per-layer metrics (`--trace 1`): each item runs once untraced and once with
every layer wrapped in spans (spans.py); a separate interpreter then times
single operations at fixed inputs.  The metric names and units printed are
those listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import copy
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

STEADINESS = HERE / "steadiness.json"
LOAD_MODEL = "closed loop, 1 client: one item at a time, each in a fresh interpreter"

HARD_LIMIT_S = 165  # no child may run past this point of a run
THETA_CURVES = 4

# what a record certifies; timing, parameters, claim details and witnesses
# are left out so that new telemetry keys do not change the digest
RESULT_KEYS = ("n", "delta", "p", "a", "b", "group_order", "found",
               "min_abelian_index", "certified_lower_bound", "orientation_sigma")
ROW_KEYS = ("n", "delta", "p", "a", "b", "group_order", "certified_lower_bound",
            "min_abelian_index", "theta_transport")


def theta_items(seed: int, pool: list) -> list[list[str]]:
    """Level 3 on THETA_CURVES curves drawn from the pool, plus level 2 on 7:3:0."""
    drawn = random.Random(seed).sample(pool, THETA_CURVES)
    cases = [(3, p, a, b) for p, a, b in drawn] + [(2, 7, 3, 0)]
    return [["theta-verify", "--n", str(n), "--p", str(p), "--a", str(a), "--b", str(b),
             "--seed", str(seed)] for n, p, a, b in cases]


def abstract_items(seed: int, pool: list) -> list[list[str]]:
    items = [["abstract", "--delta", d] for d in ("4", "2,2", "5", "6")]
    random.Random(seed).shuffle(items)
    return items


def search_items(seed: int, pool: list) -> list[list[str]]:
    items = [["curve-search", "--n", n, "--p-max", p_max]
             for n, p_max in (("2", "40"), ("3", "50"), ("4", "60"))]
    items.append(["nonjordan", "--n-max", "4", "--seed", str(seed)])
    random.Random(seed).shuffle(items)
    return items


WORKLOADS = {"theta": theta_items, "abstract": abstract_items, "search": search_items}

SMOKE = [
    ["theta-verify", "--n", "2", "--p", "7", "--a", "3", "--b", "0", "--seed", "0"],
    ["abstract", "--delta", "2"],
    ["curve-search", "--n", "2", "--p-max", "20"],
]


# ---------------------------------------------------------------------------
# result digests


def item_key(argv: list[str]) -> str:
    """The item's argv without --seed, which no certified result depends on."""
    if "--seed" in argv:
        i = argv.index("--seed")
        argv = argv[:i] + argv[i + 2:]
    return " ".join(argv)


def digest(record: dict) -> str:
    """Hash of claim ids, statuses, checked and failure counts, rows, minima and sigma."""
    body = {
        "command": record["command"],
        "result": {k: record.get(k) for k in RESULT_KEYS},
        "claims": [[c["id"], c["status"], c["checked"], c["failures"]]
                   for c in record["claims"]],
        "rows": [{k: row.get(k) for k in ROW_KEYS} for row in record.get("rows", [])],
    }
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def check_record(record: dict, expected: str | None) -> str | None:
    """Why the record fails the item, or None when it holds the expected result."""
    failed = [c["id"] for c in record["claims"] if c["status"] == "failed"]
    if failed:
        return f"failed claims {failed}"
    if expected is None:
        return "no expected digest for this input"
    got = digest(record)
    if got != expected:
        return f"digest {got} != expected {expected}"
    return None


def doctored(record: dict) -> dict[str, dict]:
    """Copies of a record that the digest check must fail."""
    recounted = copy.deepcopy(record)
    recounted["claims"][0]["checked"] += 1
    skipped = copy.deepcopy(record)
    skipped["claims"][-1]["status"] = "skipped-budget"
    return {"one checked count changed": recounted, "one claim skipped-budget": skipped}


def gate_catches_doctoring(record: dict, expected: str) -> bool:
    return all(check_record(bad, expected) is not None for bad in doctored(record).values())


# ---------------------------------------------------------------------------
# running items


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(mode: str, argv: list[str], deadline: float) -> tuple[dict | None, str | None, float]:
    """(envelope, failure, spawn time) of one fresh-interpreter run."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), mode, json.dumps(argv)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return None, "timed out", spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"child exit {proc.returncode}: {tail[0]}", spawned
    return json.loads(lines[-1]), None, spawned


class Item:
    """One CLI invocation of a workload and every sample taken of it."""

    def __init__(self, argv: list[str], expected: str | None):
        self.argv = argv
        self.expected = expected
        self.call_s: list[float] = []  # scaled to reference core speed
        self.raw_call_s: list[float] = []
        self.setup_s: list[float] = []
        self.rss_mb: list[float] = []
        self.checked = 0
        self.record: dict | None = None
        self.failures: list[str] = []
        self.traces: list[dict] = []
        self.traced_call_s: list[float] = []
        self.traced_raw_s: list[float] = []

    def run(self, mode: str, deadline: float) -> bool:
        envelope, failure, spawned = run_child(mode, self.argv, deadline)
        if envelope is not None and envelope["exit"] != 0:
            failure, envelope = f"exit code {envelope['exit']}", None
        if envelope is not None:
            record = json.loads(envelope["stdout"])
            failure = check_record(record, self.expected)
            if mode == "trace":
                self.traces.append(envelope["trace"])
                self.traced_call_s.append(envelope["call_s"])
                self.traced_raw_s.append(envelope["raw_call_s"])
            else:
                self.call_s.append(envelope["call_s"])
                self.raw_call_s.append(envelope["raw_call_s"])
                self.setup_s.append((envelope["t_ready"] - spawned) * envelope["speed_scale"])
            self.rss_mb.append(envelope["maxrss_kb"] / 1024)
            self.checked = sum(c["checked"] for c in record["claims"])
            self.record = record
        if failure is not None:
            self.failures.append(failure)
            print(f"item failed: {' '.join(self.argv)}: {failure}", file=sys.stderr)
        return failure is None


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def describe(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile with >= 10 samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": median_or_zero(xs)}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(xs, n=4)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = int(n * pct / 100)
        if n - rank >= 10 and rank >= 1:
            out[f"p{pct:g}"] = xs[rank - 1]
            break
    return out


# ---------------------------------------------------------------------------
# metrics


def end_to_end(items: list[Item]) -> dict[str, float]:
    wall = sum(median_or_zero(it.call_s) for it in items)
    return {
        "wall_s": wall,
        "checks_per_s": sum(it.checked for it in items) / wall if wall else 0.0,
        # every item starts the same interpreter and imports the same modules
        "setup_s": len(items) * median_or_zero([x for it in items for x in it.setup_s]),
        "peak_rss_mb": max((mb for it in items for mb in it.rss_mb), default=0.0),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(items: list[Item], perop: dict[str, float]) -> dict[str, float]:
    spans: dict[str, dict[str, float]] = {}
    caches: dict[str, dict[str, int]] = {}
    structures = 0
    covered = 0.0
    for trace in (t for it in items for t in it.traces):
        for name, st in trace["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(st, 0))
            for key, value in st.items():
                acc[key] += value
        for name, info in trace["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
        structures += trace["structures"]
        covered += trace["covered_s"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    values = dict(perop)
    for name, st in spans.items():
        values[f"{name}.calls"] = st["calls"]
        values[f"{name}.self_s"] = st["self_s"]
    for name, info in caches.items():
        values[f"{name}.hit_ratio"] = ratio(info["hits"], info["hits"] + info["misses"])
    values["ellcurve.iter_admissible_curves.yield_ratio"] = ratio(
        span("ellcurve.iter_admissible_curves", "yields"),
        span("ellcurve.torsion_subgroup", "under"))
    values["theta.find_theta_curve.tries"] = span("ellcurve.iter_admissible_curves", "under")
    values["birgroup.apply.undefined_ratio"] = ratio(span("birgroup.apply", "errors"),
                                                     span("birgroup.apply", "calls"))
    values["theta._STRUCTURES.len"] = structures
    traced = sum(median_or_zero(it.traced_call_s) for it in items)
    values["trace.overhead_s"] = traced - sum(median_or_zero(it.call_s) for it in items)
    traced_raw = sum(sum(it.traced_raw_s) for it in items)
    values["trace.uncovered_share"] = ratio(traced_raw - covered, traced_raw)
    return values


def machine_facts() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jordanlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_at_start": os.getloadavg(),
        "jordanlab_commit": commit or None,
        "jordanlab_source_sha256": source.hexdigest(),
    }


def select(values: dict[str, float], specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise SystemExit(f"error: no value measured for {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


# ---------------------------------------------------------------------------
# modes


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    with open(SPEC) as fh:
        spec = json.load(fh)
    expected = load_expected()
    facts = machine_facts()
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    items = [Item(argv, expected["digests"].get(item_key(argv)))
             for argv in WORKLOADS[workload](seed, expected["theta_pool"])]

    attempted = failed = rounds = 0
    round_wall: list[float] = []
    while rounds == 0 or (not trace and time.monotonic() - started < seconds):
        before = sum(len(it.call_s) for it in items)
        for it in items:
            for mode in ("item", "trace") if trace else ("item",):
                attempted += 1
                failed += not it.run(mode, deadline)
        rounds += 1
        if sum(len(it.call_s) for it in items) == before + len(items):
            round_wall.append(sum(it.call_s[-1] for it in items))
        if time.monotonic() > deadline:
            break

    gate_ok = True
    sample = next((it for it in items if it.record and not it.failures), None)
    if sample is not None and not gate_catches_doctoring(sample.record, sample.expected):
        print("digest gate missed a doctored record", file=sys.stderr)
        gate_ok = False

    if trace:
        envelope, failure, _ = run_child("perop", [], deadline)
        attempted += 1
        if failure is not None:
            print(f"per-op pass failed: {failure}", file=sys.stderr)
            failed += 1
        values = per_layer(items, envelope["perop"] if envelope else {})
        specs = spec["per_layer"]
    else:
        values = end_to_end(items)
        specs = spec["end_to_end"]

    for s in specs:
        print(f"{s['name']:<48} {values.get(s['name'], float('nan')):>14.6g} {s['unit']}",
              file=sys.stderr)
    print(f"{'fail_ratio':<48} {ratio(failed, attempted):>14.6g} ratio "
          f"({failed} of {attempted} runs)", file=sys.stderr)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "load": LOAD_MODEL,
        "rounds": rounds, "machine": facts, "round_wall_s": describe(round_wall),
        "items": [{"argv": it.argv, "call_s": describe(it.call_s), "call_samples": it.call_s,
                   "raw_call_s": describe(it.raw_call_s),
                   "setup_s": describe(it.setup_s), "checked": it.checked,
                   "failures": it.failures} for it in items],
    }
    if trace:
        ranked = sorted(((k, v) for k, v in values.items() if k.endswith(".self_s")),
                        key=lambda kv: -kv[1])
        detail["top_self_s"] = dict(ranked[:12])
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and gate_ok, "attempted": attempted,
                      "failed": failed, "metrics": select(values, specs)}))
    return 0


def self_test() -> int:
    """Smallest item of each workload, then doctored records through the gate."""
    expected = load_expected()
    deadline = time.monotonic() + HARD_LIMIT_S
    ok = True
    for argv in SMOKE:
        item = Item(argv, expected["digests"].get(item_key(argv)))
        passed = item.run("item", deadline)
        print(f"{'PASS' if passed else 'FAIL'} {' '.join(argv)}: record matches its digest")
        ok &= passed
        if item.record is None:
            continue
        for label, bad in doctored(item.record).items():
            failure = check_record(bad, item.expected)
            print(f"{'PASS' if failure else 'FAIL'} {' '.join(argv)}: {label} fails the item"
                  f" ({failure})")
            ok &= failure is not None
    return 0 if ok else 1


def steadiness(runs: int) -> int:
    """Run every workload with seeds 1..runs and write each metric's median and IQR."""
    with open(SPEC) as fh:
        seconds = json.load(fh)["run_seconds"]
    facts = machine_facts()
    del facts["executable"]  # a local path; the committed file keeps the version only
    report = {"load": LOAD_MODEL, "runs_per_workload": runs, "seconds": seconds,
              "machine": facts, "workloads": {}}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(1, runs + 1):
            proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds)],
                                  capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"error: {workload} seed {seed}: {result or proc.stderr}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "iqr_share": (q3 - q1) / median}
            print(f"{workload:<9} {name:<13} median {median:<12.6g} "
                  f"IQR/median {(q3 - q1) / median:.4f}", file=sys.stderr)
        report["workloads"][workload] = summary
    with open(STEADINESS, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


def record_expected() -> int:
    """Write expected.json from the code in this checkout: theta pool and digests."""
    sys.path.insert(0, str(ROOT / "src"))
    from jordanlab.ellcurve import enumerate_points, iter_admissible_curves
    from jordanlab.errors import EvalAtSupport, NotAdmissible
    from jordanlab.theta import theta_structure

    pool = []
    for curve in iter_admissible_curves(3, 60):
        if len(enumerate_points(curve)) <= 9:
            continue
        try:
            theta_structure(curve, 3)
        except (NotAdmissible, EvalAtSupport):
            continue
        pool.append([curve.p, curve.a.value, curve.b.value])
    inputs = {item_key(argv): argv for argv in SMOKE}
    for make in WORKLOADS.values():
        inputs.update((item_key(argv), argv) for argv in make(0, pool))
    for p, a, b in pool:
        argv = ["theta-verify", "--n", "3", "--p", str(p), "--a", str(a), "--b", str(b)]
        inputs[item_key(argv)] = argv
    digests = {}
    for key, argv in sorted(inputs.items()):
        envelope, failure, _ = run_child("item", argv, time.monotonic() + 600)
        if envelope is None or envelope["exit"] != 0:
            print(f"error: {key}: {failure or 'exit ' + str(envelope['exit'])}", file=sys.stderr)
            return 1
        digests[key] = digest(json.loads(envelope["stdout"]))
        print(f"{digests[key]} {key}", file=sys.stderr)
    with open(EXPECTED, "w") as fh:
        json.dump({"jordanlab_source_sha256": machine_facts()["jordanlab_source_sha256"],
                   "theta_pool": pool, "digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    args = parser.parse_args()
    if not (ROOT / "src" / "jordanlab" / "cli.py").is_file():
        print(f"error: no jordanlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_expected:
        return record_expected()
    if not EXPECTED.is_file() or not SPEC.is_file():
        print("error: expected.json or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.steadiness is not None:
        if args.steadiness < 2:
            parser.error("--steadiness needs at least 2 runs")
        return steadiness(args.steadiness)
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
