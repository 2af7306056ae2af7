"""carefulsync benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 bench/run.py --workload cerny_dense --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seconds 10

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Times are scaled to a nominal host speed with the yardstick in
``yardstick.py``, sampled while each pass runs, because the speed of a
shared host drifts by up to a factor of two within a run; the raw medians
are printed and recorded beside them.

* ``wall_s``: median time of one pass; ``wall_tail_s``: the highest
  percentile of pass times with at least ten samples beyond it, in one
  cycle of 16 passes over 16 inputs (p37.5; the median over cycles when a
  run has several);
* ``setup_s``: median, over fresh processes started between passes, of
  importing carefulsync and generating the workload's specs and automata;
* ``visited_per_s``: median over passes of the subsets visited by the
  searches of the pass, divided by the pass time;
* ``peak_rss_mib``: median, over fresh processes that each set up and run
  one pass on a different input, of their peak resident memory
  (``getrusage``, not ``tracemalloc``);
* ``error_rate``: failed operations over attempted ones, printed here and
  carried by ``failed`` and ``attempted`` in the result line.

``--trace 1`` alternates untraced and traced passes on the same inputs and
reports per-layer metrics (see ``tracing.py``) with the tracing overhead.
Every pass's output is checked outside the timed region.  The last line
of standard output is the JSON result; a fuller record, stamped with the
Python version, core count, git sha and ``src/`` line count, goes to
``bench/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("cerny_dense", "random_sweep", "grid_certify")
MIN_PAIRS = 3  # traced runs: untraced/traced pass pairs
SETUP_PROCESSES = 10
RSS_PROCESSES = 3  # fresh processes, each running one pass on a different input
RUN_LIMIT_S = 140  # stop adding passes after this, whatever the minimum
CHILD_TIMEOUT_S = 120


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_library() -> None:
    if not (SRC / "carefulsync" / "__init__.py").is_file():
        raise SystemExit(f"carefulsync sources not found under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def stamp() -> dict:
    """Python version, usable cores, git sha and src/ line count of this run."""
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "src_lines": lines}


def git_sha() -> str:
    """HEAD's sha read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(w, i: int, tracer=None) -> dict:
    """Run and check pass ``i``; only the library calls are timed.

    ``elapsed`` is the time around the library calls, ``wall`` the same
    without the yardstick readings taken during them, and ``scaled`` is
    ``wall`` at the nominal host speed (``yardstick.py``).
    """
    inputs = w.inputs(i)
    ops = w.ops(inputs)
    gc.collect()
    try:
        with yardstick.Sampler() as host, \
                contextlib.nullcontext() if tracer is None else tracer.active(i):
            t0 = time.perf_counter()
            out = w.run(inputs)
            elapsed = time.perf_counter() - t0
        wall = elapsed - host.spent
        bad = w.check(inputs, out, i)
        visited = w.visited(out)
    except Exception:
        traceback.print_exc()
        return {"wall": None, "ops": ops, "failed": ops, "visited": 0}
    for op, msg in bad:
        print(f"check failed, pass {i}, {op}: {msg}", file=sys.stderr)
    return {"elapsed": elapsed, "wall": wall, "scaled": host.scale(wall), "ops": ops,
            "failed": len({op for op, _ in bad}), "visited": visited}


def child(workload: str, seed: int, pass_index: int | None) -> None:
    """Fresh-process probe: time set-up, run pass ``pass_index`` if given, report peak RSS."""
    with yardstick.Sampler() as host:
        t0 = time.perf_counter()
        import workloads

        w = workloads.WORKLOADS[workload](seed)
        w.inputs(0)
        setup = time.perf_counter() - t0
    setup -= host.spent
    results = [] if pass_index is None else [run_pass(w, pass_index)]
    print(json.dumps({
        "setup_s": setup,
        "scaled_setup_s": host.scale(setup),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": sum(r["ops"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }))


def spawn(workload: str, seed: int, pass_index: int | None = None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--child"]
    if pass_index is not None:
        cmd += ["--pass-index", str(pass_index)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark child process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than eleven samples no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(walls)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    import workloads

    started = time.monotonic()
    w = workloads.WORKLOADS[workload](seed)
    # The median peak of a few inputs is steadier than the peak of one
    # corpus of random_sweep.
    probes = [spawn(workload, seed, i) for i in range(RSS_PROCESSES)]
    results, setups = [], []
    loop_start = time.monotonic()
    # Whole cycles over the workload's inputs.  wall_tail_s is taken in each
    # cycle, so its percentile does not depend on how many passes fit in a run.
    while (time.monotonic() - loop_start < seconds or len(results) % workloads.CYCLE) \
            and time.monotonic() - started < RUN_LIMIT_S:
        results.append(run_pass(w, len(results)))
        # Set-up processes are spread over the run, between passes.
        if len(setups) < min(SETUP_PROCESSES * (time.monotonic() - loop_start) / seconds,
                             SETUP_PROCESSES):
            setups.append(spawn(workload, seed))
    while len(setups) < SETUP_PROCESSES:
        setups.append(spawn(workload, seed))
    done = [r for r in results if r["wall"] is not None]
    if not done:
        raise SystemExit("every pass failed")
    walls = [r["scaled"] for r in done]
    cycle = workloads.CYCLE
    tails = [tail(walls[j:j + cycle]) for j in range(0, len(walls) - cycle + 1, cycle)] \
        or [tail(walls)]
    tail_s, tail_pct = statistics.median(t for t, _ in tails), tails[0][1]
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail_s,
        "setup_s": statistics.median(s["scaled_setup_s"] for s in setups),
        "visited_per_s": statistics.median(r["visited"] / r["scaled"] for r in done),
        "peak_rss_mib": statistics.median(p["peak_rss_kib"] for p in probes) / 1024,
    }
    samples = {"passes": len(walls), "wall_tail_percentile": tail_pct, "tail_cycles": len(tails),
               "setup_processes": len(setups), "rss_processes": len(probes),
               "raw_wall_s": statistics.median(r["wall"] for r in done),
               "raw_setup_s": statistics.median(s["setup_s"] for s in setups)}
    return {"metrics": metrics, "samples": samples,
            "pass_walls": [r["wall"] for r in done], "scaled_pass_walls": walls,
            "setups": setups,
            "attempted": sum(r["ops"] for r in results + probes),
            "failed": sum(r["failed"] for r in results + probes)}


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics: untraced and traced passes on the same inputs, in alternating order."""
    import tracing
    import workloads

    started = time.monotonic()
    w = workloads.WORKLOADS[workload](seed)
    tracer = tracing.Tracer()
    per_pass, ratios, results = [], [], []
    loop_start = time.monotonic()
    i = 0
    while (time.monotonic() - loop_start < seconds or i < MIN_PAIRS) \
            and time.monotonic() - started < RUN_LIMIT_S:
        first = len(tracer.spans)
        order = (None, tracer) if i % 2 == 0 else (tracer, None)
        pair = {t is None: run_pass(w, i, t) for t in order}
        plain, traced = pair[True], pair[False]
        results += [plain, traced]
        if plain["wall"] and traced["wall"]:
            # Span times include the yardstick readings taken inside them.
            per_pass.append(tracing.pass_metrics(tracer.spans[first:], traced["elapsed"]))
            ratios.append(traced["scaled"] / plain["scaled"])
        i += 1
    if not per_pass:
        raise SystemExit("every pass failed")
    metrics = tracing.summarize(per_pass)
    metrics["trace.overhead"] = statistics.median(ratios) - 1
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return {"metrics": metrics, "samples": {"pairs": len(per_pass)},
            "attempted": sum(r["ops"] for r in results),
            "failed": sum(r["failed"] for r in results)}


def report(workload: str, seed: int, trace: int, res: dict, info: dict, units: dict) -> None:
    print(f"workload {workload}  seed {seed}  trace {trace}  python {info['python']}  "
          f"nproc {info['nproc']}  git {info['git_sha'][:12]}  src_lines {info['src_lines']}")
    for name, value in res["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'error_rate':28s} {rate:14.6g} ratio  ({res['failed']} failed of {res['attempted']} operations)")
    print("  samples: " + ", ".join(f"{k} {v:g}" for k, v in res["samples"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)  # workloads.DEFAULT_SEED
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_library()
    if args.child:
        child(args.workload, args.seed, args.pass_index)
        return 0
    import workloads  # noqa: F401  (a broken library fails here, before any output)

    info = stamp()
    units = declared_metrics()[args.trace]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    measure_fn = measure_traced if args.trace else measure
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = measure_fn(name, args.seed, args.seconds)
        if set(res["metrics"]) != set(units):
            raise SystemExit(f"metrics {sorted(set(res['metrics']) ^ set(units))} "
                             "are measured or declared in BENCHMARK.json, not both")
        report(name, args.seed, args.trace, res, info, units)
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"workload": name, "seed": args.seed, "trace": args.trace, **info, **res},
                       indent=2) + "\n")
        prefix = f"{name}." if len(names) > 1 else ""
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({prefix + k: {"value": v, "unit": units[k]}
                                    for k, v in res["metrics"].items()})
    combined["correct"] = combined["failed"] == 0 and combined["attempted"] > 0
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
