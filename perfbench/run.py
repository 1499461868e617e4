"""The cartierlab benchmark: one workload, one process, one thread, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/cartierlab).

1. A child process (perfbench/oracle.py prepare) generates the workload's
   round of queries from the seed, with sympy where the oracles need it, and
   writes the input files and the expected answers under perfbench/out/.
2. This process imports cartierlab and loads the input texts SETUP_SAMPLES
   times (a fresh import each time); setup_s is the median.
3. It answers the round's queries in order, round after round, until S
   seconds have passed and MIN_QUERIES ran; every round is whole. Each query reads its input
   files again, so no library object outlives a query. After every query the
   reference computation (hostref.py) runs REF_REPS times.
4. A child process (perfbench/oracle.py check) judges every answer.
5. The last line of stdout is the result JSON.

Every time is host-normalised: raw time x (NOMINAL_S / reference time). For
a set-up sample the reference time is the mean of the samples taken just
before and just after it; for a query, the mean of the REF_WINDOW slots on
each side of it as well. Raw figures are printed above the result.

With --trace 1 the rounds alternate: untraced, then traced (tracing.py), and
the per-layer metrics are averages over the traced rounds. The spans of the
first traced round are written to perfbench/out/trace-WORKLOAD.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

import gen
import hostref
import queries
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 15
MIN_QUERIES = 100
REF_REPS = 3
REF_WINDOW = 8  # reference slots on each side of a query that normalise it
CHILD_TIMEOUT_S = 120
LIB_MODULES = ("errors", "polycore", "artinian", "extensions", "cartier", "laurent",
               "extfile", "corpus", "cli")


def _ref_slot() -> list:
    return [hostref.sample() for _ in range(REF_REPS)]


def _normaliser(samples) -> float:
    # the mean, not the median: a sample stretched by the host preempting the
    # process is exactly the slowdown the timed work around it suffered too
    return hostref.NOMINAL_S / statistics.fmean(samples)


def _child(args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "oracle.py"), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"oracle {args[0]} failed with exit code {proc.returncode}")
    return proc.stdout


def _setup_once(work):
    """Fresh import of cartierlab plus reading every input text; returns (lib, queries, s)."""
    for name in [n for n in sys.modules if n == "cartierlab" or n.startswith("cartierlab.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("cartierlab")
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"cartierlab.{m}")
                                   for m in LIB_MODULES})
    with open(os.path.join(work, "inputs.json"), encoding="utf-8") as handle:
        plan = json.load(handle)
    for query in plan["queries"]:  # timed reading only: each query reads its files again
        for path in query["files"].values():
            with open(path, encoding="utf-8") as handle:
                handle.read()
    elapsed = time.perf_counter() - start
    return lib, plan["queries"], elapsed


def _round(lib, plan, answers, latencies, refs, tracer=None, tag=""):
    for query in plan:
        if tracer is not None:
            tracer.query = f"{tag}{query['id']}"
        gc.collect()  # every query starts from the same collector state
        start = time.perf_counter()
        answer = queries.execute(lib, query)
        raw = time.perf_counter() - start
        after = _ref_slot()
        refs.append(after)
        latencies.append((raw, len(refs) - 1))
        answers.setdefault(query["id"], set()).add(json.dumps(answer, sort_keys=True))


def _mix(latencies, width, scale):
    """Throughput and latency percentiles of the query mix.

    Each query's latency is its median over the rounds; the percentiles are
    taken over those medians, and throughput is queries per second of the
    summed medians. The rank of a percentile is then fixed by the mix, so a
    host hiccup or the spacing between query sizes cannot move it.
    """
    medians = [statistics.median(scale(x) for x in latencies[k::width]) for k in range(width)]
    cuts = statistics.quantiles(medians, n=10, method="inclusive")
    return {
        "throughput_qps": width / sum(medians),
        "latency_p50_ms": 1000 * cuts[4],
        "latency_p90_ms": 1000 * cuts[8],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cartierlab", "__init__.py")):
        print("error: run from a checkout root holding src/cartierlab", file=sys.stderr)
        return 2
    os.environ.pop("CARTIERLAB_BUDGET", None)  # measure the default budget
    sys.path.insert(0, src)
    out = os.path.join(HERE, "out")
    work = os.path.join(out, f"{args.workload}-{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    _child(["prepare", args.workload, str(args.seed), work])

    setups = []
    before = _ref_slot()
    for _ in range(SETUP_SAMPLES):
        lib, plan, raw = _setup_once(work)
        gc.collect()  # free the previous import before the next one
        after = _ref_slot()
        setups.append((raw, raw * _normaliser(before + after)))
        before = after

    gc.collect()
    gc.freeze()  # the imported library is long-lived: keep it out of collections
    answers: dict = {}
    timed = {False: [], True: []}  # traced? -> [(raw seconds, index of the next slot)]
    refs = [_ref_slot()]
    tracer = tracing.Tracer() if args.trace else None
    layer_rounds = []
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and rounds % 2 == 1
        latencies = timed[traced]
        first_slot = len(refs)
        if traced:
            tracer.install()
        _round(lib, plan, answers, latencies, refs, tracer if traced else None, f"{rounds}:")
        if traced:
            tracer.uninstall()
            spans = tracer.take()
            if not layer_rounds:
                first_spans = spans
            factor = _normaliser([x for slot in refs[first_slot:] for x in slot])
            layer_rounds.append((tracing.layer_totals(spans), factor))
        rounds += 1
        if (time.perf_counter() - start >= args.seconds
                and len(timed[False]) >= MIN_QUERIES and (not tracer or layer_rounds)):
            break
    wall = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(work, "answers.json"), "w", encoding="utf-8") as handle:
        json.dump({k: sorted(v) for k, v in answers.items()}, handle, sort_keys=True)
    verdict = json.loads(_child(["check", work]).strip().splitlines()[-1])
    bad = set(verdict["faulted"]) | set(verdict["wrong"])
    attempted = rounds * len(plan)
    failed = rounds * sum(1 for q in plan if q["id"] in bad)
    for qid, reason in sorted(verdict["wrong"].items()):
        print(f"WRONG {qid}: {reason}")
    for qid in verdict["faulted"]:
        print(f"failed (known fault) {qid}")

    def normalised(entry):
        raw_s, after = entry
        window = refs[max(0, after - 1 - REF_WINDOW):after + 1 + REF_WINDOW]
        return raw_s * _normaliser([x for slot in window for x in slot])

    raw = _mix(timed[False], len(plan), lambda x: x[0])
    mix = _mix(timed[False], len(plan), normalised)
    print(f"# {args.workload} seed={args.seed} rounds={rounds} queries={attempted} "
          f"per_round={len(plan)} wall={wall:.2f}s")
    print("# raw: " + " ".join(f"{k}={v:.4f}" for k, v in raw.items())
          + f" setup_s={statistics.median(s for s, _ in setups):.4f}"
          + f" reference_median_ms={1000 * statistics.median(x for r in refs for x in r):.4f}")

    if tracer:
        metrics = tracing.layer_metrics(layer_rounds)
        traced_qps = _mix(timed[True], len(plan), normalised)["throughput_qps"]
        print(f"# trace: traced_rounds={len(layer_rounds)} overhead="
              f"{100 * (mix['throughput_qps'] / traced_qps - 1):.1f}% "
              "(normalised busy time of the mix, traced over untraced rounds)")
        tracing.write_jsonl(os.path.join(out, f"trace-{args.workload}.jsonl"), first_spans)
    else:
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "throughput_qps": (mix["throughput_qps"], "queries/s"),
            "latency_p50_ms": (mix["latency_p50_ms"], "ms"),
            "latency_p90_ms": (mix["latency_p90_ms"], "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "certified_answers": (len(verdict["certified"]), "count"),
        }
    result = {
        "correct": not verdict["wrong"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({**result, "raw": {
            "setup": setups,
            "queries": [q["id"] for q in plan],
            "latencies": timed[False],
            "reference_slots": refs,
        }}, handle)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing: dict and set layouts, and with them the speed
        # of small queries, then repeat from run to run
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
