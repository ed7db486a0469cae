"""Benchmark for the tschirn package.

Runs one seeded workload against the public API of the tschirn package found
in ``src/`` of this checkout, checks every answer, and prints as its last
line one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0

Workloads: decide, classify, scan, resolvent-ff (see WORKLOADS.md).  Load
model: a closed loop with one caller, in one process, with no threads; the
scan runs with jobs=1.

--trace 0 reports the end-to-end metrics: set-up time (median over fresh
interpreters started at intervals during the run), operations per second,
latency p50/p90 and peak RSS.
Only the library call is timed; building inputs and checking answers is not.
The run stops at the end of the first corpus block (see corpus.BLOCK) after
the timed calls add up to --seconds.

--trace 1 reports the per-layer metrics from spans recorded around the calls
between tschirn's modules (tracing.py).  It runs a fixed number of items, so
that every count repeats exactly for a given seed and program, each once
untraced and once traced; the difference in ops/s is the tracing overhead.
The spans are written to perfbench/out/.

Exit codes: 0 when the benchmark ran (the answers' correctness is in the
result), 2 when it could not run (no tschirn sources in src/, or the set-up
failed), 3 when the checker's planted-error self-check failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calibrate  # noqa: E402
import check  # noqa: E402
import corpus  # noqa: E402

SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60
# Items in a traced run: whole corpus blocks, enough for the per-tag medians,
# and few enough that the run takes well under a minute on a 2-CPU machine.
TRACE_OPS = {"decide": 400, "classify": 260, "scan": 14, "resolvent-ff": 150}
# A run stops when its wall time passes this multiple of --seconds, even if
# the timed calls have not yet added up to --seconds.
WALL_FACTOR = 6
TRACE_WALL_S = 120
TAGS = ("generic", "degenerate", "a0", "reducible")


class BenchError(Exception):
    """The benchmark cannot run here."""


def setup_time(name):
    """Seconds from starting a fresh interpreter to tschirn imported and the
    warm-up ops done, scaled to the reference speed read just before and
    just after.  Returns (scaled, raw)."""
    speed = [calibrate.sample() for _ in range(10)]
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), name],
                          cwd=ROOT, stdout=subprocess.PIPE) as proc:
        if select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
            line = proc.stdout.readline()
        else:
            proc.kill()
            line = b""
        ready = time.perf_counter()
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != b"ready" or code != 0:
        raise BenchError(f"set-up probe exited with code {code}")
    speed += [calibrate.sample() for _ in range(10)]
    return (ready - start) * calibrate.factor(speed), ready - start


def timed_op(workload, i, item, shown, tracer=None):
    """Run item i once, timing only the library call, and check the answer.
    Returns (latency ns, weight, item, failure type or None).  The first
    failure of each type is reported on stderr (set `shown` remembers)."""
    args = workload.prepare(item)
    failure, out, err = None, None, None
    if tracer is not None:
        tracer.begin_op(i)
    start = time.perf_counter_ns()
    try:
        out = workload.op(args)
    except Exception as exc:  # every failing op is counted, not fatal
        failure, err = f"exception:{type(exc).__name__}", exc
    end = time.perf_counter_ns()
    if tracer is not None:
        tracer.end_op()
    if failure is None:
        try:
            failure = workload.check(item, args, workload.result(item, args, out))
        except Exception as exc:  # a malformed answer is a failure too
            failure, err = f"unreadable_answer:{type(exc).__name__}", exc
    if failure and failure not in shown:
        shown.add(failure)
        print(f"op {i} failed: {failure}", file=sys.stderr)
        if err is not None:
            traceback.print_exception(err, file=sys.stderr)
    return end - start, workload.weight(item), item, failure


def _ms(ns_values, q):
    """Percentile q (0 < q < 1) in ms; inclusive, so it stays within the data."""
    if len(ns_values) == 1:
        return ns_values[0] / 1e6
    cuts = statistics.quantiles(ns_values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1] / 1e6


def _ops_per_s(samples, latencies=None):
    latencies = latencies or [s[0] for s in samples]
    return sum(s[1] for s in samples) / (sum(latencies) / 1e9)


def _shares(samples, key):
    counts = {}
    for s in samples:
        counts[s[2][key]] = counts.get(s[2][key], 0) + 1
    return {k: round(v / len(samples), 4) for k, v in sorted(counts.items(), key=str)}


def _p50_where(samples, latencies, pred):
    lat = [v for s, v in zip(samples, latencies) if pred(s[2])]
    return statistics.median(lat) / 1e6 if lat else 0.0


def _calibration(last_ns):
    """One reference-speed reading between ops: the median of enough
    snippet timings to cover about 1% of the previous op's time (20 before
    the first op, whose first timing is cold)."""
    reps = 1 + min(100, last_ns // 20_000_000) if last_ns else 20
    return statistics.median(calibrate.sample() for _ in range(reps))


def end_to_end(workload, name, seed, seconds):
    samples, speed, probes, spent, shown = [], [], [], 0, set()
    wall_start = time.perf_counter()
    i = 0
    block = corpus.BLOCK[name]
    while ((spent < seconds * 1e9 or i % block)
           and time.perf_counter() - wall_start < WALL_FACTOR * seconds):
        # Set-up probes are spread over the run, like the ops, so that both
        # see the same spread of machine states.
        if len(probes) < SETUP_PROBES and spent >= len(probes) * seconds * 1e9 / SETUP_PROBES:
            probes.append(setup_time(name))
        speed.append(_calibration(samples[-1][0] if samples else 0))
        samples.append(timed_op(workload, i, corpus.ITEMS[name](seed, i), shown))
        spent += samples[-1][0]
        i += 1
    speed.append(_calibration(samples[-1][0]))
    raw = [s[0] for s in samples]
    lat = [v * f for v, f in zip(raw, calibrate.factors(speed, raw))]
    setup = [p[0] for p in probes]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (_ops_per_s(samples, lat), "1/s"),
        "latency_p50_ms": (_ms(lat, 0.5), "ms"),
        "latency_p90_ms": (_ms(lat, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "setup_s_samples": setup,
        "latency_samples": len(lat),
        "samples_beyond_p90": sum(1 for v in lat if v / 1e6 > metrics["latency_p90_ms"][0]),
        "raw": {"setup_s": statistics.median(p[1] for p in probes),
                "ops_per_s": _ops_per_s(samples),
                "latency_p50_ms": _ms(raw, 0.5),
                "latency_p90_ms": _ms(raw, 0.9)},
        "reference_speed_factor": {"min": calibrate.REFERENCE_NS / max(speed),
                                   "max": calibrate.REFERENCE_NS / min(speed)},
    }
    return samples, metrics, detail


def per_layer(workload, name, seed):
    import tracing

    # Each item runs twice, untraced and traced, in alternating order, so
    # that both see the same inputs and the same machine conditions.
    tracer = tracing.Tracer()
    tracer.install()
    plain, traced, speed, shown = [], [], [], set()
    wall_start = time.perf_counter()
    try:
        for i in range(TRACE_OPS[name]):
            if time.perf_counter() - wall_start > TRACE_WALL_S:
                break
            item = corpus.ITEMS[name](seed, i)
            speed.append(_calibration(plain[-1][0] if plain else 0))
            for with_spans in ((False, True) if i % 2 else (True, False)):
                if with_spans:
                    tracer.attach()
                    traced.append(timed_op(workload, i, item, shown, tracer))
                else:
                    tracer.detach()
                    plain.append(timed_op(workload, i, item, shown))
    finally:
        tracer.detach()
    speed.append(_calibration(plain[-1][0]))
    ops = len(traced)
    # Span times, like latencies, are scaled to the reference speed.
    raw = [s[0] for s in plain]
    scale = calibrate.factors(speed, raw)
    calls, busy, own = tracer.totals(scale)
    lat = [v * f for v, f in zip(raw, scale)]

    def count(span):
        return (calls[span] / ops, "count")

    def ms(table, span):
        return (table[span] / ops / 1e6, "ms")

    m = {
        "fields.FpElement.created": (tracer.created["fields.FpElement.created"] / ops, "count"),
        "fields.GFElement.created": (tracer.created["fields.GFElement.created"] / ops, "count"),
        "poly.divmod.calls": count("poly.divmod"),
        "poly.divmod.self_ms": ms(own, "poly.divmod"),
        "poly.poly_resultant.calls": count("poly.poly_resultant"),
        "poly.poly_resultant.busy_ms": ms(busy, "poly.poly_resultant"),
        "poly.poly_gcd.calls": count("poly.poly_gcd"),
    }
    for deg in (3, 6):
        span = f"factorq.rational_roots.deg{deg}"
        m[f"{span}.calls"] = count(span)
        m[f"{span}.busy_ms"] = ms(busy, span)
    for span in ("factorq.factor_over_Q", "factorq.factor_over_Fp",
                 "resolvent.cubic_invariants", "decide.verify_transformation"):
        m[f"{span}.calls"] = count(span)
        m[f"{span}.busy_ms"] = ms(busy, span)
    inv_calls = calls["resolvent.cubic_invariants"]
    m["resolvent.cubic_invariants.distinct_ratio"] = (
        tracer.distinct_invariants / inv_calls if inv_calls else 0.0, "ratio")
    m["resolvent.resolvent_F2.calls"] = count("resolvent.resolvent_F2")
    m["resolvent.resolvent_F0.busy_ms"] = ms(busy, "resolvent.resolvent_F0")
    m["resolvent.resolvent_F1.busy_ms"] = ms(busy, "resolvent.resolvent_F1")
    m["decide.decide_same_splitting.self_ms"] = ms(own, "decide.decide_same_splitting")
    m["decide.classify_subfield.self_ms"] = ms(own, "decide.classify_subfield")
    m["decide.galois_type.calls"] = count("decide.galois_type")
    # Latencies by input class come from the untraced runs.
    for tag in TAGS:
        m[f"decide.by_tag.{tag}.p50_ms"] = (
            _p50_where(plain, lat, lambda it, t=tag: it["tag"] == t), "ms")
    m["decide.verdict.equal.p50_ms"] = (
        _p50_where(plain, lat, lambda it: workload.positive(it) is True), "ms")
    m["decide.verdict.unequal.p50_ms"] = (
        _p50_where(plain, lat, lambda it: workload.positive(it) is False), "ms")
    m["families.shanks_pair_equal.calls"] = count("families.shanks_pair_equal")
    m["families.shanks_pair_equal.busy_us"] = (
        busy["families.shanks_pair_equal"] / ops / 1e3, "us")
    m["cli.main.self_ms"] = ms(own, "cli.main")
    overhead = 100 * (1 - _ops_per_s(traced) / _ops_per_s(plain))
    m["trace.overhead_pct"] = (overhead, "%")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.txt"
    tracer.write(spans_path)
    detail = {"traced_ops": ops, "untraced_ops": len(plain),
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
              "traced_ops_per_s": _ops_per_s(traced),
              "untraced_ops_per_s": _ops_per_s(plain)}
    return plain + traced, m, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.ITEMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seconds < 1:
        ap.error("--seconds must be at least 1")

    problems = check.self_check()
    if problems:
        for p in problems:
            print(f"checker self-check failed: {p}", file=sys.stderr)
        return 3
    try:
        if not (SRC / "tschirn" / "__init__.py").is_file():
            raise BenchError(f"no tschirn package under {SRC}")
        # Build: byte-compile the package, so that set-up times the import
        # of compiled modules, as an installed package would.
        if not compileall.compile_dir(SRC / "tschirn", quiet=1):
            raise BenchError("tschirn does not compile")
        sys.path.insert(0, str(SRC))
        import tschirn

        if Path(tschirn.__file__).resolve().parent != SRC / "tschirn":
            raise BenchError(f"imported tschirn from {tschirn.__file__}, not {SRC}")
        import workloads

        workload = workloads.WORKLOADS[ns.workload]()
        workloads.warm_up(workload)
        if ns.trace:
            samples, metrics, detail = per_layer(workload, ns.workload, ns.seed)
        else:
            samples, metrics, detail = end_to_end(workload, ns.workload, ns.seed,
                                                  ns.seconds)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    failures = {}
    for s in samples:
        if s[3]:
            failures[s[3]] = failures.get(s[3], 0) + 1
    failed = sum(failures.values())
    detail.update({
        "workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
        "fail_ratio": failed / len(samples), "failures": failures,
    })
    # The share of each input tag: branch, height decade (digits of the
    # largest coefficient height), construction and expected answer.
    for key in ("tag", "decade", "kind", "equal", "relation"):
        if key in samples[0][2]:
            detail[f"{key}_share"] = _shares(samples, key)
    print("detail " + json.dumps(detail, sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
