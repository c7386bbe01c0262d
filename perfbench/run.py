"""starfact benchmark: one workload per run, reference-scaled timings.

    python3 perfbench/run.py --workload dp-counts --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20
    python3 perfbench/run.py --calibrate
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --reference

The last line of a workload run is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The lines before it give the scale
factor, the raw (unscaled) metrics and the op counts.  Each run also writes
perfbench/out/<workload>-seed<seed>-trace<t>.json, and a traced run writes
its spans to perfbench/out/<workload>-seed<seed>-spans.jsonl.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    REFERENCES,
    Scaler,
    calibrate,
    percentile,
    pin_to_one_cpu,
    run_forked,
    self_times,
)
from oracles import selftest  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

OUT = os.path.join(HERE, "out")
# forked set-ups measured per run; the parent's own set-up is one more
SETUP_SAMPLES = 25
# rounds of each other workload a traced run adds, so that every layer
# metric is measured in every traced run
PROBE_ROUNDS = 2


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _measure_setup(wl, seed: int, scaler: Scaler) -> tuple[dict, list[float], list[float]]:
    """Time import + input building in fresh forks (starfact is not yet
    imported in the parent), then once in the parent, which keeps the inputs."""

    def forked_setup() -> dict:
        t0 = time.perf_counter()
        wl.setup(seed)
        return {"raw": time.perf_counter() - t0}

    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        result, factor = scaler.measure(lambda: run_forked(forked_setup)[0])
        if "error" in result:
            _die(f"set-up failed:\n{result['error']}")
        raw.append(result["raw"])
        scaled.append(result["raw"] * factor)

    def own_setup():
        t0 = time.perf_counter()
        inputs = wl.setup(seed)
        return inputs, time.perf_counter() - t0

    (inputs, elapsed), factor = scaler.measure(own_setup)
    raw.append(elapsed)
    scaled.append(elapsed * factor)
    return inputs, raw, scaled


def _run_rounds(wl, inputs, scaler: Scaler, traced: bool, seconds: float | None,
                rounds: int | None, first_op: int) -> list[dict]:
    """Whole rounds until the time is up, or a fixed count of rounds."""
    records: list[dict] = []
    op_id = first_op
    deadline = time.perf_counter() + (seconds or 0)
    done = 0
    while True:
        ops = [(op, False) for op in wl.round(inputs)]
        if traced:
            ops += [(op, True) for op in wl.extras(inputs)]
        for (label, fn), extra in ops:
            try:
                record, factor = scaler.measure(fn, traced, op_id)
            except Exception as exc:  # a failed op is counted, not fatal
                record, factor = {"error": f"{type(exc).__name__}: {exc}"}, 1.0
            record.update(label=label, factor=factor, kind=wl.name, op=op_id,
                          refs=scaler.pair, extra=extra)
            records.append(record)
            op_id += 1
        done += 1
        if done == rounds or (rounds is None and time.perf_counter() >= deadline):
            return records


def _end_to_end(wl, records: list[dict], setup: list[float], raw: bool = False) -> dict:
    def t(r):
        return r["raw"] * (1.0 if raw else r["factor"])

    times = [t(r) for r in records if "error" not in r]
    return {
        "setup_s": statistics.median(setup),
        "run_s": wl.batch * statistics.fmean(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": percentile(times, 90) * 1000,
        "peak_rss_mb": max(r["rss"] for r in records if "error" not in r),
    }


UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    return "1/s"


def _gated(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["end_to_end" if kind == "e2e" else "per_layer"]]


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    wl = WORKLOADS[name]
    problems = [f"oracle self-test: {msg}" for msg in selftest()]
    scalers = {ref: Scaler(ref) for ref in REFERENCES}
    # set-up imports a package in a fresh fork: scaled like a process start
    inputs, setup_raw, setup_scaled = _measure_setup(wl, seed, scalers["start"])
    # forked ops then leave the parent's objects alone: no collection in a
    # child walks them, so none of their pages is copied
    gc.collect()
    gc.freeze()
    records = _run_rounds(wl, inputs, scalers[wl.reference], traced, seconds, None, 0)
    if traced:
        for other in WORKLOADS.values():
            if other is not wl:
                records += _run_rounds(other, other.setup(seed), scalers[other.reference],
                                       True, None, PROBE_ROUNDS, len(records))
    # attempted and failed count the workload's own round ops; an extra or
    # probe op that raises leaves a layer metric unmeasured, so it is a problem
    own = [r for r in records if r["kind"] == name and not r["extra"]]
    ok = [r for r in own if "error" not in r]
    failed = len(own) - len(ok)
    for r in records:
        if "error" in r:
            print(f"op {r['op']} ({r['kind']} {r['label']}) failed: {r['error']}",
                  file=sys.stderr)
            if r not in own:
                problems.append(f"{r['kind']} {r['label']} raised")
        problems += r.get("problems", [])
    if not ok:
        _die(f"every op of {name} failed")

    scales = [r["factor"] for r in records]
    e2e = _end_to_end(wl, ok, setup_scaled)
    e2e_raw = _end_to_end(wl, ok, setup_raw, raw=True)
    rounds = len(own) // len(wl.round(inputs))
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(), "reference": wl.reference,
        "nominal_s": {ref: nominal for ref, (_, nominal) in REFERENCES.items()},
        "scale_factor_median": statistics.median(scales),
        "scale_factor_min": min(scales), "scale_factor_max": max(scales),
        "rounds": rounds, "ops": len(own), "failed": failed,
        "setup_scaled_s": setup_scaled,
        "metrics_scaled": e2e, "metrics_raw": e2e_raw,
        "op_rows": [[r["label"], r.get("raw"), r["factor"], *r["refs"]] for r in records],
    }
    print(f"scale factor ({wl.reference} reference, nominal "
          f"{REFERENCES[wl.reference][1] * 1000:.1f} ms): median "
          f"{info['scale_factor_median']:.4f} (min {info['scale_factor_min']:.4f}, "
          f"max {info['scale_factor_max']:.4f})")
    print(f"ops: {len(own)} attempted, {failed} failed, {rounds} rounds; "
          f"{len(setup_scaled)} set-ups")
    print("scaled: " + ", ".join(f"{k}={v:.6g} {UNITS[k]}" for k, v in e2e.items()))
    print("raw:    " + ", ".join(f"{k}={v:.6g} {UNITS[k]}" for k, v in e2e_raw.items()))

    if traced:
        layers: dict[str, float] = {}
        for w in WORKLOADS.values():
            try:
                layers.update(w.layers([r for r in records
                                        if r["kind"] == w.name and "error" not in r]))
            except (statistics.StatisticsError, ZeroDivisionError):
                print(f"no layer metrics from {w.name}: its ops failed", file=sys.stderr)
        spans = [sp for r in records for sp in r.get("spans", [])]
        selfs = self_times(spans)
        info["layers"] = layers
        info["self_time_s"] = selfs
        print("self time by span (s, raw): " +
              ", ".join(f"{k}={v:.4g}" for k, v in sorted(selfs.items())))
        untraced = _read_out(name, seed, 0)
        if untraced is not None:
            before = untraced["metrics_scaled"]["op_p50_ms"]
            info["tracing_overhead"] = e2e["op_p50_ms"] / before - 1
            print(f"tracing overhead on op_p50_ms: {info['tracing_overhead'] * 100:+.1f}% "
                  f"({before:.4g} -> {e2e['op_p50_ms']:.4g} ms)")
        with open(_out_path(name, seed, "spans.jsonl"), "w") as fh:
            for sp in spans:
                fh.write(json.dumps(sp) + "\n")
        metrics = {k: {"value": layers[k], "unit": _layer_unit(k)}
                   for k in _gated("layer") if k in layers}
    else:
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in _gated("e2e")}

    info["problems"] = problems
    with open(_out_path(name, seed, f"trace{int(traced)}.json"), "w") as fh:
        json.dump(info, fh, indent=1)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(own), "failed": failed,
                      "metrics": metrics}))
    return 0


def reference_rows() -> int:
    """Cold single calls measured once with the same scaling; not gated."""
    from starfact.factorisations import count_monotone_double, count_star
    from starfact.perms import Permutation
    from starfact.verify import run_suite

    def one(label, fn):
        def child():
            t0 = time.perf_counter()
            value = fn()
            return {"raw": time.perf_counter() - t0, "value": value}
        return label, child

    rows = []
    for n in (7, 8):
        ident = Permutation.identity(n)
        rows.append(one(f"count_star(identity({n}), 1, {n})",
                        lambda ident=ident, n=n: count_star(ident, 1, n)))
        rows.append(one(f"count_monotone_double(identity({n}), 1)",
                        lambda ident=ident: count_monotone_double(ident, 1)))
    rows.append(one('run_suite("bijections")', lambda: run_suite("bijections").passed))
    scaler = Scaler("kernel")
    print("| call | scaled s | raw s | peak RSS MB | value |")
    print("| --- | --- | --- | --- | --- |")
    for label, child in rows:
        (result, rss), factor = scaler.measure(run_forked, child)
        if "error" in result:
            _die(f"{label} failed:\n{result['error']}")
        print(f"| {label} | {result['raw'] * factor:.3f} | {result['raw']:.3f} | "
              f"{rss:.1f} | {result['value']} |", flush=True)
    return 0


def _out_path(name: str, seed: int, suffix: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, f"{name}-seed{seed}-{suffix}")


def _read_out(name: str, seed: int, trace: int):
    try:
        with open(_out_path(name, seed, f"trace{trace}.json")) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, untraced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--calibrate", action="store_true",
                    help="measure both references for --seconds and print them")
    ap.add_argument("--selftest", action="store_true",
                    help="compare the oracles with brute force at n <= 4")
    ap.add_argument("--reference", action="store_true",
                    help="time the README's reference rows once (about two minutes)")
    args = ap.parse_args()
    pin_to_one_cpu()
    if args.calibrate:
        print(json.dumps(calibrate(args.seconds)))
        return 0
    if args.selftest:
        errors = selftest()
        for msg in errors:
            print(msg)
        print("oracle self-test: " + ("FAIL" if errors else "ok"))
        return 1 if errors else 0
    if not os.path.isfile(os.path.join(SRC, "starfact", "__init__.py")):
        _die(f"no starfact sources under {SRC}")
    # the build: bytecode for every module, so that imports cost the same
    # whether or not the environment lets Python write its own caches
    if not compileall.compile_dir(os.path.join(SRC, "starfact"), quiet=1):
        _die("starfact does not compile")
    sys.path.insert(0, SRC)
    if args.reference:
        return reference_rows()
    if args.all:
        # one process per workload, so that each set-up imports starfact afresh
        status = 0
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            status |= subprocess.run([sys.executable, os.path.abspath(__file__),
                                      "--workload", name, "--seed", str(args.seed),
                                      "--seconds", str(args.seconds)]).returncode
        return status
    if args.workload is None:
        ap.error("--workload, --all, --calibrate or --selftest is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
