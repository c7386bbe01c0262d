"""Timing machinery: reference scaling, forked ops, subprocess calls, spans.

Imports nothing from starfact.

Raw seconds on a small shared host are not comparable from run to run: the
machine moves between a fast and a slow regime that last seconds to tens of
seconds.  So every op is bracketed by a fixed reference, and its time is
reported in reference units: raw * nominal / reference time measured around
the op.  Two references, each matched to the work it scales (see
perfbench/README.md for the measurements behind the choice):

* the kernel, pure-Python dict-of-tuples churn in the parent, for library
  ops, which run in forks of the parent;
* an interpreter start, ``python3 -c pass`` in a fresh process, for work
  that starts a process or imports a package: CLI calls and set-up.

``python3 perfbench/run.py --calibrate`` measures both afresh; the nominal
values are only units, and changing one rescales the times it scales.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

# medians in the fast regime of a 2-core KVM guest, Python 3.11
NOMINAL_KERNEL_S = 0.020
NOMINAL_START_S = 0.044

_KERNEL_SYMBOLS = 6
_KERNEL_LAYERS = 20
_KERNEL_CHECK = 5 ** _KERNEL_LAYERS


def reference_kernel() -> None:
    """Dict-of-tuples churn shaped like a layered walk: adjacent swaps over
    tuples of 6 symbols, counts summed in a dict, 20 layers."""
    layer = {tuple(range(_KERNEL_SYMBOLS)): 1}
    for _ in range(_KERNEL_LAYERS):
        nxt: dict = {}
        for images, cnt in layer.items():
            for a in range(_KERNEL_SYMBOLS - 1):
                b = a + 1
                new = tuple(b if v == a else a if v == b else v for v in images)
                nxt[new] = nxt.get(new, 0) + cnt
        layer = nxt
    if sum(layer.values()) != _KERNEL_CHECK:
        raise RuntimeError("reference kernel miscounted")


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    The two CPUs of the host change regime independently; on one CPU the
    kernel is timed where the op runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def start_seconds() -> float:
    """Wall time of a bare interpreter start, site import included."""
    code, _, err, elapsed, _ = run_command([sys.executable, "-c", "pass"], None, None)
    if code != 0:
        raise RuntimeError(f"bare interpreter exited {code}: {err!r}")
    return elapsed


REFERENCES = {"kernel": (kernel_seconds, NOMINAL_KERNEL_S),
              "start": (start_seconds, NOMINAL_START_S)}


class Scaler:
    """Runs one reference between consecutive ops; the reference after one
    op is the reference before the next."""

    def __init__(self, reference: str) -> None:
        self.reference, self.nominal = REFERENCES[reference]
        for _ in range(3):
            self.reference()
        self.last = self.reference()
        self.pair = (self.last, self.last)

    def measure(self, fn, *args):
        """Run fn(*args) between two references; return (result, factor),
        where scaled time = raw time * factor."""
        before = self.last
        result = fn(*args)
        self.last = self.reference()
        self.pair = (before, self.last)
        return result, self.nominal / ((before + self.last) / 2)


def calibrate(seconds: float) -> dict:
    """Both references, alternated over a stretch of wall time, for choosing
    the nominal values."""
    samples: dict[str, list[float]] = {name: [] for name in REFERENCES}
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for name, (fn, _) in REFERENCES.items():
            samples[name].append(fn())
    out = {}
    for name, values in samples.items():
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[name] = {"samples": len(values), "min_s": min(values), "q1_s": q1,
                     "median_s": q2, "q3_s": q3, "max_s": max(values),
                     "nominal_s": REFERENCES[name][1]}
    return out


# ---------------------------------------------------------------------------
# processes


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def run_forked(fn, *args) -> tuple[dict, float]:
    """Run fn(*args) in a forked child and return (its JSON-able result, the
    child's peak RSS in MB).  A child that raises returns {"error": text}."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        # start every child from empty young generations, so that collections
        # fall at the same points of identical ops
        gc.collect()
        status = 0
        try:
            data = json.dumps(fn(*args)).encode()
        except BaseException:
            data = json.dumps({"error": traceback.format_exc()}).encode()
            status = 1
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(w, view):]
        finally:
            os._exit(status)
    os.close(w)
    try:
        data = _read_all(r)
    finally:
        os.close(r)
        _, status, usage = os.wait4(pid, 0)
    if not data:
        return {"error": f"child exited with status {status} and no result"}, 0.0
    return json.loads(data), usage.ru_maxrss / 1024


def run_command(argv: list[str], env: dict, cwd: str) -> tuple[int, bytes, bytes, float, float]:
    """Run a command to completion; return (exit code, stdout, stderr,
    wall seconds, peak RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.stdout.read(), proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, elapsed, usage.ru_maxrss / 1024


# ---------------------------------------------------------------------------
# spans


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "name", "start", "id", "parent")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = tr.next_id
        tr.next_id += 1
        self.parent = tr.stack[-1] if tr.stack else None
        tr.stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append({"name": self.name, "start": self.start, "end": end,
                         "id": self.id, "parent": self.parent, "op": tr.op})


class Tracer:
    """Records (name, start, end, parent, op) around calls into starfact.

    Spans stay in memory; a forked child returns its spans with its result.
    A disabled tracer hands out one shared no-op context."""

    def __init__(self, enabled: bool, op=None) -> None:
        self.enabled = enabled
        self.op = op
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.next_id = 0

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN


def span_totals(spans: list[dict]) -> dict[str, float]:
    """Summed duration per span name, in seconds."""
    out: dict[str, float] = {}
    for sp in spans:
        out[sp["name"]] = out.get(sp["name"], 0.0) + sp["end"] - sp["start"]
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, summed duration minus the time its child spans cover.

    Children of one span never overlap (the benchmark calls one layer at a
    time), so the covered time is the sum of the children's durations."""
    covered: dict[tuple, float] = {}
    for sp in spans:
        if sp["parent"] is not None:
            key = (sp["op"], sp["parent"])
            covered[key] = covered.get(key, 0.0) + sp["end"] - sp["start"]
    out: dict[str, float] = {}
    for sp in spans:
        own = sp["end"] - sp["start"] - covered.get((sp["op"], sp["id"]), 0.0)
        out[sp["name"]] = out.get(sp["name"], 0.0) + own
    return out


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
