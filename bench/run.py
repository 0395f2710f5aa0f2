"""Benchmark of saguaro: one workload per run, in a fresh interpreter.

    python3 bench/run.py --workload long_words --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

Load is one thread in a closed loop: the next operation starts when the
previous one returns.  A round is the workload's fixed list of operations.
One untimed warm-up round comes first; timed rounds then repeat until
``--seconds`` have passed, and the last round always runs to its end.  The
warm-up outputs are checked (``workloads``/``checker``) and every timed
output is compared with them; an operation whose check fails, that raises,
or whose output changes counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs the
untraced benchmark in a child interpreter, then repeats the same rounds with
spans around the program's public functions and prints the per-layer
metrics, including the tracing overhead.  The last line of standard output
is one JSON object; the full record goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import array
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# setup_s is the median of this many set-ups: this process's own and the rest
# in fresh interpreters (probe.py), since a single import varies by 30 %.
SETUPS = 5


def timed_setup(texts):
    """Import saguaro from the checkout and parse the workload's inputs.

    Returns the package, the parsed inputs and the seconds both took.  This is
    the whole of set-up: input generation happens before, interpreter
    start-up is not counted.
    """
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import saguaro
    import saguaro.cli  # noqa: F401  (loads render and the CLI's modules too)

    parsed = parse(saguaro, texts)
    elapsed = time.perf_counter() - start
    if Path(saguaro.__file__).resolve().parent != SRC / "saguaro":
        raise RuntimeError(f"imported saguaro from {saguaro.__file__}, not from {SRC}")
    return saguaro, parsed, elapsed


def parse(saguaro, texts):
    syntax = saguaro.syntax
    return [syntax.parse_cactus_word(body, n) if kind == "cactus" else syntax.parse_presentation(body)
            for kind, n, body in texts]


def probe_setup(texts) -> float:
    child = subprocess.run([sys.executable, str(HERE / "probe.py")], input=json.dumps(texts),
                           capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
    return float(child.stdout)


class Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Raised) and other.text == self.text


def call(fn, spans=None, kind=""):
    try:
        return fn() if spans is None else spans.span(f"op.{kind}", fn)
    except Exception as exc:  # counted as a failed operation
        return Raised(exc)


def warm_up(ops) -> list:
    """The untimed first round.  It fills the program's caches, so that the
    number of timed rounds does not shift the figures, and its outputs are
    the ones checked."""
    return [call(fn) for _, fn in ops]


def timed_rounds(ops, first, seconds: float | None = None, rounds: int | None = None,
                 spans=None) -> dict:
    """Whole rounds of ops, for at least ``seconds`` or exactly ``rounds``,
    counting per operation the rounds whose output differs from ``first``."""
    differs = [0] * len(ops)
    durations = array.array("d")  # 8 bytes a sample, so the run's own memory stays small
    done = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for i, (kind, fn) in enumerate(ops):
            t0 = clock()
            out = call(fn, spans, kind)
            durations.append(clock() - t0)
            if out != first[i]:
                differs[i] += 1
        done += 1
        if done == rounds or (rounds is None and clock() - start >= seconds):
            break
    return {"rounds": done, "wall_s": clock() - start, "durations": durations,
            "differs": differs}


def count_failed(workload, saguaro, spec, parsed, first, run) -> int:
    """Failed attempts: every attempt of an operation whose warm-up output
    fails its check, else the timed attempts whose output differed from it."""
    failed = 0
    for i, out in enumerate(first):
        try:
            ok = not isinstance(out, Raised) and workload.check(saguaro, spec, parsed, i, out)
        except Exception:
            ok = False
        failed += run["differs"][i] if ok else 1 + run["rounds"]
    return failed


def kind_medians(ops, durations) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for j, d in enumerate(durations):
        by_kind.setdefault(ops[j % len(ops)][0], []).append(d)
    return {kind: statistics.median(ds) * 1e3 for kind, ds in by_kind.items()}


def end_to_end(args, workload) -> dict:
    spec = workload.generate(args.seed)
    samples = [probe_setup(spec["texts"]) for _ in range(SETUPS - 1)]
    saguaro, parsed, elapsed = timed_setup(spec["texts"])
    samples.append(elapsed)
    ops = workload.operations(saguaro, spec, parsed)
    first = warm_up(ops)
    run = timed_rounds(ops, first, seconds=args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = (1 + run["rounds"]) * len(ops)
    failed = count_failed(workload, saguaro, spec, parsed, first, run)
    busy = sum(run["durations"])
    metrics = {
        "ops_per_s": ((attempted - failed) / attempted * len(run["durations"]) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(run["durations"]) * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "setup_s": (statistics.median(samples), "s"),
    }
    detail = {"rounds": run["rounds"], "ops_per_round": len(ops), "wall_s": run["wall_s"],
              "busy_s": busy, "setup_samples_s": samples,
              "latency_p50_ms_by_kind": kind_medians(ops, run["durations"])}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}


def traced(args, workload) -> dict:
    child = run_child(args.workload, args, trace=0)
    if child.returncode != 0:
        raise RuntimeError(f"untraced run failed: {child.stderr.strip()}")
    untraced = json.loads(result_path(args.workload, args.seed, 0).read_text())

    spec = workload.generate(args.seed)
    saguaro, _, _ = timed_setup([])
    spans = tracer.Tracer()
    try:
        spans.install(saguaro)
        parsed = parse(saguaro, spec["texts"])
        spans.uninstall()
        ops = workload.operations(saguaro, spec, parsed)
        first = warm_up(ops)
        spans.install(saguaro)
        run = timed_rounds(ops, first, rounds=untraced["detail"]["rounds"], spans=spans)
    finally:
        spans.uninstall()
    attempted = (1 + run["rounds"]) * len(ops)
    failed = count_failed(workload, saguaro, spec, parsed, first, run)
    metrics = spans.metrics()
    metrics["trace.overhead_s"] = (run["wall_s"] - untraced["detail"]["wall_s"], "s")
    detail = {"rounds": run["rounds"], "wall_s": run["wall_s"],
              "untraced_wall_s": untraced["detail"]["wall_s"], "spans": spans.stats}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}


def run_child(workload: str, args, trace: int) -> subprocess.CompletedProcess:
    """This benchmark on one workload in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)


def result_path(workload: str, seed: int, trace: int) -> Path:
    return RESULTS / f"{workload}-seed{seed}-trace{trace}.json"


def run_all(args) -> int:
    """Each workload in its own interpreter, so no cache or heap carries over."""
    status = 0
    for name in workloads.WORKLOADS:
        child = run_child(name, args, trace=args.trace)
        print(f"== {name} (exit {child.returncode})")
        print((child.stdout + child.stderr).rstrip())
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "saguaro" / "__init__.py").is_file():
        print(f"error: no saguaro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload]
    result = (traced if args.trace else end_to_end)(args, workload)
    correct = result["failed"] == 0
    summary = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in result["metrics"].items()}}
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0], **summary,
              "detail": result["detail"]}
    result_path(args.workload, args.seed, args.trace).write_text(json.dumps(record, indent=1))
    print(f"{args.workload} seed {args.seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
