"""fundform benchmark: seeded workloads driven through the CLI and the
library path, with independent output checks and an outside-in trace.

Run from the root of a fundform checkout:

    python3 perfbench/run.py --workload cli-catalog --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

A run is a closed loop with one caller in one process.  It measures set-up
in fresh processes, then repeats passes over the workload's call list
until ``--seconds`` have elapsed and at least two passes have run.  The
first pass checks every output; later passes must reproduce its outputs.
Calls too long to repeat (the enumerate anchors) then run and are
checked once, for their rows only, and not in traced runs.

Timings are in seconds at a fixed reference speed.  On a shared virtual
machine the processor's speed drifts by up to a factor of two, for seconds
to minutes at a time, as other tenants load the host; process CPU time
drifts with it, so neither wall time nor CPU time repeats from run to run.
The benchmark therefore times a fixed pure-Python reference loop (standard
library only, no fundform code) right before and right after every timed
call, and scales the call's measured time by ``REFERENCE_S`` over the mean
of those two loop times: a call reads as the seconds it would take on a
machine where the loop takes ``REFERENCE_S``.  A program that does more
work reads as slower by the same factor; host drift cancels.  Set-up
probes are scaled likewise, by a reference process start timed before and
after each (``REFERENCE_START_S``).  Each call's time is the median of its
scaled repeats in the run.  ``wall_s`` is the sum of these per-call times
(one pass), ``call_p50_ms`` their median, ``items_per_s`` the pass's work
items (calls, plans or relations) over ``wall_s``.  ``#`` lines give the
unscaled times and the reference loop's median time.

With ``--trace 0`` the last stdout line is a JSON object with the
``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1`` passes
alternate untraced and traced, and the object carries the ``per_layer``
metrics.  Lines before it (starting with ``#``) give sample counts, the
p90 latency where at least ten samples lie beyond it, the failed ratio
and one row per ROADMAP baseline input.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import HOOK, REWRITE_STEPS, Tracer

SETUP_REPEATS = 13
# The reference speed: the time one reference_loop() takes at it.
REFERENCE_S = 1e-3
# The reference speed for set-up: the time reference_start() takes at it.
REFERENCE_START_S = 0.2
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120
SPANS_DIR = ".perfbench-out"


class CheckoutError(RuntimeError):
    pass


def locate_checkout() -> Path:
    """The working directory must be a fundform checkout: the benchmark
    measures the program's sources there and nothing installed elsewhere."""
    root = Path.cwd()
    if not (root / "src" / "fundform" / "__init__.py").is_file():
        raise CheckoutError(f"no src/fundform under {root}; run from a checkout")
    if not (root / "BENCHMARK.json").is_file():
        raise CheckoutError(f"no BENCHMARK.json under {root}")
    return root


def import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import fundform

    source = Path(fundform.__file__).resolve()
    if root.resolve() / "src" not in source.parents:
        raise CheckoutError(f"fundform imported from {source}, not the checkout")
    return fundform


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0) + value
    return {key: value for key, value in out.items() if value}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            out[key] = out.get(key, 0) + v1 * v2
    return {key: value for key, value in out.items() if value}


def reference_loop() -> int:
    """Fixed interpreter work of the kinds fundform does -- sparse
    polynomials as dicts from exponent tuples to Fractions, multiplied,
    added and printed -- written here with the standard library only, so
    that no change to fundform changes it.  About a millisecond on a
    2020s server core."""
    width = 0
    for i in range(1, 7):
        x = {(1, 0, 0): Fraction(1, i + 1), (0, 1, 0): Fraction(-2, 3),
             (0, 0, 1): Fraction(i)}
        y = {(0, 0, 0): Fraction(1), (1, 1, 0): Fraction(5, i + 6)}
        z = _poly_add(_poly_mul(x, y), y)
        z = _poly_add(_poly_mul(z, x), x)
        width += len(str(sorted(z.items())))
    return width


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


@dataclass
class Pass:
    durations: list
    outputs: list
    failures: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    reference: list = field(default_factory=list)


def call_times(passes: list) -> list:
    """Each call's median scaled time over the passes."""
    return [statistics.median(times) for times in zip(*(p.durations for p in passes))]


def run_pass(calls: list, reference: list | None, tracer=None) -> Pass:
    """Time each call between two reference loops and scale it to the
    reference speed; check it (first pass) or compare it with the first
    pass's checked output.  Checks run outside the timed region."""
    gc.collect()
    result = Pass([], [])
    clock = time.perf_counter
    before = reference_time()
    for index, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = index
        t0 = clock()
        try:
            output = call.run()
            error = None
        except Exception as exc:  # a failed call is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        raw = clock() - t0
        after = reference_time()
        result.raw.append(raw)
        result.reference.append(after)
        result.durations.append(raw * 2 * REFERENCE_S / (before + after))
        before = after
        if error is None:
            expected = reference[index] if reference is not None else None
            if expected is None:
                try:
                    error = call.check(output)
                except Exception as exc:  # unreadable output fails its check
                    error = f"check raised {type(exc).__name__}: {exc}"
            elif output != expected:
                error = "output differs from the checked first pass"
        if error is not None:
            result.failures.append(f"{call.label}: {error}")
        result.outputs.append(output if error is None else None)
    return result


def reference_start() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - t0


def measure_setup(root: Path, workload: str, seed: int) -> tuple:
    """Median scaled time for fresh processes to start, import fundform,
    build the inputs and make the warm-up call; returns (median, failures).

    A probe reports the monotonic clock at the end of its set-up.  Its
    set-up time is scaled by REFERENCE_START_S over the mean time of the
    reference processes started just before and after it.  Set-up is
    mostly process start and module import, whose speed drifts unlike the
    reference loop's, so the reference here is a process start too."""
    times, raw, failures = [], [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    before = reference_start()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        probe = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                               timeout=SETUP_TIMEOUT_S)
        after = reference_start()
        if probe.returncode != 0:
            failures.append(f"setup probe: {probe.stderr.strip()[-300:]}")
        else:
            elapsed = float(probe.stdout.strip().splitlines()[-1]) - t0
            raw.append(elapsed)
            times.append(elapsed * 2 * REFERENCE_START_S / (before + after))
        before = after
    if not times:
        return 0.0, failures
    _info(f"setup: {len(times)} probes, unscaled median "
          f"{statistics.median(raw):.4f} s")
    return statistics.median(times), failures


def setup_probe(workload: str, seed: int) -> int:
    """Make and check the warm-up call; print the clock when it is done."""
    call = workloads.build(workload, seed)[0]
    reason = call.check(call.run())
    done = time.perf_counter()
    if reason is not None:
        print(f"{call.label}: {reason}", file=sys.stderr)
        return 1
    print(repr(done))
    return 0


def _info(text: str) -> None:
    print(f"# {text}")


def end_to_end(workload: str, calls: list, passes: list, setup_s: float,
               once: list, single: Pass | None) -> dict:
    best = call_times(passes)
    wall = sum(best)
    items = sum(call.items for call in calls)
    samples = [d for p in passes for d in p.durations]
    _info(f"{len(passes)} passes of {len(calls)} calls, {len(samples)} call "
          f"samples, {items} {workloads.ITEM_NAMES[workload]} per pass")
    _info(f"unscaled pass wall time: median "
          f"{statistics.median(sum(p.raw) for p in passes):.4f} s; reference loop: "
          f"median {statistics.median(r for p in passes for r in p.reference) * 1e3:.4f} ms "
          f"(REFERENCE_S {REFERENCE_S * 1e3:g} ms)")
    if len(samples) >= 100:
        p90 = statistics.quantiles(samples, n=10)[8]
        _info(f"call_p90_ms {p90 * 1e3:.4f} ms over all {len(samples)} samples")
    for call, duration in zip(calls, best):
        if call.row:
            _info(f"row {call.row}: {duration * 1e3:.3f} ms "
                  f"(median of {len(passes)})")
    for call, duration in zip(once, single.durations if single else ()):
        _info(f"row {call.row}: {duration * 1e3:.3f} ms (single run)")
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "call_p50_ms": statistics.median(best) * 1e3,
        "items_per_s": items / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, first_end: int, first_counts: dict, traced: list,
              untraced: list, bytes_out: int) -> dict:
    total = sum(sum(p.raw) for p in traced)
    self_times = tracer.self_times()
    inclusive = tracer.inclusive_times()
    counts = tracer.call_counts(0, first_end)

    def pct(*names) -> float:
        return 100.0 * sum(self_times[n] for n in names) / total

    def layer_pct(layer: str) -> float:
        return pct(*[n for n in self_times
                     if n.split(".")[0] == layer and n != HOOK])

    def total_pct(layer: str) -> float:
        return 100.0 * inclusive[layer] / total

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    plans = first_counts.get("decompose.enumerate_plans.items", 0)
    rewrite = sum(counts[n] for n in REWRITE_STEPS)
    built = counts["algebra.BilinearExpr.__init__"]
    traces = counts["manufactured.ManufacturedSolution.trace"]
    poly_ops = sum(v for k, v in counts.items() if k.startswith("ring.Poly."))
    traced_wall = sum(call_times(traced))
    return {
        "cli.self_pct": layer_pct("cli"),
        "parser.parse_operator.calls": counts["parser.parse_operator"],
        "parser.self_pct": layer_pct("parser"),
        "emit.self_pct": layer_pct("emit"),
        "emit.bytes_out": bytes_out,
        "ring.poly_ops": poly_ops,
        "ring.self_pct": layer_pct("ring"),
        "algebra.partial.calls": counts["algebra.partial"],
        "algebra.expr_built": built,
        "algebra.expr_terms_mean": ratio(first_counts.get("algebra.expr_terms", 0), built),
        "algebra.self_pct": layer_pct("algebra"),
        "operators.self_pct": layer_pct("operators"),
        "decompose.calls": counts["decompose.decompose"],
        "decompose.calls_per_plan": ratio(counts["decompose.decompose"], plans),
        "decompose.rewrite_steps": rewrite,
        "decompose.oracle_checks": rewrite + counts["decompose.verify_divergence"],
        "decompose.verify_divergence.self_pct": pct("decompose.verify_divergence"),
        "decompose.self_pct": layer_pct("decompose"),
        "decompose.total_pct": total_pct("decompose"),
        "forms.equivalence_checks": counts["forms.forms_equivalent"],
        "forms.checks_per_plan": ratio(counts["forms.forms_equivalent"], plans),
        "forms.self_pct": layer_pct("forms"),
        "forms.total_pct": total_pct("forms"),
        "spectral.substitute.calls": counts["spectral.substitute_exponential"],
        "spectral.substitute.self_pct": pct("spectral.substitute_exponential"),
        "spectral.global_relation.self_pct": pct("spectral.global_relation"),
        "spectral.represent.self_pct": pct("spectral.integral_representation"),
        "spectral.constraint.self_pct": pct("spectral.adjoint_constraint"),
        "spectral.total_pct": total_pct("spectral"),
        "manufactured.trace.calls": traces,
        "manufactured.trace.distinct_ratio": ratio(first_counts.get("trace.distinct", 0),
                                                   traces),
        "manufactured.trace.nodes": first_counts.get("manufactured.trace.nodes", 0),
        "manufactured.trace.self_pct": pct("manufactured.ManufacturedSolution.trace",
                                           "manufactured.derivative"),
        "manufactured.evaluate.self_pct": pct("manufactured.evaluate"),
        "manufactured.total_pct": total_pct("manufactured"),
        "verify.quadrature_points": first_counts.get("verify.quadrature_points", 0),
        "verify.face_grid.self_pct": pct("verify._face_grid"),
        "verify.boundary.self_pct": pct("verify.boundary_residual"),
        "verify.interior.self_pct": pct("verify.interior_residual"),
        "verify.max_relative_residual": first_counts.get("verify.max_relative_residual", 0.0),
        "verify.total_pct": total_pct("verify"),
        "trace.overhead_ratio": traced_wall / sum(call_times(untraced)),
        "trace.wall_s": traced_wall,
    }


def _bytes_out(outputs: list) -> int:
    return sum(len(out[1].encode("utf-8")) for out in outputs
               if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str))


def run_workload(root: Path, workload: str, seed: int, seconds: int,
                 trace: bool, spec: dict) -> dict:
    built = workloads.build(workload, seed)
    calls = [call for call in built if call.repeat]
    once = [call for call in built if not call.repeat]
    failures: list = []
    attempted = 0
    setup_s = None
    if not trace:
        setup_s, setup_failures = measure_setup(root, workload, seed)
        failures += setup_failures
        attempted += SETUP_REPEATS
    deadline = time.perf_counter() + seconds
    first = run_pass(calls, None)
    reference = first.outputs
    untraced, traced = [first], []
    if not trace:
        while len(untraced) < MIN_PASSES or time.perf_counter() < deadline:
            untraced.append(run_pass(calls, reference))
    else:
        tracer = Tracer()
        first_end, first_counts, bytes_out = 0, {}, 0
        while not traced or time.perf_counter() < deadline:
            tracer.install()
            try:
                traced.append(run_pass(calls, reference, tracer))
            finally:
                tracer.uninstall()
            if len(traced) == 1:
                first_end = tracer.span_count()
                first_counts = dict(tracer.counts)
                first_counts["trace.distinct"] = len(tracer.trace_keys)
                bytes_out = _bytes_out(traced[0].outputs)
            if time.perf_counter() < deadline:
                untraced.append(run_pass(calls, reference))
    single = None
    if not trace and once:
        single = run_pass(once, None)
        failures += single.failures
        attempted += len(once)
    for p in untraced + traced:
        attempted += len(calls)
        failures += p.failures
    for reason in failures[:5]:
        _info(f"FAILED {reason}")
    _info(f"failed_ratio {len(failures) / attempted:.6f} "
          f"({len(failures)} of {attempted} calls)")
    if trace:
        metrics = per_layer(tracer, first_end, first_counts, traced, untraced,
                            bytes_out)
        tracer.write(root / SPANS_DIR / f"spans-{workload}-seed{seed}.npz")
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(workload, calls, untraced, setup_s, once, single)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def run_all(root: Path, seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=root, capture_output=True, text=True)
        lines = child.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if child.returncode != 0 or not lines:
            print(child.stderr, file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"# correct {result['correct']}, failed {result['failed']} "
              f"of {result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        root = locate_checkout()
        import_program(root)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(root, args.seed, args.seconds, args.trace)
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run_workload(root, args.workload, args.seed, args.seconds,
                          bool(args.trace), spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
