"""One benchmark child process, started fresh by run.py for each sample.

Reads a JSON spec on stdin and prints one JSON line on stdout. Modes:

* setup: import abcgroups and build the workload's group contexts;
* pass: set up, then run every job once, in the given order, through
  `abcgroups.cli.run` with stdout captured; with "trace" set, the layers
  are wrapped first (see tracer.py) and the per-layer metrics, the ball
  cache numbers and the kernel micro-timings are added;
* metamorphic: check key(x g x^-1) == key(g) on seeded samples.
"""

import time

T0 = time.perf_counter()
T0_MONOTONIC = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402


def set_up(descriptors):
    """Seconds from interpreter start until the package is imported and
    the workload's contexts are built, and the contexts."""
    import abcgroups
    from abcgroups import cli  # noqa: F401  (jobs enter through the CLI)

    contexts = [abcgroups.parse_group_descriptor(d) for d in descriptors]
    return time.perf_counter() - T0, contexts


def run_jobs(jobs, tracer):
    from abcgroups import cli

    results = []
    for name, argv in jobs:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        cpu0 = time.process_time()
        start_t = time.monotonic()
        wall0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = cli.run(argv)
                else:
                    rc = tracer.run_job(name, cli.run, argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc = None
            err.write(traceback.format_exc())
        wall = perf_counter() - wall0
        end_t = time.monotonic()
        cpu = time.process_time() - cpu0
        results.append(
            {
                "job": name,
                "rc": rc,
                "stdout": out.getvalue(),
                "stderr": err.getvalue()[-2000:],
                "wall_s": wall,
                "cpu_s": cpu,
                "start_t": start_t,
                "end_t": end_t,
            }
        )
    return results


def per_op_ns(fn, operands, repeats: int = 5) -> float:
    """Median over repeats of the mean time of fn(x, y) over operands."""
    times = []
    for _ in range(repeats):
        start = perf_counter_ns()
        for x, y in operands:
            fn(x, y)
        times.append((perf_counter_ns() - start) / len(operands))
    return statistics.median(times)


def micro_timings(samples) -> dict:
    """groups.<family>.<op>_ns on operand pairs from each family's sample."""
    out = {}
    for family in ("lamplighter", "bs", "matrix"):
        ops = {"kpart_add": 0.0, "phi_power": 0.0, "multiply": 0.0}
        if family in samples:
            ctx, sample = samples[family]
            pairs = list(zip(sample, sample[1:] + sample[:1]))
            ops["kpart_add"] = per_op_ns(
                ctx.kpart_add, [(g.kpart, h.kpart) for g, h in pairs]
            )
            ops["phi_power"] = per_op_ns(
                ctx.phi_power, [(g.kpart, h.texp) for g, h in pairs]
            )
            ops["multiply"] = per_op_ns(ctx.multiply, pairs)
        for op, value in ops.items():
            out[f"groups.{family}.{op}_ns"] = value
    return out


CACHE_METRICS = (
    "enumeration.cache_ball_enumerate_s",
    "enumeration.cache_save_s",
    "enumeration.cache_load_s",
)


def cache_numbers(probe, scratch_dir: str) -> tuple[dict, list]:
    """Save and load the largest ball of the pass, beside its BFS time.

    Returns the metrics and a list of problems; all zero once the cache
    functions no longer exist."""
    from abcgroups import enumeration

    save = getattr(enumeration, "save_index", None)
    load = getattr(enumeration, "load_index", None)
    if save is None or load is None or probe.largest_ball is None:
        return dict.fromkeys(CACHE_METRICS, 0.0), []
    index, enumerate_ns = probe.largest_ball
    path = os.path.join(scratch_dir, "largest-ball.idx")
    try:
        start = perf_counter()
        save(index, path)
        save_s = perf_counter() - start
        start = perf_counter()
        loaded = load(path)
        load_s = perf_counter() - start
    finally:
        if os.path.exists(path):
            os.remove(path)
    problems = []
    if len(loaded) != len(index) or any(g not in loaded for g in index.elements()):
        problems.append("cache round trip changed the ball")
    values = (enumerate_ns * 1e-9, save_s, load_s)
    return dict(zip(CACHE_METRICS, values)), problems


def run_pass(spec) -> dict:
    setup_s, _contexts = set_up(spec["contexts"])
    tracer = probe = None
    if spec["trace"]:
        from tracer import LayerProbe, Tracer, install

        tracer, probe = Tracer(), LayerProbe()
        install(tracer, probe)
    try:
        jobs = run_jobs(spec["jobs"], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"setup_s": setup_s, "start_t": T0_MONOTONIC,
              "peak_rss_mb": peak_kb / 1024, "jobs": jobs}
    if tracer is not None:
        from tracer import layer_metrics

        layers = layer_metrics(tracer, probe)
        if spec["cache_numbers"]:
            values, problems = cache_numbers(probe, spec["scratch_dir"])
        else:
            values, problems = dict.fromkeys(CACHE_METRICS, 0.0), []
        layers.update(values)
        rng = random.Random(spec["seed"])
        layers.update(micro_timings(probe.samples(rng, spec["sample_size"])))
        tracer.write(spec["trace_path"])
        result["layers"] = layers
        result["problems"] = problems
    return result


def run_metamorphic(spec) -> dict:
    """key(x g x^-1) == key(g) for sampled ball elements g and random
    words x of length at most spec["max_word"]."""
    from abcgroups import conjugacy_key, enumerate_ball, parse_group_descriptor

    rng = random.Random(spec["seed"])
    families = []
    for descriptor, radius in spec["families"]:
        ctx = parse_group_descriptor(descriptor)
        letters = [s for s in ctx.generators() if s != ctx.identity]
        ball = sorted(enumerate_ball(ctx, radius).elements())
        mismatches = []
        sample = rng.sample(ball, min(spec["sample_size"], len(ball)))
        for g in sample:
            x = ctx.identity
            for _ in range(rng.randint(1, spec["max_word"])):
                x = ctx.multiply(x, rng.choice(letters))
            h = ctx.multiply(ctx.multiply(x, g), ctx.invert(x))
            if conjugacy_key(ctx, h) != conjugacy_key(ctx, g):
                mismatches.append([ctx.format_element(g), ctx.format_element(x)])
        families.append(
            {
                "group": descriptor,
                "checked": len(sample),
                "mismatches": mismatches[:5],
                "mismatch_count": len(mismatches),
            }
        )
    return {"families": families}


def main() -> int:
    spec = json.load(sys.stdin)
    mode = spec["mode"]
    if mode == "setup":
        result = {"setup_s": set_up(spec["contexts"])[0], "start_t": T0_MONOTONIC}
    elif mode == "pass":
        result = run_pass(spec)
    elif mode == "metamorphic":
        result = run_metamorphic(spec)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
