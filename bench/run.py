"""Benchmark of the abcgroups CLI: fixed jobs, checked answers, end-to-end
and per-layer metrics. Standard library only.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the repository root. The load is a closed loop with one client:
a pass runs the workload's jobs one at a time, each in a fresh child
process as one `abcgroups.cli.run(argv)` call with stdout captured.
Passes repeat while another would end within --seconds (at least one).
Set-up is also measured in separate fresh children. Every child runs
between two short bursts of a fixed reference load (reference.py), a job
child is paused every few seconds for one more, and the reported times
are scaled to nominal machine speed by the reference rate while they
were taken.
With --trace 1 the run makes one untraced and one traced pass instead,
each running all jobs in one child, and reports the per-layer metrics.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. The full run record goes to bench/out/. README.md in this
directory names the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# A run must end within 180 s; no child is started that could not finish
# before this many seconds have passed.
RUN_BUDGET_S = 165.0
SETUP_SAMPLES = 6
REFERENCE_BURST_S = 0.3
SLICE_S = 2.0
MICRO_SAMPLE = 400
METAMORPHIC_SAMPLE = 150
METAMORPHIC_MAX_WORD = 40

MATRICES = {
    # hyperbolic: no root-of-unity eigenvalue, so class keys exist
    "hyperbolic": {"n": 2, "rows": [[2, 1], [1, 1]]},
    # I + [[2,1],[1,1]]: a unit-root eigenvalue, the spectral tables' case
    "unit_root": {"n": 3, "rows": [[1, 0, 0], [0, 2, 1], [0, 1, 1]]},
}

# name -> jobs (name, argv, answer kind, elements handled), the contexts
# built at set-up, and the families of the metamorphic check (descriptor,
# ball radius). "{hyperbolic}" and "{unit_root}" become config paths.
WORKLOADS = {
    "tables": {
        "jobs": [
            ("ratio-bs2-r16", ["ratio", "--group", "bs:2", "--radius", "16"],
             "csv", 123_005),
            ("ratio-lamplighter2-r18",
             ["ratio", "--group", "lamplighter:2", "--radius", "18"],
             "csv", 85_806),
            ("ratio-hyperbolic-r11",
             ["ratio", "--group", "matrix:{hyperbolic}", "--radius", "11"],
             "csv", 68_607),
            ("spectral-unit-root-r10",
             ["spectral", "--matrix", "{unit_root}", "--radius", "10"],
             "csv", 90_377),
        ],
        "contexts": ["bs:2", "lamplighter:2", "matrix:{hyperbolic}",
                     "matrix:{unit_root}"],
        "families": [("bs:2", 8), ("lamplighter:2", 8),
                     ("matrix:{hyperbolic}", 6)],
    },
    "conjtest": {
        "jobs": [
            ("conjtest-bs2-r8-rc16",
             ["conjtest", "--group", "bs:2", "--radius", "8",
              "--oracle-radius", "16"],
             "json", 1_317),
            ("conjtest-lamplighter2-r10-rc18",
             ["conjtest", "--group", "lamplighter:2", "--radius", "10",
              "--oracle-radius", "18"],
             "json", 1_457),
            ("conjtest-hyperbolic-r5-rc10",
             ["conjtest", "--group", "matrix:{hyperbolic}", "--radius", "5",
              "--oracle-radius", "10"],
             "json", 663),
        ],
        "contexts": ["bs:2", "lamplighter:2", "matrix:{hyperbolic}"],
        "families": [("bs:2", 8), ("lamplighter:2", 8),
                     ("matrix:{hyperbolic}", 6)],
    },
    "folner": {
        "jobs": [
            ("folner-k2-n4", ["folner", "--k", "2", "--n", "4"], "json", 16_384),
            ("folner-k3-n3", ["folner", "--k", "3", "--n", "3"], "json", 59_049),
        ],
        "contexts": ["bs:2", "bs:3"],
        "families": [("bs:2", 8), ("bs:3", 6)],
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "elements_per_s": "1/s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


# ---------------------------------------------------------------------------
# Answer gate
# ---------------------------------------------------------------------------


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def check_answer(kind: str, stdout: str, expected) -> str | None:
    """None when the parsed answer holds every expected value, else why not.

    CSV answers are compared row by row and field by field on the expected
    columns; JSON answers on the expected keys. Columns or keys the program
    adds later are ignored."""
    if kind == "csv":
        lines = stdout.splitlines()
        if not lines:
            return "empty output"
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if len(rows) != len(expected):
            return f"{len(rows)} rows, expected {len(expected)}"
        for i, (row, want) in enumerate(zip(rows, expected)):
            for field, value in want.items():
                got = row.get(field)
                try:
                    same = got is not None and _number(got) == _number(value)
                except ValueError:
                    same = False
                if not same:
                    return f"row {i} field {field}: {got!r}, expected {value!r}"
        return None
    try:
        answer = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON ({exc})"
    if not isinstance(answer, dict):
        return "output is not a JSON object"
    for field, value in expected.items():
        if answer.get(field) != value:
            return f"{field}: {answer.get(field)!r}, expected {value!r}"
    return None


def load_expected() -> dict:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


class Runner:
    """Starts child.py processes within the run budget, one at a time.

    A gauged child runs between two bursts of the reference load. With
    gauge="throughout" it is also paused (SIGSTOP) every SLICE_S seconds
    for one more burst, so that a long job is gauged against the machine's
    speed while it runs and not only at its ends. Every burst is kept as
    (monotonic midpoint, rate)."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k != "ABC_THREADS"}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self.bursts: list[tuple[float, float]] = []

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def burst(self) -> None:
        start = time.monotonic()
        rate = reference.rate(REFERENCE_BURST_S)
        self.bursts.append(((start + time.monotonic()) / 2, rate))

    def run(self, spec: dict, gauge: str | None = None) -> tuple[dict, list]:
        """The child's result and its pauses as (stopped, resumed) times.

        gauge is None (no bursts), "around" or "throughout"."""
        if self.remaining() <= 0:
            raise BenchError("run budget exhausted")
        pause = gauge == "throughout"
        if gauge and not self.bursts:
            reference.rate(REFERENCE_BURST_S)  # warm-up, not kept
            self.burst()
        pauses = []
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self.env,
            cwd=ROOT,
        )
        stdin = json.dumps(spec)
        try:
            while True:
                wait = self.remaining()
                if wait <= 0:
                    raise BenchError(f"{spec['mode']} child exceeded the run budget")
                try:
                    out, err = proc.communicate(
                        stdin, timeout=min(SLICE_S, wait) if pause else wait
                    )
                    break
                except subprocess.TimeoutExpired:
                    stdin = None  # sent; a retry goes on reading
                    if not pause:
                        continue
                    os.kill(proc.pid, signal.SIGSTOP)
                    stopped = time.monotonic()
                    try:
                        self.burst()
                    finally:
                        os.kill(proc.pid, signal.SIGCONT)
                    pauses.append((stopped, time.monotonic()))
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if gauge:
            self.burst()
        if proc.returncode != 0 or not out.strip():
            raise BenchError(
                f"{spec['mode']} child exited {proc.returncode}: {err[-2000:]}"
            )
        return json.loads(out.strip().splitlines()[-1]), pauses

    def scale(self, start: float, end: float) -> float:
        """Factor that scales a time spent in [start, end] to nominal speed:
        the mean rate of the bursts inside the interval and of the last one
        before and the first one after it, over the nominal rate."""
        before = [rate for t, rate in self.bursts if t < start][-1:]
        inside = [rate for t, rate in self.bursts if start <= t <= end]
        after = [rate for t, rate in self.bursts if t > end][:1]
        rates = before + inside + after
        return statistics.fmean(rates) / reference.NOMINAL_RATE


def paused_within(pauses: list, start: float, end: float) -> float:
    """Seconds of the pauses that fall inside [start, end]."""
    return sum(max(0.0, min(b, end) - max(a, start)) for a, b in pauses)


def substitute(value, paths: dict):
    if isinstance(value, str):
        return value.format(**paths)
    if isinstance(value, (list, tuple)):
        return [substitute(v, paths) for v in value]
    return value


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_pass(jobs_out: list, kinds: dict, expected: dict, elements: dict):
    """Gate one pass: per-job verdicts and the elements of passing jobs."""
    verdicts = []
    handled = 0
    for job in jobs_out:
        name = job["job"]
        if job["rc"] != 0:
            reason = f"exit {job['rc']}: {job['stderr'].strip()[-300:]}"
        else:
            reason = check_answer(kinds[name], job["stdout"], expected[name])
        if reason is None:
            handled += elements[name]
        verdicts.append(
            {"job": name, "wall_s": job["wall_s"], "cpu_s": job["cpu_s"],
             "scale": job["scale"], "ok": reason is None, "reason": reason}
        )
    return verdicts, handled


def measure(args, runner: Runner, paths: dict) -> dict:
    workload = WORKLOADS[args.workload]
    expected = load_expected()
    jobs = substitute([[name, argv] for name, argv, _, _ in workload["jobs"]], paths)
    kinds = {name: kind for name, _, kind, _ in workload["jobs"]}
    elements = {name: n for name, _, _, n in workload["jobs"]}
    contexts = substitute(workload["contexts"], paths)
    rng = random.Random(args.seed)
    record = {"setup_samples": [], "passes": [], "verdicts": []}

    def setup_sample(result: dict) -> float:
        start = result["start_t"]
        return result["setup_s"] * runner.scale(start, start + result["setup_s"])

    def do_pass(order: list, trace: bool, one_child: bool) -> dict:
        """Run the jobs in order, in one child or in a fresh child each.

        Children of the timed passes are paused for reference bursts. Those
        of a traced run are only gauged at their ends, so that no pause
        falls inside a layer span."""
        groups = [order] if one_child else [[job] for job in order]
        runs = [
            runner.run(
                {
                    "mode": "pass",
                    "jobs": jobs_in_child,
                    "contexts": contexts,
                    "trace": trace,
                    "seed": args.seed,
                    "cache_numbers": args.workload == "tables",
                    "scratch_dir": paths["scratch"],
                    "sample_size": MICRO_SAMPLE,
                    "trace_path": str(
                        OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
                    ),
                },
                gauge="around" if one_child else "throughout",
            )
            for jobs_in_child in groups
        ]
        results = [result for result, _ in runs]
        jobs_out = []
        for result, pauses in runs:
            for job in result["jobs"]:
                start, end = job["start_t"], job["end_t"]
                jobs_out.append(job | {
                    "wall_s": job["wall_s"] - paused_within(pauses, start, end),
                    "scale": runner.scale(start, end),
                })
            record["setup_samples"].append(setup_sample(result))
        verdicts, handled = check_pass(jobs_out, kinds, expected, elements)
        wall = sum(job["wall_s"] * job["scale"] for job in jobs_out)
        summary = {
            "trace": trace,
            "wall_s": wall,
            "cpu_s": sum(job["cpu_s"] * job["scale"] for job in jobs_out),
            "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
            "elements_per_s": handled / wall,
            "raw_wall_s": sum(job["wall_s"] for job in jobs_out),
            "raw_cpu_s": sum(job["cpu_s"] for job in jobs_out),
            "jobs": verdicts,
        }
        record["passes"].append(summary)
        record["verdicts"].extend(verdicts)
        return results[-1] | {"summary": summary}

    def shuffled() -> list:
        order = list(jobs)
        rng.shuffle(order)
        return order

    if args.trace:
        # both passes run every job in one child, in the same order, so
        # their ratio is the tracing overhead alone
        order = shuffled()
        untraced = do_pass(order, False, one_child=True)["summary"]
        traced = do_pass(order, True, one_child=True)
        layers = traced["layers"]
        layers["trace.overhead_ratio"] = traced["summary"]["wall_s"] / untraced["wall_s"]
        for problem in traced["problems"]:
            record["verdicts"].append({"job": "cache-round-trip", "ok": False,
                                       "reason": problem})
        record["layers"] = layers
    else:
        def set_up(samples: int) -> None:
            for _ in range(samples):
                result, _ = runner.run(
                    {"mode": "setup", "contexts": contexts}, gauge="around"
                )
                record["setup_samples"].append(setup_sample(result))

        # set-up samples before and after the passes see more of the
        # machine's slow and fast phases than a block in one place
        set_up(SETUP_SAMPLES // 2)
        # at least one pass; another only if it should end within --seconds
        started = time.monotonic()
        while True:
            do_pass(shuffled(), False, one_child=False)
            elapsed = time.monotonic() - started
            per_pass = elapsed / len(record["passes"])
            if (elapsed + per_pass > args.seconds
                    or runner.remaining() < 2 * per_pass + 10):
                break
        set_up(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        passes = record["passes"]
        record["end_to_end"] = {
            "setup_s": statistics.median(record["setup_samples"]),
            **{
                name: statistics.median(p[name] for p in passes)
                for name in ("wall_s", "cpu_s", "peak_rss_mb", "elements_per_s")
            },
        }
        record["unscaled"] = {
            name: statistics.median(p[name] for p in passes)
            for name in ("raw_wall_s", "raw_cpu_s")
        }

    meta, _ = runner.run(
        {
            "mode": "metamorphic",
            "seed": args.seed,
            "families": substitute(workload["families"], paths),
            "sample_size": METAMORPHIC_SAMPLE,
            "max_word": METAMORPHIC_MAX_WORD,
        }
    )
    record["metamorphic"] = meta["families"]
    record["reference_bursts"] = runner.bursts
    for family in meta["families"]:
        record["verdicts"].append(
            {
                "job": f"metamorphic {family['group']}",
                "ok": family["mismatch_count"] == 0,
                "reason": (
                    f"{family['mismatch_count']} of {family['checked']} keys "
                    f"changed under conjugation" if family["mismatch_count"] else None
                ),
            }
        )
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "abcgroups" / "__init__.py").is_file():
        print(f"error: no abcgroups sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still resumes and ends its child (Runner.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # the reference bursts gauge the vCPU the jobs run on
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "platform": platform.platform(),
        "loadavg_start": loadavg(),
    }
    try:
        paths = {"scratch": scratch}
        for name, config in MATRICES.items():
            paths[name] = os.path.join(scratch, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        record = measure(args, runner, paths)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    info["loadavg_end"] = loadavg()

    verdicts = record["verdicts"]
    failed = sum(1 for v in verdicts if not v["ok"])
    jobs_run = [v for v in verdicts if "wall_s" in v]
    jobs_failed = sum(1 for v in jobs_run if not v["ok"])
    info["pass_count"] = len(record["passes"])
    info["setup_sample_count"] = len(record["setup_samples"])

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(record["layers"].items())}
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    shown = dict(metrics)
    if not args.trace:
        # the pass times before scaling, for reading beside the scaled ones
        for name, value in record["unscaled"].items():
            shown[name] = {"value": value, "unit": "s"}
    shown["fail_ratio"] = {"value": jobs_failed / len(jobs_run), "unit": "ratio"}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{info['pass_count']} passes, "
          f"{info['setup_sample_count']} set-up samples, {len(verdicts)} checks")
    for v in verdicts:
        if not v["ok"]:
            print(f"  FAIL {v['job']}: {v['reason']}")
    for name, metric in shown.items():
        print(f"  {name} {metric['value']} {metric['unit']}")
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(info | {"metrics": shown} | record, fh, indent=1)
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("ns_per_element"):
        return "ns"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
