"""Per-layer tracing of abcgroups from outside the program.

Nothing in the package is edited: `install` rebinds the module attributes
and class methods that callers look up (for example
`abcgroups.ratios.conjugacy_key` or `BallIndex.__contains__`) to wrappers,
and `Tracer.uninstall` puts the originals back.

Three kinds of wrapper exist:

* recorded spans, for calls that happen a few times per job: one record
  (id, parent id, job, name, start ns, end ns, self ns) per call;
* aggregated spans, for hot leaves such as `conjugacy_key` or `mat_vec`
  that run up to millions of times: the same timing and self-time
  accounting, but kept as one (parent id, parent name, name) -> calls,
  total ns, self ns record instead of one record per call;
* counters, for the kernel arithmetic and ball lookups, which are too
  cheap to time one by one: an exact call count only.

A span's self time is its duration minus the time its child spans cover.
Every job runs under a root span named "job", so the time a job spends
outside every layer span is the root span's self time.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
from time import perf_counter_ns


def current_rss_bytes() -> int:
    """Resident set size of this process, or 0 where /proc is missing."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            resident_pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.aggregates: dict[tuple, list[int]] = {}
        self.counts: dict[str, list[int]] = {}
        self._ids = itertools.count(1)
        self._stack: list[list] = []  # open frames: [anchor id, name, child ns]
        self._job = [None]
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def run_job(self, job: str, fn, *args):
        """Call fn(*args) under the root span of one job."""
        frame = [next(self._ids), "job", 0]
        self._job[0] = job
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append(
                (frame[0], None, job, "job", start, end, end - start - frame[2])
            )
            self._job[0] = None

    def span(self, name: str, fn, hot: bool = False):
        """Wrapper that times every call of fn as a span named name."""
        stack, spans, aggregates, ids, job = (
            self._stack,
            self.spans,
            self.aggregates,
            self._ids,
            self._job,
        )

        def wrapper(*args, **kwargs):
            if not stack:  # called outside any job: not part of the trace
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [parent[0] if hot else next(ids), name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                parent[2] += duration
                if hot:
                    key = (parent[0], parent[1], name)
                    agg = aggregates.get(key)
                    if agg is None:
                        agg = aggregates[key] = [0, 0, 0]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[2]
                else:
                    spans.append(
                        (frame[0], parent[0], job[0], name, start, end,
                         duration - frame[2])
                    )

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrapper that counts the calls of fn under name."""
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    # -- rebinding ---------------------------------------------------------

    def rebind_function(self, original, make_wrapper) -> None:
        """Replace original in every loaded abcgroups module that binds it,
        under whatever name it was imported."""
        wrapped = make_wrapper(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "abcgroups" and not mod_name.startswith("abcgroups."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def rebind_method(self, cls, name: str, make_wrapper) -> None:
        """Replace cls.name when cls itself defines it."""
        original = cls.__dict__.get(name)
        if original is None:
            return
        setattr(cls, name, make_wrapper(original))
        self._undo.append((cls, name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def span_totals(self, name: str) -> tuple[int, int, int]:
        """(calls, total ns, self ns) over recorded and aggregated spans."""
        calls = total = own = 0
        for _, _, _, span_name, start, end, self_ns in self.spans:
            if span_name == name:
                calls += 1
                total += end - start
                own += self_ns
        for (_, _, agg_name), (n, ns, self_ns) in self.aggregates.items():
            if agg_name == name:
                calls += n
                total += ns
                own += self_ns
        return calls, total, own

    def outermost_ns(self, names) -> int:
        """Time covered by spans in names that are not nested in another
        span in names."""
        names = set(names)
        name_of = {span[0]: span[3] for span in self.spans}
        total = 0
        for _, parent, _, span_name, start, end, _ in self.spans:
            if span_name in names and name_of.get(parent) not in names:
                total += end - start
        for (_, parent_name, agg_name), (_, ns, _) in self.aggregates.items():
            if agg_name in names and parent_name not in names:
                total += ns
        return total

    def write(self, path: str) -> None:
        fields = ("id", "parent", "job", "name", "start_ns", "end_ns", "self_ns")
        data = {
            "spans": [dict(zip(fields, span)) for span in self.spans],
            "aggregated_spans": [
                {
                    "parent": parent,
                    "parent_name": parent_name,
                    "name": name,
                    "calls": calls,
                    "total_ns": total,
                    "self_ns": own,
                }
                for (parent, parent_name, name), (calls, total, own)
                in self.aggregates.items()
            ],
            "counts": {name: cell[0] for name, cell in self.counts.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


# ---------------------------------------------------------------------------
# The abcgroups layers
# ---------------------------------------------------------------------------

GROUP_OPS = ("encode", "kpart_add", "phi_power", "multiply")
LOOKUPS = ("__contains__", "word_length", "predecessor_index", "min_t_count")
DEFECTS = ("right_defect", "left_defect")
SPECTRAL_TABLES = ("relative_growth_table", "epsilon_norm_table")


class LayerProbe:
    """Everything the traced run observes beyond spans and counters: ball
    sizes and memory, oracle work, Folner candidates, and the largest ball
    or box of each family, which later supplies the operands of the kernel
    micro-timings."""

    def __init__(self):
        self.elements = 0
        self.rss_growth = 0
        self.largest_ball = None  # (BallIndex, enumerate ns)
        self.largest: dict[str, tuple] = {}  # family -> (ctx, size, elements)
        self.solve_attempts = 0
        self.merges = 0
        self.candidates = 0
        self.watch = [None]  # set of left multipliers while a search runs

    def keep_largest(self, ctx, size: int, elements) -> None:
        """Hold on to the family's largest ball or box; elements() lists it."""
        held = self.largest.get(ctx.family)
        if held is None or held[1] < size:
            self.largest[ctx.family] = (ctx, size, elements)

    def samples(self, rng, size: int) -> dict[str, tuple]:
        """family -> (ctx, seeded sample of the family's largest ball or box)."""
        out = {}
        for family, (ctx, _, elements) in sorted(self.largest.items()):
            pool = sorted(elements())
            out[family] = (ctx, rng.sample(pool, min(size, len(pool))))
        return out


def install(tracer: Tracer, probe: LayerProbe) -> None:
    """Wrap every traced layer of the already imported abcgroups package."""
    from abcgroups import conjugacy, enumeration, folner, groups, linalg, ratios
    from abcgroups import spectral

    # groups: exact call counts; multiply also reports its left operand
    # while a separating-translate search is open
    for cls in (groups.GroupContext, *groups.GroupContext.__subclasses__()):
        for op in GROUP_OPS:
            if op == "multiply":
                tracer.rebind_method(
                    cls, op, lambda fn: _watching_counter(tracer, probe, fn)
                )
            else:
                tracer.rebind_method(
                    cls, op, lambda fn, op=op: tracer.counter(f"groups.{op}", fn)
                )

    # enumeration: BFS spans, ball sizes and memory, point lookups
    for name in LOOKUPS:
        tracer.rebind_method(
            enumeration.BallIndex,
            name,
            lambda fn: tracer.counter("enumeration.lookups", fn),
        )

    def enumerate_probe(fn):
        timed = tracer.span("enumerate_ball", fn)

        def wrapper(ctx, *args, **kwargs):
            before = current_rss_bytes()
            start = perf_counter_ns()
            index = timed(ctx, *args, **kwargs)
            elapsed = perf_counter_ns() - start
            probe.rss_growth = max(probe.rss_growth, current_rss_bytes() - before)
            probe.elements += len(index)
            if probe.largest_ball is None or len(index) > len(probe.largest_ball[0]):
                probe.largest_ball = (index, elapsed)
            probe.keep_largest(ctx, len(index), index.elements)
            return index

        return wrapper

    tracer.rebind_function(enumeration.enumerate_ball, enumerate_probe)

    # conjugacy: keys as aggregated spans, the oracle as a recorded span
    tracer.rebind_function(
        conjugacy.conjugacy_key, lambda fn: tracer.span("conjugacy_key", fn, hot=True)
    )

    def oracle_probe(fn):
        timed = tracer.span("brute_force_partition", fn)

        def wrapper(ctx, index, r, *args, **kwargs):
            phi_before = tracer.count("groups.phi_power")
            blocks = timed(ctx, index, r, *args, **kwargs)
            probe.solve_attempts += tracer.count("groups.phi_power") - phi_before
            probe.merges += sum(len(block) for block in blocks) - len(blocks)
            return blocks

        return wrapper

    tracer.rebind_function(conjugacy.brute_force_partition, oracle_probe)

    # linalg: every public function, as aggregated spans
    for name in linalg.__all__:
        fn = getattr(linalg, name)
        if inspect.isfunction(fn):
            tracer.rebind_function(
                fn, lambda f, name=name: tracer.span(f"linalg.{name}", f, hot=True)
            )

    tracer.rebind_function(
        ratios.ratio_table, lambda fn: tracer.span("ratio_table", fn)
    )

    # folner: box, search (counting distinct left translates tried), defects
    def box_probe(fn):
        timed = tracer.span("folner_box", fn)

        def wrapper(ctx, *args, **kwargs):
            box = timed(ctx, *args, **kwargs)
            probe.keep_largest(ctx, box.size, lambda: box.elements)
            return box

        return wrapper

    tracer.rebind_function(folner.folner_box, box_probe)

    def search_probe(fn):
        timed = tracer.span("separating_translate", fn)

        def wrapper(*args, **kwargs):
            probe.watch[0] = seen = set()
            try:
                return timed(*args, **kwargs)
            finally:
                probe.watch[0] = None
                probe.candidates += len(seen)

        return wrapper

    tracer.rebind_function(folner.separating_translate, search_probe)
    for name in DEFECTS:
        tracer.rebind_function(
            getattr(folner, name), lambda fn, name=name: tracer.span(name, fn)
        )
    tracer.rebind_function(
        folner.translate_experiment, lambda fn: tracer.span("translate_experiment", fn)
    )

    tracer.rebind_function(
        spectral.unit_root_projection,
        lambda fn: tracer.span("unit_root_projection", fn),
    )
    for name in SPECTRAL_TABLES:
        tracer.rebind_function(
            getattr(spectral, name), lambda fn, name=name: tracer.span(name, fn)
        )


def _watching_counter(tracer: Tracer, probe: LayerProbe, fn):
    cell = tracer.counts.setdefault("groups.multiply", [0])
    watch = probe.watch

    def wrapper(ctx, g, h, *args, **kwargs):
        cell[0] += 1
        seen = watch[0]
        if seen is not None:
            seen.add(g)
        return fn(ctx, g, h, *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def layer_metrics(tracer: Tracer, probe: LayerProbe) -> dict[str, float]:
    """Per-layer metric values (seconds, counts, ratios) of one traced pass."""
    sec = 1e-9

    def total_s(name):
        return tracer.span_totals(name)[1] * sec

    def self_s(name):
        return tracer.span_totals(name)[2] * sec

    bfs_calls, bfs_ns, _ = tracer.span_totals("enumerate_ball")
    key_calls, key_ns, _ = tracer.span_totals("conjugacy_key")
    linalg_names = {
        name for _, _, name in tracer.aggregates if name.startswith("linalg.")
    }
    out = {
        "enumeration.enumerate_ball.s": bfs_ns * sec,
        "enumeration.enumerate_ball.calls": bfs_calls,
        "enumeration.elements": probe.elements,
        "enumeration.ns_per_element": bfs_ns / probe.elements if probe.elements else 0.0,
        "enumeration.rss_growth_mb": probe.rss_growth / 2**20,
        "enumeration.lookups": tracer.count("enumeration.lookups"),
        "conjugacy.key.calls": key_calls,
        "conjugacy.key.s": key_ns * sec,
        "conjugacy.key.us_per_call": key_ns / key_calls / 1e3 if key_calls else 0.0,
        "conjugacy.oracle.s": self_s("brute_force_partition"),
        "conjugacy.oracle.solve_attempts": probe.solve_attempts,
        "conjugacy.oracle.merges": probe.merges,
        "conjugacy.oracle.useful_ratio": (
            probe.merges / probe.solve_attempts if probe.solve_attempts else 0.0
        ),
        "linalg.mat_vec.calls": tracer.span_totals("linalg.mat_vec")[0],
        "linalg.smith_normal_form.calls": (
            tracer.span_totals("linalg.smith_normal_form")[0]
        ),
        "linalg.s": tracer.outermost_ns(linalg_names) * sec,
        "ratios.ratio_table.self_s": self_s("ratio_table"),
        "folner.folner_box.s": total_s("folner_box"),
        "folner.separating_translate.s": total_s("separating_translate"),
        "folner.search.candidates": probe.candidates,
        "folner.defects.s": sum(total_s(name) for name in DEFECTS),
        "folner.translate_experiment.self_s": self_s("translate_experiment"),
        "spectral.unit_root_projection.s": total_s("unit_root_projection"),
        "spectral.tables.s": sum(total_s(name) for name in SPECTRAL_TABLES),
        "cli.self_s": self_s("job"),
    }
    for op in GROUP_OPS:
        out[f"groups.{op}.calls"] = tracer.count(f"groups.{op}")
    return out
