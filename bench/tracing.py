"""Spans around godelsim's public entry points, installed from outside the package.

``Tracer.install`` replaces each entry point at every binding inside the
package (``godelsim.machine.run_with_loop_detection`` and the names other
modules imported it under), so nested calls such as ``cli.main`` ->
``run_with_loop_detection`` or ``total_mu`` -> ``evaluate`` are caught.
``uninstall`` puts the originals back; the bindings are found once, when
the tracer is made, so installing is cheap enough to do around each job.  In timing mode a span is a list
[name, start ns, end ns, parent index, job index, counter]; in memory mode
each call instead records its peak traced allocation above what was live
when it started.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("machine", "dovetail", "beta", "universe", "collapse", "corpus", "cli")

# (module, attribute, span name); a span name starts with its layer.
ENTRY_POINTS = (
    ("machine", "run_with_loop_detection", "machine.run"),
    ("machine", "naive_run", "machine.naive"),
    ("machine", "parse_machine_text", "machine.parse"),
    ("machine", "load_machine_file", "machine.parse"),
    ("dovetail", "dovetail", "dovetail.run"),
    ("dovetail", "total_mu", "dovetail.total_mu"),
    ("beta", "enumerate_matches", "beta.matches"),
    ("beta", "next_value_distribution", "beta.predict"),
    ("beta", "beta_encode", "beta.encode"),
    ("beta", "fit_characteristic_beta", "beta.fit"),
    ("universe", "load_universe_config", "universe.load"),
    ("universe", "signature_at", "universe.signature"),
    ("universe", "signature_query", "universe.signature"),
    ("universe", "check_predestination_sufficient", "universe.predestination"),
    ("collapse", "evaluate", "collapse.evaluate"),
    ("collapse", "measure", "collapse.measure"),
    ("corpus", "verify_corpus", "corpus.verify"),
    ("corpus", "verify_entry", "corpus.verify"),
    ("cli", "main", "cli.main"),
)
METHOD_ENTRY_POINTS = (("dovetail", "MachineBackedFunction", "evaluate", "dovetail.evaluate"),)

NAME, START, END, PARENT, JOB, COUNT = range(6)
EVENT_RESULTS = ("advanced", "halted-accepted", "halted-rejected", "loop-detected", "sub-budget-exhausted")


def outcome_steps(outcome) -> int:
    kind = type(outcome).__name__
    if kind == "Halted":
        return outcome.steps
    if kind == "LoopDetected":
        return outcome.first_repeat_step
    return outcome.budget


class DovetailCount:
    """What one dovetail call did, read from its event stream and its rank enumeration."""

    def __init__(self) -> None:
        self.events: Counter = Counter()
        self.admitted = 0
        self.last_rank = -1
        self.exhausted = False

    @property
    def global_steps(self) -> int:
        return sum(self.events.values())

    @property
    def rank_visits(self) -> int:
        """Rank visits of a scheduler that sweeps every admitted rank: sweep s visits ranks 0..s-1,
        and a call that returns mid-sweep stops after its last event.

        This counts what the schedule asks for, not what the scheduler does: it
        follows from the ranks admitted and the events alone, so it describes
        the workload, and a scheduler that skips dead ranks leaves it unchanged.
        ``dovetail.us_per_global_step`` is the figure that moves with the scheduler.
        """
        a = self.admitted
        if self.exhausted or self.last_rank < 0:
            return a * (a + 1) // 2
        return a * (a - 1) // 2 + self.last_rank + 1


POST = {
    "machine.run": outcome_steps,
    "machine.naive": outcome_steps,
    "beta.matches": len,
    "beta.predict": lambda result: result.total,
    "collapse.evaluate": lambda result: int(not isinstance(result, int)),
}


class Tracer:
    def __init__(self, lib, memory: bool = False):
        self.lib = lib
        self.memory = memory
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.dovetails: list[DovetailCount] = []
        self.frames: list[list[int]] = []
        self.peaks: Counter = Counter()
        self.plan = self.bindings()

    # --- installing -------------------------------------------------------------

    def bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding of every entry point."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "godelsim" or name.startswith("godelsim.")]
        plan = []
        for module, attr, name in ENTRY_POINTS:
            original = getattr(getattr(self.lib, module), attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                plan += [(mod, key, original, wrapper) for key, value in vars(mod).items() if value is original]
        for module, cls_name, attr, name in METHOD_ENTRY_POINTS:
            cls = getattr(getattr(self.lib, module), cls_name)
            original = getattr(cls, attr)
            plan.append((cls, attr, original, self.wrap(name, original)))
        if not self.memory:
            original = self.lib.dovetail.diagonal_pairs
            plan.append((self.lib.dovetail, "diagonal_pairs", original, self.counted_pairs(original)))
        return plan

    def install(self) -> None:
        for owner, key, _, wrapper in self.plan:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self.plan):
            setattr(owner, key, original)

    def wrap(self, name: str, fn):
        wrapper = self.memory_wrapper(name, fn) if self.memory else self.span_wrapper(name, fn)
        return functools.wraps(fn)(wrapper)

    # --- timing -------------------------------------------------------------------

    def span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        post = POST.get(name)
        is_dovetail = name == "dovetail.run"

        def wrapper(*args, **kwargs):
            count = None
            if is_dovetail:
                count = DovetailCount()
                args, kwargs = self.observe(count, args, kwargs)
                self.dovetails.append(count)
            span = [name, 0, 0, stack[-1] if stack else -1, self.job, count]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if is_dovetail:
                    self.dovetails.pop()
            if post is not None:
                span[COUNT] = post(result)
            elif is_dovetail:
                count.exhausted = type(result).__name__ == "AllExhausted"
            return result

        return wrapper

    @staticmethod
    def observe(count: DovetailCount, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """Chain an event counter in front of the caller's observer, if any."""
        args = list(args)
        inner = args[3] if len(args) > 3 else kwargs.pop("observer", None)

        def observer(event) -> None:
            count.events[event.result] += 1
            count.last_rank = event.rank
            if inner is not None:
                inner(event)

        if len(args) > 3:
            args[3] = observer
        else:
            kwargs["observer"] = observer
        return tuple(args), kwargs

    def counted_pairs(self, original):
        def diagonal_pairs(task_count: int):
            count = self.dovetails[-1] if self.dovetails else DovetailCount()
            for pair in original(task_count):
                count.admitted += 1
                yield pair

        return diagonal_pairs

    @contextlib.contextmanager
    def job_span(self, job: int):
        """One job's root span, named ``bench.job``."""
        self.job = job
        span = ["bench.job", 0, 0, -1, job, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[END] = time.perf_counter_ns()
            self.stack.pop()

    # --- memory ---------------------------------------------------------------------

    def memory_wrapper(self, name: str, fn):
        frames, peaks = self.frames, self.peaks
        layer = name.split(".")[0]

        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if frames:
                frames[-1][1] = max(frames[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                frames.pop()
                grown = frame[1] - frame[0]
                peaks[name] = max(peaks[name], grown)
                peaks[layer] = max(peaks[layer], grown)
                if frames:
                    frames[-1][1] = max(frames[-1][1], frame[1])
                tracemalloc.reset_peak()

        return wrapper


# --- per-layer numbers -----------------------------------------------------------------


def span_tables(spans: list[list]) -> tuple[list[int], list[int], list[bool]]:
    """Duration, self time and whether a same-named span encloses it, for every span."""
    duration = [s[END] - s[START] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += duration[i]
    nested = []
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        nested.append(p >= 0)
    return duration, [d - c for d, c in zip(duration, child)], nested


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> tuple[dict, float, float]:
    """Per-layer metrics of the traced pass, its job time in seconds, and the part of that
    time outside every godelsim span (the benchmark's own code, and any godelsim code
    reached other than through a wrapped entry point).

    Spans made during set-up (job -1) count towards the totals, such as
    ``machine.parse.s``, but not towards the self-time breakdown of the pass.
    ``overhead_ratio`` is the traced job time over the untraced job time of the same executions.
    """
    spans = tracer.spans
    duration, self_ns, nested = span_tables(spans)
    total: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    self_by_layer: Counter = Counter()
    run_short_ns = run_short_calls = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        if s[JOB] >= 0:
            self_by_layer[name.split(".")[0]] += self_ns[i]
            self_by_layer[name] += self_ns[i]
        if nested[i]:
            continue
        total[name] += duration[i]
        calls[name] += 1
        if isinstance(s[COUNT], int):
            counts[name] += s[COUNT]
        if name == "machine.run" and s[COUNT] <= 50:
            run_short_ns += duration[i]
            run_short_calls += 1
    dovetail_runs = [s[COUNT] for s in spans if s[NAME] == "dovetail.run"]
    global_steps = sum(c.global_steps for c in dovetail_runs)
    events: Counter = Counter()
    for c in dovetail_runs:
        events.update(c.events)
    job_ns = total["bench.job"]
    outside_ns = self_by_layer["bench"]
    run_ns_step = ratio(total["machine.run"], counts["machine.run"])
    naive_ns_step = ratio(total["machine.naive"], counts["machine.naive"])
    m = {
        "machine.run.ns_per_step": run_ns_step,
        "machine.run.self_s": self_by_layer["machine.run"] / 1e9,
        "machine.run.steps": counts["machine.run"],
        "machine.run.us_per_call": ratio(run_short_ns, run_short_calls) / 1e3,
        "machine.naive.ns_per_step": naive_ns_step,
        "machine.loop_overhead_ratio": ratio(run_ns_step, naive_ns_step),
        "machine.parse.s": total["machine.parse"] / 1e9,
        "dovetail.us_per_global_step": ratio(total["dovetail.run"], global_steps) / 1e3,
        "dovetail.global_steps": global_steps,
        "dovetail.ranks_admitted": sum(c.admitted for c in dovetail_runs),
        "dovetail.useful_visit_ratio": ratio(global_steps, sum(c.rank_visits for c in dovetail_runs)),
        **{f"dovetail.events.{r}": events[r] for r in EVENT_RESULTS},
        "total_mu.trials": calls["dovetail.evaluate"],
        "total_mu.us_per_trial": ratio(total["dovetail.total_mu"], calls["dovetail.evaluate"]) / 1e3,
        "beta.matches.pairs": counts["beta.matches"],
        "beta.matches.ns_per_pair": ratio(total["beta.matches"], counts["beta.matches"]),
        "beta.predict.ns_per_pair": ratio(total["beta.predict"], counts["beta.predict"]),
        "beta.encode.s": total["beta.encode"] / 1e9,
        "beta.fit.s": total["beta.fit"] / 1e9,
        "universe.signature.us_per_call": ratio(total["universe.signature"], calls["universe.signature"]) / 1e3,
        "universe.load.s": total["universe.load"] / 1e9,
        "universe.predestination.s": total["universe.predestination"] / 1e9,
        "collapse.evaluate.us_per_call": ratio(total["collapse.evaluate"], calls["collapse.evaluate"]) / 1e3,
        "collapse.loops": counts["collapse.evaluate"],
        "corpus.verify.s": total["corpus.verify"] / 1e9,
        "cli.main.self_s": self_by_layer["cli"] / 1e9,
        **{f"{layer}.self_s": self_by_layer[layer] / 1e9 for layer in LAYERS if layer != "cli"},
        "bench.self_s": self_by_layer["bench"] / 1e9,
        "trace.self_sum_ratio": ratio(job_ns - outside_ns, job_ns),
        "trace.overhead_ratio": overhead_ratio,
    }
    return m, job_ns / 1e9, outside_ns / 1e9


def memory_metrics(tracer: Tracer) -> dict:
    peaks = tracer.peaks
    m = {"machine.run.peak_alloc_mb": peaks["machine.run"] / 2**20}
    m.update({f"{layer}.peak_alloc_mb": peaks[layer] / 2**20 for layer in LAYERS if layer != "machine"})
    return m
