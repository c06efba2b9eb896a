"""Seeded generation of each workload's job cycle.

Each workload is a fixed recipe of job slots; the seed draws every
slot's inputs (budgets, bounds, targets, sequences, random machines and
universe configs) from narrow ranges, so two seeds give different jobs
of about the same cost and every run measures the same mix.  Random
machines are drawn until the reference route puts their run into the
slot's outcome class and cost band, where cost counts steps and written
cells copied per step, the work of a dict-backed tape.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

import oracle
from workloads import CONFIG_DIR, CORPUS_DIR, Job, absdiff, manifest_items

# Cost of one loop-detected step in units of one written cell copied, from a
# least-squares fit of run time against steps and written cells per step.
STEP_WEIGHT = 30
STATES = ("A", "B", "C", "D")
SYMBOLS = ("_", "0", "1")
DRAW_ATTEMPTS = 20_000


class JobFactory:
    """Draws one workload's jobs and writes the files gu reads; godelsim objects come from bind steps."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.files = 0
        self.corpus_text = {p.name: p.read_text(encoding="utf-8") for p in sorted(CORPUS_DIR.glob("*.tm"))}

    def parse_corpus(self, names):
        """A bind step parsing corpus machines with godelsim."""
        texts = {name: self.corpus_text[name] for name in names}
        return lambda lib: {"machines": {name: lib.machine.parse_machine_text(t) for name, t in texts.items()}}

    def write(self, suffix: str, text: str) -> Path:
        self.files += 1
        path = self.workdir / f"f{self.files:03d}{suffix}"
        path.write_text(text, encoding="utf-8")
        return path

    def span(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    # --- machines --------------------------------------------------------------

    def random_table(self) -> dict:
        rng = self.rng
        return {
            (state, sym): (rng.choice(STATES), rng.choice(SYMBOLS), rng.choice((1, -1)))
            for state in STATES
            for sym in SYMBOLS
            if rng.random() < 0.85
        }

    def draw_machine(self, unary: tuple[int, int], budget_for, classes: tuple[str, ...], cost: tuple[int, int]):
        """A random 4-state machine, input length and budget whose run lands in ``classes`` and ``cost``."""
        lo, hi = cost
        for _ in range(DRAW_ATTEMPTS):
            table = self.random_table()
            n = self.span(*unary)
            budget = budget_for(n)
            run = oracle.RefRun(table, "A", {c: "1" for c in range(n)}, 0, budget)
            outcome = None
            while outcome is None and run.steps * STEP_WEIGHT + run.cell_steps <= hi:
                outcome = run.advance()
            if outcome is not None and outcome[0] in classes and lo <= outcome[1] * STEP_WEIGHT + run.cell_steps:
                return table, n, budget
        raise RuntimeError(f"no random machine in {classes} with cost {cost} after {DRAW_ATTEMPTS} draws")

    @staticmethod
    def machine_text(table: dict) -> str:
        lines = ["states: " + " ".join(STATES), "alphabet: " + " ".join(SYMBOLS), "start: A"]
        for (state, sym), (nstate, nsym, move) in sorted(table.items()):
            lines.append(f"{state} {sym} -> {nstate} {nsym} {'R' if move == 1 else 'L'}")
        return "\n".join(lines) + "\n"

    def run_job(self, label: str, text: str, n: int, budget: int) -> Job:
        def bind(lib):
            machine = lib.machine.parse_machine_text(text)
            return {"machine": machine, "start": lib.machine.unary_id(machine, n)}

        table, state = oracle.parse_tm(text)
        digest = hashlib.sha1(text.encode()).hexdigest()[:10]
        return Job(
            "run",
            f"run {label} machine={digest} unary={n} budget={budget}",
            {"bind": bind, "budget": budget, "table": table, "state": state, "tape": {c: "1" for c in range(n)}},
        )

    def corpus_run(self, name: str, n: int, budget: int) -> Job:
        job = self.run_job(name, self.corpus_text[name], n, budget)
        job.params["file"] = name
        return job

    def random_run(self, label: str, unary, budget_for, classes, cost) -> Job:
        table, n, budget = self.draw_machine(unary, budget_for, classes, cost)
        return self.run_job(label, self.machine_text(table), n, budget)

    def gu_run(self, job: Job, trace: bool) -> Job:
        p = job.params
        path = CORPUS_DIR / p["file"] if "file" in p else self.write(".tm", self.machine_text(p["table"]))
        argv = ["--format", "jsonl", "run", str(path), "--input", f"unary:{len(p['tape'])}", "--budget", str(p["budget"])]
        if trace:
            argv.append("--trace")
        return Job(
            "gu",
            f"gu {job.name} trace={trace}",
            {"sub": "run", "argv": argv, "trace": trace, **{k: p[k] for k in ("table", "state", "tape", "budget")}},
        )

    # --- dovetail and total_mu -------------------------------------------------

    def looper_dovetail(self, tasks: int, global_budget: int) -> Job:
        def build(lib, p):
            looper = lib.machine.two_state_looper()
            sub = lib.dovetail.SubRun(looper, lib.machine.blank_id(looper))
            return [lib.dovetail.SearchTask(i, lambda y, s=sub: s, lambda h: True) for i in range(tasks)]

        table, state = oracle.LOOPER_TABLE
        ref = [oracle.RefTask(i, lambda y: (table, state, {}), lambda o: True) for i in range(tasks)]
        return Job(
            "dovetail",
            f"dovetail loopers={tasks} sub=64 global={global_budget}",
            {"tasks": build, "ref_tasks": ref, "sub_budget": 64, "global_budget": global_budget},
        )

    def unary_tasks(self, specs: list[tuple[str, str]]):
        """Library and reference tasks running corpus machines on unary:trial, as ``gu dovetail`` builds them."""

        def build(lib, p):
            tasks = []
            for i, (name, pred) in enumerate(specs):
                m = p["machines"][name]
                accept = (
                    (lambda h: lib.dovetail.unary_output(h) == 0)
                    if pred == "zero-of"
                    else (lambda h: lib.dovetail.unary_output(h) != 0)
                )
                tasks.append(lib.dovetail.SearchTask(i, lambda y, m=m: lib.dovetail.SubRun(m, lib.machine.unary_id(m, y)), accept))
            return tasks

        ref = []
        for i, (name, pred) in enumerate(specs):
            table, state = oracle.parse_tm(self.corpus_text[name])
            accept = (lambda o: oracle.ones(o) == 0) if pred == "zero-of" else (lambda o: oracle.ones(o) != 0)
            ref.append(oracle.RefTask(i, lambda y, t=table, s=state: (t, s, {c: "1" for c in range(y)}), accept))
        return build, ref

    def unary_dovetail(self, specs, sub_budget: int, global_budget: int) -> Job:
        build, ref = self.unary_tasks(specs)
        names = " ".join(f"{n}={p}" for n, p in specs)
        return Job(
            "dovetail",
            f"dovetail {names} sub={sub_budget} global={global_budget}",
            {"bind": self.parse_corpus(n for n, _ in specs), "tasks": build, "ref_tasks": ref,
             "sub_budget": sub_budget, "global_budget": global_budget},
        )

    def finite_dovetail(self, trials: tuple[int, ...]) -> Job:
        """Tasks over halting corpus machines with finitely many trials, all rejected: AllExhausted."""
        names = ("bb2.tm", "bb3.tm", "write3.tm")[: len(trials)]

        def build(lib, p):
            tasks = []
            for i, (name, count) in enumerate(zip(names, trials)):
                m = p["machines"][name]
                sub = lib.dovetail.SubRun(m, lib.machine.blank_id(m))
                tasks.append(lib.dovetail.SearchTask(i, lambda y, s=sub, c=count: s if y < c else None, lambda h: False))
            return tasks

        ref = []
        for i, (name, count) in enumerate(zip(names, trials)):
            table, state = oracle.parse_tm(self.corpus_text[name])
            ref.append(oracle.RefTask(i, lambda y, t=table, s=state, c=count: (t, s, {}) if y < c else None, lambda o: False))
        return Job(
            "dovetail",
            f"dovetail finite {list(zip(names, trials))} sub=200 global=100000",
            {"bind": self.parse_corpus(names), "tasks": build, "ref_tasks": ref, "sub_budget": 200, "global_budget": 100_000},
        )

    def make_t(self, target: int, x: int, diverging: tuple, with_t2: bool, sub_budget: int, global_budget: int) -> Job:
        """dovetail over make_t1 (and make_t2) of MachineBackedFunction(|x + y - target|)."""
        fn = functools.partial(absdiff, target)

        def build(lib, p):
            g = lib.dovetail.MachineBackedFunction(fn, frozenset(diverging))
            tasks = [lib.dovetail.make_t1(g, (x,), 0)]
            if with_t2:
                tasks.append(lib.dovetail.make_t2(g, (x,), 1))
            return tasks

        def trial(y):
            table, state = oracle.LOOPER_TABLE if (x, y) in diverging else oracle.writer_table(fn(x, y))
            return table, state, {}

        ref = [oracle.RefTask(0, trial, lambda o: oracle.ones(o) == 0)]
        if with_t2:
            ref.append(oracle.RefTask(1, trial, lambda o: oracle.ones(o) != 0))
        return Job(
            "dovetail",
            f"dovetail make_t1{'+make_t2' if with_t2 else ''} |x+y-{target}| x={x} diverging={sorted(diverging)} "
            f"sub={sub_budget} global={global_budget}",
            {"tasks": build, "ref_tasks": ref, "sub_budget": sub_budget, "global_budget": global_budget},
        )

    def gu_dovetail(self, specs, sub_budget: int, global_budget: int) -> Job:
        _, ref = self.unary_tasks(specs)
        argv = ["--format", "jsonl", "dovetail", *(f"{CORPUS_DIR / n}={p}" for n, p in specs)]
        argv += ["--sub-budget", str(sub_budget), "--global-budget", str(global_budget)]
        names = " ".join(f"{n}={p}" for n, p in specs)
        return Job(
            "gu",
            f"gu dovetail {names} sub={sub_budget} global={global_budget}",
            {"sub": "dovetail", "argv": argv, "ref_tasks": ref, "sub_budget": sub_budget, "global_budget": global_budget},
        )

    def total_mu(self, target: int, x: int, diverging: tuple, budget: int) -> Job:
        return Job(
            "total_mu",
            f"total_mu |x+y-{target}| x={x} diverging={sorted(diverging)} budget={budget}",
            {"target": target, "x": x, "diverging": frozenset(diverging), "budget": budget},
        )

    # --- β codec -----------------------------------------------------------------

    def beta_seq(self, length: int, c_max: int) -> list[int]:
        """Values of a random pair (b, c), c <= c_max, at indices 0..length-1."""
        c = self.span(1, c_max)
        b = self.span(0, 10**6)
        return [b % (1 + (i + 1) * c) for i in range(length)]

    def beta(self, op: str, seq: list[int], bound: int = 0) -> Job:
        return Job("beta", f"beta {op} {seq} bound={bound}", {"op": op, "seq": seq, "bound": bound})

    # --- universe and collapse ----------------------------------------------------

    def bump_machine(self, k: int) -> str:
        """Steps left off the unary input and writes ``k`` more ones: value t + k in k + 1 steps."""
        lines = [f"states: {' '.join(f'q{j}' for j in range(k + 1))}", "alphabet: _ 1", "start: q0", "q0 1 -> q0 1 L"]
        lines += [f"q{j} _ -> q{j + 1} 1 L" for j in range(k)]
        return "\n".join(lines) + "\n"

    def uniform_specs(self) -> list[str]:
        bump = self.write(".tm", self.bump_machine(2))
        return [
            f"uniform:affine,a={self.span(2, 9)},b={self.span(0, 9)},mod={self.span(50, 500)},start={self.span(0, 49)}",
            "uniform:table,values=" + "|".join(str(self.span(0, 20)) for _ in range(self.span(3, 6))),
            f"uniform:counter,start={self.span(0, 9)},step={self.span(1, 3)}",
            f"uniform:machine,file={bump.name}",
            f"uniform:constant,value={self.span(0, 30)}",
        ]
    def config(self, specs: list[str], steps: int) -> tuple[dict, Path]:
        props = [f"p{i}" for i in range(len(specs))]
        particles = []
        for pid, chunk in enumerate((specs[0::3], specs[1::3], specs[2::3]), start=1):
            offset = pid - 1
            providers = {props[offset + 3 * i]: spec for i, spec in enumerate(chunk)}
            if providers:
                particles.append({"id": pid, "providers": providers})
        config = {"properties": props, "particles": particles, "steps": steps, "window": 3}
        return config, self.write(".json", json.dumps(config, sort_keys=True))

    def gu_universe(self, config: dict, path: Path, steps: int, label: str) -> Job:
        argv = ["--format", "jsonl", "universe", "sim", "--config", label if path.parent == CONFIG_DIR else str(path)]
        argv += ["--steps", str(steps)]
        return Job(
            "gu",
            f"gu universe sim {label} {json.dumps(config, sort_keys=True)} steps={steps}",
            {"sub": "universe", "argv": argv, "config": config, "base_dir": path.parent, "steps": steps},
        )

    def shipped_universe(self, name: str, steps: int) -> Job:
        path = CONFIG_DIR / f"{name}.json"
        return self.gu_universe(json.loads(path.read_text(encoding="utf-8")), path, steps, name)

    def seeded_universe(self, steps: int) -> Job:
        k0 = self.span(steps // 2 - 2, steps // 2 + 2)
        specs = self.uniform_specs()[:4] + [f"horizon:pi,k0={k0}", f"horizon:mod={self.span(9, 11)},k0={k0 + self.span(8, 12)}"]
        config, path = self.config(specs, steps)
        return self.gu_universe(config, path, steps, "seeded")

    def predestination(self, specs: list[str], horizon: int, bound: int, path: Path = None) -> Job:
        if path is None:
            config, path = self.config(specs, horizon)
        else:
            config = json.loads(path.read_text(encoding="utf-8"))
        return Job(
            "predestination",
            f"predestination {json.dumps(config, sort_keys=True)} horizon={horizon} bound={bound}",
            {"bind": lambda lib: {"universe": lib.universe.load_universe_config(path).universe},
             "config": config, "base_dir": path.parent, "horizon": horizon, "bound": bound},
        )

    def collapse(self, pred: str, k: int, below: int, above: int, measure_at: int) -> Job:
        lo, hi = max(0, k - below), k + above
        return Job(
            "collapse",
            f"collapse {pred} k={k} eval={lo}..{hi - 1} measure={measure_at}",
            {"pred": pred, "k": k, "lo": lo, "hi": hi, "measure": measure_at},
        )

    def query(self) -> Job:
        path = CONFIG_DIR / "mixed.json"
        queries = [(pid, t, k) for pid in (1, 2) for t in (0, 2, 4) for k in (0, 1, 2)]
        return Job("query", f"signature_query mixed {queries}", {"path": str(path), "base_dir": CONFIG_DIR, "queries": queries})

    # --- the probe every workload carries ---------------------------------------------

    def probe(self) -> Job:
        """A few-millisecond job calling every layer once, so each per-layer metric is measured everywhere."""
        cheap = [i for i in manifest_items() if i["file"] not in ("counter.tm", "grow_right.tm")]
        item = self.rng.choice(cheap)
        target = self.span(6, 12)
        seq = self.beta_seq(2, 8)
        jobs = [
            Job("corpus", f"corpus verify {item['file']}", {"bind": corpus_entry(item["file"]), "file": item["file"]}),
            self.looper_dovetail(2, self.span(100, 160)),
            self.total_mu(target, 1, (), target + 4),
            self.beta("predict", seq, self.span(120, 160)),
            self.beta("encode", self.beta_seq(3, 8)),
            self.beta("fit", self.beta_seq(3, 8), 60),
            self.query(),
            self.predestination([], 3, 40, CONFIG_DIR / "uniform_pair.json"),
            self.collapse("parity", self.span(3, 6), 3, 3, self.span(6, 8)),
        ]
        return Job("probe", "probe " + " | ".join(j.name for j in jobs), {"jobs": jobs})


# --- recipes --------------------------------------------------------------------------


def tape_growth(b: JobFactory) -> list[Job]:
    grow = lambda: b.corpus_run("grow_right.tm", 0, b.span(990, 1010))
    counter = lambda: b.corpus_run("counter.tm", b.span(195, 205), b.span(990, 1010))
    grower = lambda: b.random_run("grower", (0, 0), lambda n: 700, ("budget",), (95_000, 105_000))
    wide = lambda: b.random_run(
        "wide", (1000, 2500), lambda n: round(b.span(98_000, 102_000) / (n + STEP_WEIGHT)), ("budget",), (0, 10**9)
    )
    short = lambda target: b.random_run(
        "short", (20, 80), lambda n: 250, ("halt", "loop"), (int(target * 0.95), int(target * 1.05))
    )
    # Ten alike corpus runs in the middle of the latency order keep the median off the gaps between job sizes.
    plateau = [
        lambda: b.corpus_run("grow_right.tm", 0, b.span(88, 92)),
        lambda: b.corpus_run("counter.tm", b.span(18, 22), b.span(108, 112)),
    ]
    ladder = [100 + 30 * i for i in range(15)]
    short_or_plateau = lambda i: short(ladder[i]) if i < len(ladder) else plateau[i % 2]()
    # Three grow_right runs per cycle are the heaviest jobs, so the tail percentile falls among alike samples.
    slots = [grow(), b.probe(), counter(), grower(), wide()]
    slots += [short_or_plateau(i) for i in range(0, 25, 4)]
    slots += [b.gu_run(b.corpus_run("grow_right.tm", 0, b.span(250, 300)), trace=True), grower(), grow()]
    slots += [short_or_plateau(i) for i in range(1, 25, 4)]
    slots += [counter(), wide(), b.gu_run(short(5000), trace=False)]
    slots += [short_or_plateau(i) for i in range(2, 25, 4)]
    slots += [grower(), b.gu_run(short(3000), trace=True), Job("corpus", "corpus verify all", {"entry": None}), grow()]
    slots += [short_or_plateau(i) for i in range(3, 25, 4)]
    slots += [grower(), b.gu_run(b.corpus_run("counter.tm", b.span(20, 40), b.span(600, 700)), trace=False)]
    return slots


def dovetail_search(b: JobFactory) -> list[Job]:
    alive = [("counter.tm", "zero-of"), ("grow_right.tm", "zero-of")]
    mu = lambda t: b.total_mu(t, b.span(1, 2), (), t + 10)
    mu_div = lambda t: b.total_mu(t, 2, ((2, b.span(t - 8, t - 4)),), t + 10)
    plateau = lambda: mu(b.span(50, 52))
    loopers = lambda k: b.looper_dovetail(k, b.span(3100, 3200))
    make_t = lambda t2: b.make_t(b.span(20, 26), 1, ((1, b.span(3, 10)),), t2, 200, 100_000)
    slots = [loopers(2), b.probe(), mu(30), plateau(), b.unary_dovetail(alive, 10**6, b.span(3900, 4100))]
    slots += [plateau(), mu(36), make_t(False), loopers(3), plateau(), mu_div(60), mu(24)]
    slots += [b.gu_dovetail(alive, b.span(200, 300), b.span(1200, 1300)), plateau(), mu(72)]
    slots += [loopers(4), plateau(), mu(42), b.finite_dovetail((b.span(3, 6), b.span(3, 6), b.span(3, 6)))]
    slots += [b.unary_dovetail(alive, 10**6, b.span(3900, 4100)), plateau(), mu_div(78), mu(27)]
    slots += [make_t(True), plateau(), loopers(3), plateau()]
    slots += [b.gu_dovetail(alive, b.span(200, 300), b.span(1200, 1300))]
    return slots


def codec_universe(b: JobFactory) -> list[Job]:
    predict1 = lambda: b.beta("predict", [b.span(1, 2)], b.span(9900, 10100))
    predict2 = lambda: b.beta("predict", [(v := b.span(10, 11)), v + 1], b.span(9900, 10100))
    matches = lambda n: b.beta("matches", b.beta_seq(n, 30), b.span(14900, 15100))
    encode = lambda: b.beta("encode", [b.span(0, 70) for _ in range(b.span(60, 70))])
    straddle = lambda pred: b.collapse(pred, b.span(38, 42), b.span(14, 16), b.span(14, 16), b.span(70, 74))
    destined = lambda: b.predestination(b.uniform_specs(), b.span(5, 7), b.span(1700, 1800))
    # The six predict2 jobs sit in the middle of the latency order: 11 jobs are cheaper, 11 dearer.
    slots = [predict1(), b.probe(), b.shipped_universe("mixed", b.span(200, 260)), matches(2), encode()]
    slots += [b.seeded_universe(b.span(230, 240)), straddle("parity"), predict2(), destined(), predict2()]
    slots += [b.shipped_universe("uniform_pair", b.span(200, 260)), matches(3), straddle("pi"), predict2()]
    slots += [predict1(), b.seeded_universe(b.span(230, 240)), destined(), matches(2), predict2()]
    slots += [b.shipped_universe("horizon_only", b.span(200, 260)), straddle(f"mod={b.span(18, 22)}"), predict2()]
    slots += [encode(), b.seeded_universe(b.span(230, 240)), b.shipped_universe("constant_world", b.span(200, 260))]
    slots += [straddle(f"const={b.span(9, 11)}"), matches(3), predict2()]
    return slots


RECIPES = {"tape-growth": tape_growth, "dovetail-search": dovetail_search, "codec-universe": codec_universe}
WORKLOADS = tuple(RECIPES)


def corpus_entry(name: str):
    return lambda lib: {"entry": next(e for e in lib.corpus.load_manifest() if e.name == name)}


def make_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The job cycle of ``workload`` for ``seed``, before godelsim is imported.

    Files gu reads are written under ``workdir``.  Inputs that are godelsim
    objects come from each job's ``bind`` step, which ``bind_jobs`` runs.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    return RECIPES[workload](JobFactory(random.Random(f"{workload}/{seed}"), workdir))


def bind_jobs(lib, jobs: list[Job]) -> None:
    """Parse machines and configs and build the godelsim objects the jobs take as input."""
    for job in jobs:
        bind = job.params.pop("bind", None)
        if bind is not None:
            job.params.update(bind(lib))
        if job.kind == "probe":
            bind_jobs(lib, job.params["jobs"])
