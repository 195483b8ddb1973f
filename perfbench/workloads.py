"""The benchmark's workloads: their seeded inputs, one round of operations,
and the checks of the outputs against `reference`.

Each workload provides
  plan(seed)            the inputs, as plain data, from the seed alone;
  build(plan, work)     the set-up a user pays: import latmodal and write
                        the input files through its serializer;
  Round(plan, work)     an object whose run(traced) performs one round of
                        operations, with the tracer installed if traced,
                        and returns an `Outcome`;
  check(plan, outcomes) a list of errors, empty when every output agrees
                        with the reference computations.

Nothing here imports latmodal at module level: the set-up probe times the
import.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference as R
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclass
class Outcome:
    """One round: the operations attempted and failed, their latencies and
    outputs, the round's wall time, and the traces of a traced round."""

    attempted: int = 0
    wall_s: float = 0.0
    op_s: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    traces: list = field(default_factory=list)
    startups: list = field(default_factory=list)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@contextlib.contextmanager
def _tracing(traced: bool, traces: list):
    """Install the tracer in this process for the block, if traced."""
    if not traced:
        yield
        return
    tracer = Tracer()
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        traces.append(tracer.to_dict())


def _write_lattice(latmodal, spec: dict, path: Path) -> None:
    """A lattice file in latmodal's own format, built through its API."""
    lat = latmodal.validate_lattice(spec["elements"], spec["pairs"], name=spec["name"])
    if spec.get("neg") is not None:
        lat = lat.with_neg([lat.index(spec["neg"][x]) for x in lat.elements])
    lat = lat.with_imp(latmodal.build_implication(lat, spec["imp"]))
    matrix = latmodal.matrix_from_names(lat, spec["designated"])
    path.write_text(latmodal.serialize.dumps(matrix.to_dict()) + "\n", encoding="utf-8")


def _random_matrix(rng: random.Random, names: list[str], imps: tuple[str, ...]) -> dict:
    name = rng.choice(names)
    elements, pairs, neg = R.POOL[name]
    imp = rng.choice(imps)
    base = R.lattice(elements, pairs, neg, imp)
    designated = rng.choice([u for u in R.upsets(base) if 0 < len(u) < base.n])
    return {
        "name": name,
        "elements": elements,
        "pairs": pairs,
        "neg": neg,
        "imp": imp,
        "designated": [elements[i] for i in sorted(designated)],
    }


# ---------------------------------------------------------------------------
# suite: run_suite at the default bounds, each of its 7 checks one operation

SUITE_CHECKS = (
    "regularity",
    "eq1_implicative",
    "disj_dist",
    "k_linear",
    "k_material",
    "twist_k",
    "k5_regression",
)
A006966 = (1, 1, 1, 2, 5)  # lattices on 1..5 elements up to isomorphism
K = ("imp", ("box", ("imp", R.V("p"), R.V("q"))), ("imp", ("box", R.V("p")), ("box", R.V("q"))))
DISJ = ("imp", ("or", ("box", R.V("p")), ("box", R.V("q"))), ("box", ("or", R.V("p"), R.V("q"))))
SUITE_FORMULAS = {"disj_dist": DISJ, "k_linear": K, "k_material": K, "twist_k": K}


def suite_plan(seed: int) -> dict:
    # run_suite takes no inputs; the seed has nothing to vary
    return {}


def suite_build(plan: dict, work: Path) -> None:
    import latmodal.harness

    latmodal.harness.HarnessConfig()


class SuiteRound:
    def __init__(self, plan: dict, work: Path):
        import latmodal.harness

        self.harness = latmodal.harness

    def run(self, traced: bool = False) -> Outcome:
        harness = self.harness
        out = Outcome(attempted=len(SUITE_CHECKS))

        def timed(fn):
            def call(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    out.op_s.append(time.perf_counter() - t0)

            return call

        with _tracing(traced, out.traces):
            # run_suite looks these names up when it calls them
            originals = (harness.verify_theorem, harness.k5_regression)
            harness.verify_theorem, harness.k5_regression = map(timed, originals)
            t0 = time.perf_counter()
            try:
                reports, status = harness.run_suite(harness.HarnessConfig())
            except Exception as exc:  # a check that raises is a failed operation
                out.failed = len(SUITE_CHECKS)
                out.errors.append(f"run_suite raised {type(exc).__name__}: {exc}")
                reports, status = [], None
            finally:
                out.wall_s = time.perf_counter() - t0
                harness.verify_theorem, harness.k5_regression = originals
        out.outputs = [(status, [r.to_dict() for r in reports])]
        out.peak_rss_mb = _self_rss_mb()
        return out


def check_suite(plan: dict, outcomes: list[Outcome]) -> list[str]:
    import latmodal

    errors = []
    counts = tuple(len(R.lattices_of_size(n)) for n in range(1, 6))
    program_counts = tuple(sum(1 for _ in latmodal.enumerate_lattices(n)) for n in range(1, 6))
    if counts != A006966 or program_counts != A006966:
        errors.append(f"lattice counts {program_counts} (reference {counts}), A006966 {A006966}")
    universes = R.suite_universes()
    expected = {}
    for check, formula in SUITE_FORMULAS.items():
        cases = valid = 0
        for base, designated_sets in universes[check]:
            values = R.attained_values(base, formula)
            cases += len(designated_sets)
            valid += sum(values <= d for d in designated_sets)
        expected[check] = (cases, valid)
    for out in outcomes:
        for status, reports in out.outputs:
            if status is None:
                continue
            if status != 0 or [r["theorem"] for r in reports] != list(SUITE_CHECKS):
                errors.append(f"suite status {status}, checks {[r['theorem'] for r in reports]}")
            for r in reports:
                if not r["passed"]:
                    errors.append(f"{r['theorem']} did not pass: {r['failures'][:1]}")
                if r["theorem"] in expected:
                    cases, valid = expected[r["theorem"]]
                    got = (r["cases"], r["universe"]["structural_true_cases"])
                    if got != (cases, valid):
                        errors.append(
                            f"{r['theorem']}: cases, structural_true_cases {got}; "
                            f"reference matrices, valid on all frames {(cases, valid)}"
                        )
    return errors


# ---------------------------------------------------------------------------
# valid_w4: `latmodal valid --max-worlds 4`, each query a fresh process

P, Q = R.V("p"), R.V("q")
BOX_AND = ("imp", ("box", ("and", P, Q)), ("and", ("box", P), ("box", Q)))
# (lattice size, implication, depth-1 formula, substitute p := []p,
# expected exit code).  Formula and implication are fixed per slot, so its
# cost and memory are too; the seed picks the lattice and designated set.
# A substitution instance of a formula valid on all frames is valid too.
# Failing queries have a countermodel of at most 3 worlds, so the search
# stops before the 4-world frames.
VALID_SLOTS = (
    (3, R.MATERIAL, K, False, 0),
    (4, R.MATERIAL, BOX_AND, False, 0),
    (5, R.EQ1, K, False, 0),
    (3, R.EQ1, K, True, 0),
    (4, R.MATERIAL, K, False, 1),
    (5, R.MATERIAL, DISJ, False, 1),
)
MAX_WORLDS = 4


def valid_plan(seed: int) -> dict:
    rng = random.Random(f"valid_w4:{seed}")
    queries = []
    for k, (size, imp, formula, deepen, expect) in enumerate(VALID_SLOTS):
        names = [n for n in R.pool_of_size(size) if imp == R.EQ1 or R.POOL[n][2] is not None]
        for _ in range(10000):
            spec = _random_matrix(rng, names, (imp,))
            lat = R.from_spec(spec)
            if expect == 0 and R.attained_values(lat, formula) <= lat.designated:
                break
            if expect == 1 and (R.smallest_countermodel(lat, formula) or 4) <= 3:
                break
        else:
            raise RuntimeError(f"no matrix found for valid_w4 slot {k}")
        if deepen:
            formula = R.substitute(formula, {"p": ("box", P)})
        queries.append(
            {"lattice": spec, "file": f"lat{k}.json", "formula": formula,
             "text": R.render(formula), "expect": expect}
        )
    return {"queries": queries}


def valid_build(plan: dict, work: Path) -> None:
    import latmodal
    import latmodal.serialize

    for q in plan["queries"]:
        _write_lattice(latmodal, q["lattice"], work / q["file"])


def _env(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def spawn(argv: list[str], env: dict, stdout: Path, timeout: int = 170) -> tuple[int, float]:
    """Run a process to its end; returns its exit code and peak RSS in MB.

    os.wait4 gives the child's own resource usage, which subprocess does
    not; an alarm kills a child that outlives the timeout.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stdout) + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


class ValidRound:
    def __init__(self, plan: dict, work: Path):
        self.queries = plan["queries"]
        self.work = work

    def run(self, traced: bool = False) -> Outcome:
        out = Outcome(attempted=len(self.queries))
        t_first = time.perf_counter()
        for k, q in enumerate(self.queries):
            args = ["valid", "--lattice", str(self.work / q["file"]), "--formula", q["text"],
                    "--max-worlds", str(MAX_WORLDS)]
            stdout = self.work / f"valid{k}.out"
            if not traced:
                argv, extra = [sys.executable, "-m", "latmodal.cli", *args], None
            else:
                trace_file = self.work / f"valid{k}.trace.json"
                argv = [sys.executable, str(HERE / "traced_cli.py"), *args]
                extra = {"PERFBENCH_TRACE_OUT": str(trace_file),
                         "PERFBENCH_SPAWN_TIME": repr(time.time())}
            t0 = time.perf_counter()
            code, rss = spawn(argv, _env(extra), stdout)
            out.op_s.append(time.perf_counter() - t0)
            out.peak_rss_mb = max(out.peak_rss_mb, rss)
            text = stdout.read_text(encoding="utf-8")
            try:
                payload = json.loads(text)
            except ValueError:
                payload = None
            if code not in (0, 1) or payload is None:
                out.failed += 1
                err = Path(str(stdout) + ".err").read_text(encoding="utf-8")[-300:]
                out.errors.append(f"query {k} exited {code}: {err}")
            out.outputs.append((k, code, payload))
            if traced:
                data = json.loads(trace_file.read_text(encoding="utf-8"))
                out.startups.append(data.pop("startup_s"))
                out.traces.append(data)
        out.wall_s = time.perf_counter() - t_first
        return out


def _check_counterexample(q: dict, cx: dict) -> str | None:
    """Re-evaluate a printed counterexample with the reference evaluator."""
    lat = R.from_spec(q["lattice"])
    if cx["lattice"]["elements"] != lat.elements:
        return "counterexample lattice differs from the query's"
    values = R.eval_model(lat, cx["worlds"], cx["rel"], cx["valuation"], q["formula"])
    value = values[cx["worlds"].index(cx["world"])]
    if lat.elements[value] != cx["value"]:
        return f"reported value {cx['value']}, reference {lat.elements[value]}"
    if value in lat.designated:
        return f"reported value {cx['value']} is designated"
    return None


def check_valid(plan: dict, outcomes: list[Outcome]) -> list[str]:
    errors = []
    for out in outcomes:
        for k, code, payload in out.outputs:
            q = plan["queries"][k]
            if payload is None:
                continue
            if code != q["expect"] or payload.get("valid") != (q["expect"] == 0):
                errors.append(f"query {k} ({q['text']}): exit {code}, expected {q['expect']}")
            elif code == 1:
                problem = _check_counterexample(q, payload["counterexample"])
                if problem:
                    errors.append(f"query {k} ({q['text']}): {problem}")
    return errors


# ---------------------------------------------------------------------------
# model_check: eval-style queries on model files, in one process

VARS = ("p", "q", "r")
# (worlds, modal depths of the box chains joined into the formula).  The
# chains fix how many box nodes sit at each depth, which sets the cost of
# a query; the seed picks connectives, literals, graphs and valuations.
MODEL_SLOTS = (
    (50, (5, 4, 1)),
    (100, (5, 2, 1)),
    (200, (4, 2, 1)),
    (250, (3, 1, 1, 1)),
    (300, (3, 2, 1)),
    (400, (2, 2, 1, 1)),
    (500, (1, 1, 1, 1, 1, 1)),
    (500, (2, 1, 1, 1)),
)
OPS = ("and", "or", "imp")


def _literal(rng):
    var = R.V(rng.choice(VARS))
    return ("not", var) if rng.random() < 0.3 else var


def _chain(rng, depth):
    """[](l op [](l op ... [](l op l)...)) with `depth` nested boxes."""
    if depth == 0:
        return _literal(rng)
    pair = [_literal(rng), _chain(rng, depth - 1)]
    rng.shuffle(pair)
    return ("box", (rng.choice(OPS), *pair))


def model_plan(seed: int) -> dict:
    rng = random.Random(f"model_check:{seed}")
    queries = []
    for k, (n_worlds, depths) in enumerate(MODEL_SLOTS):
        spec = _random_matrix(rng, ["C4", "B4", "C5", "M3", "N5"], (R.MATERIAL, R.EQ1))
        chains = [_chain(rng, d) for d in depths]
        while len(R.box_nodes(("and",) + tuple(chains))) < sum(depths):
            # a box node shared between chains would be evaluated once
            chains = [_chain(rng, d) for d in depths]
        rng.shuffle(chains)
        formula = chains[0]
        for c in chains[1:]:
            formula = (rng.choice(OPS), formula, c)
        worlds = [f"w{i}" for i in range(n_worlds)]
        rel = [
            [w, worlds[j]]
            for w in worlds
            for j in sorted(rng.sample(range(n_worlds), rng.randint(3, 5)))
        ]
        valuation = {w: {v: rng.choice(spec["elements"]) for v in VARS} for w in worlds}
        queries.append(
            {"lattice": spec, "lattice_file": f"lat{k}.json", "file": f"model{k}.json",
             "formula": formula, "text": R.render(formula),
             "worlds": worlds, "rel": rel, "valuation": valuation}
        )
    return {"queries": queries}


def model_build(plan: dict, work: Path) -> None:
    import latmodal
    import latmodal.serialize

    for q in plan["queries"]:
        _write_lattice(latmodal, q["lattice"], work / q["lattice_file"])
        model = {"lattice": q["lattice_file"], "worlds": q["worlds"], "rel": q["rel"],
                 "valuation": q["valuation"]}
        (work / q["file"]).write_text(latmodal.serialize.dumps(model), encoding="utf-8")


class ModelRound:
    def __init__(self, plan: dict, work: Path):
        import latmodal.formula
        import latmodal.kripke
        import latmodal.serialize

        self.mods = (latmodal.serialize, latmodal.formula, latmodal.kripke)
        self.queries = plan["queries"]
        self.work = work

    def run(self, traced: bool = False) -> Outcome:
        serialize, formula, kripke = self.mods  # looked up per call, so tracing applies
        out = Outcome(attempted=len(self.queries))
        with _tracing(traced, out.traces):
            t_first = time.perf_counter()
            for k, q in enumerate(self.queries):
                t0 = time.perf_counter()
                try:
                    model, designated = serialize.load_model(self.work / q["file"])
                    f = formula.parse(q["text"])
                    values = [kripke.evaluate(model, w, f) for w in range(len(model.frame.worlds))]
                    flags = [v in designated for v in values]
                except Exception as exc:  # an operation that raises has failed
                    out.failed += 1
                    out.errors.append(f"query {k} raised {type(exc).__name__}: {exc}")
                    continue
                finally:
                    out.op_s.append(time.perf_counter() - t0)
                out.outputs.append((k, [model.lattice.elements[v] for v in values], flags))
            out.wall_s = time.perf_counter() - t_first
        out.peak_rss_mb = _self_rss_mb()
        return out


def check_models(plan: dict, outcomes: list[Outcome]) -> list[str]:
    expected = {}
    for k, q in enumerate(plan["queries"]):
        lat = R.from_spec(q["lattice"])
        values = R.eval_model(lat, q["worlds"], q["rel"], q["valuation"], q["formula"])
        expected[k] = ([lat.elements[v] for v in values], [v in lat.designated for v in values])
    errors = []
    for out in outcomes:
        for k, names, flags in out.outputs:
            q = plan["queries"][k]
            if (names, flags) != expected[k]:
                errors.append(f"query {k} ({q['text']}): values or designation differ from the reference")
    return errors


WORKLOADS = {
    "suite": (suite_plan, suite_build, SuiteRound, check_suite),
    "valid_w4": (valid_plan, valid_build, ValidRound, check_valid),
    "model_check": (model_plan, model_build, ModelRound, check_models),
}
