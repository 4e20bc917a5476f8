"""The benchmark's three workloads: their inputs, their ops and the checks on each output.

A workload hands out rounds. A round is a list of ``Op``; every run attempts
whole rounds, so each run holds the same mix of ops. An op is one call into
stochord (``call``, the only part that is timed) and a ``check`` that judges
its output against ``oracle`` or against a property the orders must have.
A check returns an ``Outcome``:

* ``ok``: every check passed;
* ``failed``: the program failed the op: it raised, reported a failure, or
  hit one of the known certifier faults F1 or F2 (see README.md);
* ``wrong``: an output is incorrect, which makes the whole run incorrect.

Every stochord entry point is looked up on its module at call time
(``bench.run_scenario``, ``cli.main``), so ``tracing`` can wrap it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stochord import bench, cli

from . import oracle

# parameter ranges shared by the generated compare pairs and sample-ks laws
WG_ALPHA, WG_BETA, WG_GAMMA = (0.5, 5.0), (0.5, 4.0), (0.5, 5.0)
GM_ALPHA, GM_BETA, GM_LAMBDA = (0.5, 5.0), (0.5, 3.0), (0.1, 5.0)
THIRD_KEY = {"weibull-g": "gamma", "gompertz-makeham": "lambda"}
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Outcome:
    status: str
    detail: str = ""


OK = Outcome("ok")


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(tuple(int(k) for k in key)).generate_state(1)[0])


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def law_from_config(doc: dict) -> oracle.Law:
    third = THIRD_KEY[doc["family"]]
    params = tuple((c["alpha"], c["beta"], c[third]) for c in doc["components"])
    return oracle.Law(doc["family"], doc["structure"], params)


def config_from_law(law: oracle.Law) -> dict:
    third = THIRD_KEY[law.family]
    return {"family": law.family, "structure": law.structure,
            "components": [{"alpha": a, "beta": b, third: c} for a, b, c in law.params]}


def _take(path: Path) -> bytes:
    """Read an op's output file and remove it, so the next op cannot pass on it."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return b""
    path.unlink()
    return data


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# claims: the scenario bench behind verify-theorem

# Instances per op. Each scenario's batch is sized so that its op cost about
# 150 ms when this benchmark was written: with ops of one cost, the p50 and p90
# of a run do not sit on the edge between two scenarios' clusters of ops.
CLAIMS_BATCH = {
    "T3.1": 34, "T3.2": 21, "T3.3": 23, "T3.4": 20, "T3.5": 16,
    "T4.1": 55, "T4.2": 30, "T4.3": 26, "T4.4": 70, "T4.5": 22,
}
# the worked example: its T-transform mixes the two columns of the matrix
EXAMPLE_MATRIX = ((4.8, 3.4), (2.5, 1.6))
EXAMPLE_LAMBDA = 0.45
EXAMPLE_WG_BETA = 3.0
EXAMPLE_GM_LAMBDA = 1.0
HAZARD_GAP_FLOOR = -1e-10  # acceptance criteria C2 and C3
CURVE_RTOL = 1e-9
CURVE_POINTS = 9


def _example_laws(scenario_id: str) -> tuple[oracle.Law, oracle.Law]:
    """Source and transformed series systems of the pinned worked example."""
    (a0, a1), (b0, b1) = EXAMPLE_MATRIX
    lam = EXAMPLE_LAMBDA
    mixed = ((lam * a0 + (1 - lam) * a1, lam * b0 + (1 - lam) * b1),
             (lam * a1 + (1 - lam) * a0, lam * b1 + (1 - lam) * b0))
    laws = []
    for columns in (((a0, b0), (a1, b1)), mixed):
        if scenario_id == "T3.1":  # rows are (alpha; gamma), beta shared
            params = tuple((a, EXAMPLE_WG_BETA, g) for a, g in columns)
            laws.append(oracle.Law("weibull-g", "series", params))
        else:  # T4.1: rows are (alpha; beta), lambda shared
            params = tuple((a, b, EXAMPLE_GM_LAMBDA) for a, b in columns)
            laws.append(oracle.Law("gompertz-makeham", "series", params))
    return laws[0], laws[1]


def check_example_curve(scenario_id: str, curve) -> str | None:
    """Why the exported worked-example curve is wrong, or None."""
    if curve is None:
        return "no worked-example curve in the report"
    if not np.all(curve.diff >= HAZARD_GAP_FLOOR):
        return f"hazard gap {float(np.min(curve.diff)):.3e} below {HAZARD_GAP_FLOOR:g}"
    source, transformed = _example_laws(scenario_id)
    for k in np.linspace(0, curve.x.size - 1, CURVE_POINTS).astype(int):
        x = float(curve.x[k])
        want_l = oracle.evaluate(source, x)["hazard"]
        want_r = oracle.evaluate(transformed, x)["hazard"]
        for got, want, side in ((curve.lhs[k], want_l, "source"),
                                (curve.rhs[k], want_r, "transformed")):
            if not abs(float(got) - want) <= CURVE_RTOL * abs(want):
                return f"{side} hazard at x={x!r} is {float(got)!r}, oracle {float(want)!r}"
        if float(want_l - want_r) < HAZARD_GAP_FLOOR:
            return f"oracle hazard gap {float(want_l - want_r):.3e} at x={x!r}"
    return None


def check_claims_report(report, scenario_id: str, count: int) -> Outcome:
    if report.count != count or report.scenario_id != scenario_id:
        return Outcome("wrong", f"report is for {report.scenario_id} x {report.count}")
    if not report.all_passed:
        lines = "; ".join(report.summary_lines()[3:5])
        return Outcome("failed", f"{report.count - report.passed} instances failed: {lines}")
    # a NaN margin fails its instance, so all_passed has already caught it
    if not (math.isfinite(report.worst_margin) and report.worst_margin >= -report.tolerance):
        return Outcome("wrong", f"worst margin {report.worst_margin!r} with all instances passed")
    if scenario_id in ("T3.1", "T4.1"):
        why = check_example_curve(scenario_id, report.curve)
        if why is not None:
            return Outcome("wrong", why)
    return OK


class Claims:
    """``bench.run_scenario`` on a seeded batch, one op per scenario per round."""

    name = "claims"
    entry = "stochord.bench:run_scenario"
    min_rounds = 1

    def __init__(self, seed: int, scratch: Path, batch: dict[str, int] | None = None):
        self.seed = seed
        self.batch = dict(CLAIMS_BATCH if batch is None else batch)

    def round(self, r: int) -> list[Op]:
        return [self._op(sid, _derived_seed(self.seed, r, k))
                for k, sid in enumerate(bench.SCENARIO_IDS)]

    def _op(self, sid: str, batch_seed: int) -> Op:
        scenario = bench.TheoremScenario(scenario_id=sid, count=self.batch[sid], seed=batch_seed)
        return Op(label=f"{sid} seed={batch_seed}",
                  call=lambda: bench.run_scenario(scenario),
                  check=lambda report: check_claims_report(report, sid, scenario.count))


# ---------------------------------------------------------------------------
# compare: stochord compare over a fixed corpus of configured pairs

ORDERS = ("st", "hr", "rh", "lr")
WEAKER = {"st": (), "hr": ("st",), "rh": ("st",), "lr": ("hr", "rh", "st")}
QUANTITY = {"st": "sf", "hr": "hazard", "rh": "reversed_hazard", "lr": "log_pdf"}
CORPUS_SEED = 2002_12474
GENERATED_PAIRS = 29
GRID_COUNT = 2048
TAIL = 1e-6
XMAX_RTOL = 1e-6
ORACLE_FLOOR = 1e-8  # rows are checked where both systems' sf and cdf exceed it
ORACLE_RTOL = 1e-6
ORACLE_ROWS = 6


def _random_rows(rng: np.random.Generator, family: str, n: int) -> tuple[np.ndarray, float]:
    """A 2 x n matrix with rows sorted ascending (similarly ordered) and the shared parameter.

    Weibull-G rows are (alpha; gamma) with a shared beta; Gompertz-Makeham
    rows are (alpha; beta) with a shared lambda, as in the paper's theorems.
    """
    if family == "weibull-g":
        rows = np.vstack([rng.uniform(*WG_ALPHA, n), rng.uniform(*WG_GAMMA, n)])
        shared = float(rng.uniform(*WG_BETA))
    else:
        rows = np.vstack([rng.uniform(*GM_ALPHA, n), rng.uniform(*GM_BETA, n)])
        shared = float(rng.uniform(*GM_LAMBDA))
    return np.sort(rows, axis=1), shared


def generated_pair(rng: np.random.Generator, family: str, structure: str,
                   averaged: bool) -> dict:
    """Two systems of 2 to 8 components of one family and structure.

    ``averaged``: the second system's matrix is the first's after one or two
    column-averaging T-transforms, sharing the third parameter. Otherwise
    the second system is drawn on its own.
    """
    n = int(rng.integers(2, 9))
    rows, shared = _random_rows(rng, family, n)
    if averaged:
        other, other_shared = rows.copy(), shared
        for _ in range(int(rng.integers(1, 3))):
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            lam = float(rng.uniform())
            ci, cj = other[:, i].copy(), other[:, j].copy()
            other[:, i], other[:, j] = lam * ci + (1 - lam) * cj, lam * cj + (1 - lam) * ci
    else:
        other, other_shared = _random_rows(rng, family, n)

    def law(m, third):
        if family == "weibull-g":
            params = tuple((float(m[0, k]), third, float(m[1, k])) for k in range(n))
        else:
            params = tuple((float(m[0, k]), float(m[1, k]), third) for k in range(n))
        return config_from_law(oracle.Law(family, structure, params))

    return {"first": law(rows, shared), "second": law(other, other_shared)}


def compare_corpus(root: Path, generated: int = GENERATED_PAIRS) -> list[tuple[str, dict]]:
    """The shipped configs, the F1 exhibit and ``generated`` pairs from CORPUS_SEED.

    The corpus does not depend on the run's seed: F1 and F2 hit a
    seed-dependent share of random pairs, and every run must fail the same
    share of its ops.
    """
    corpus = []
    for name in ("example1", "example2"):
        doc = json.loads((root / "configs" / f"{name}.json").read_text(encoding="utf-8"))
        corpus.append((name, {"first": doc["first"], "second": doc["second"]}))
    f1 = json.loads(json.dumps(corpus[0][1]))
    f1["first"]["structure"] = f1["second"]["structure"] = "parallel"
    corpus.append(("example1-parallel", f1))
    rng = _rng(CORPUS_SEED)
    kinds = [(f, s, a) for a in (True, False) for f in oracle.FAMILIES
             for s in ("series", "parallel")]
    for k in range(generated):
        corpus.append((f"pair{k:02d}", generated_pair(rng, *kinds[k % len(kinds)])))
    return corpus


def slack(order: str, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The curve's diff column, recomputed as the README of stochord defines it."""
    if order in ("st", "rh"):
        return rhs - lhs
    if order == "hr":
        return lhs - rhs
    return np.concatenate([[0.0], np.diff(rhs - lhs)])


class _Pair:
    def __init__(self, name: str, doc: dict, path: str):
        self.name = name
        self.path = path
        self.laws = (law_from_config(doc["first"]), law_from_config(doc["second"]))
        self.x_max = max(oracle.tail_point(law, TAIL) for law in self.laws)
        self.verdicts: dict[str, tuple[bool, float]] = {}
        self.digests: dict[str, str] = {}
        self._oracle: dict[tuple[int, float], dict] = {}

    def oracle_at(self, side: int, x: float) -> dict:
        key = (side, x)
        if key not in self._oracle:
            self._oracle[key] = oracle.evaluate(self.laws[side], x)
        return self._oracle[key]


def parse_csv(data: bytes, header: str) -> np.ndarray:
    """The rows of a CSV file under ``header``.

    Parsed from bytes: a str of 1e5 rows in a StringIO would take four bytes
    a character and could set the peak RSS of the run.
    """
    first, _, body = data.partition(b"\n")
    if first != header.encode():
        raise ValueError(f"header {first!r}, want {header!r}")
    return np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)


def check_compare_output(pair: _Pair, order: str, code: int, stdout: str,
                         csv: bytes) -> Outcome:
    fields = _fields(stdout)
    try:
        holds = {"true": True, "false": False}[fields["holds"]]
        margin, tolerance = float(fields["margin"]), float(fields["tolerance"])
    except (KeyError, ValueError):
        return Outcome("failed", f"exit {code}, no verdict in the output")
    if code != (0 if holds else 3):
        return Outcome("wrong", f"exit code {code} with holds: {fields['holds']}")
    pair.verdicts[order] = (holds, margin)

    digest = hashlib.sha256(csv).hexdigest()
    if pair.digests.setdefault(order, digest) != digest:
        return Outcome("wrong", "a rerun wrote a different CSV")
    try:
        table = parse_csv(csv, "x,lhs,rhs,diff")
    except ValueError as err:
        return Outcome("wrong", f"curve CSV: {err}")
    x, lhs, rhs, diff = table.T
    x_end = float(x[-1])
    if not (x[0] > 0.0 and np.all(np.diff(x) > 0.0)):
        return Outcome("wrong", "x is not strictly increasing from above 0")
    if x_end > pair.x_max * (1 + XMAX_RTOL):
        return Outcome("wrong", f"x ends at {x_end!r}, beyond the tail point {pair.x_max!r}")
    if order in ("st", "hr") and (x.size != GRID_COUNT
                                  or abs(x_end / pair.x_max - 1) > XMAX_RTOL):
        return Outcome("wrong", f"{x.size} rows ending at {x_end!r}, want {GRID_COUNT} "
                                f"ending at the tail point {pair.x_max!r}")
    if not np.array_equal(diff, slack(order, lhs, rhs), equal_nan=True):
        return Outcome("wrong", "diff is not the slack of lhs and rhs")
    quantity = QUANTITY[order]
    for k in np.linspace(0, x.size - 1, ORACLE_ROWS).astype(int):
        at = float(x[k])
        sides = [pair.oracle_at(side, at) for side in (0, 1)]
        if min(min(v["sf"], v["cdf"]) for v in sides) <= ORACLE_FLOOR:
            continue
        for got, values, column in ((lhs[k], sides[0], "lhs"), (rhs[k], sides[1], "rhs")):
            want = values[quantity]
            scale = max(1.0, abs(want)) if order == "lr" else abs(want)
            if not abs(float(got) - want) <= ORACLE_RTOL * scale:
                return Outcome("wrong", f"{column} {quantity} at x={at!r} is {float(got)!r}, "
                                        f"oracle {float(want)!r}")

    if not (math.isfinite(margin) and math.isfinite(tolerance)):
        return Outcome("failed", f"F1: {order} margin {margin!r}, tolerance {tolerance!r}")
    if holds:
        for weaker in WEAKER[order]:
            w_holds, w_margin = pair.verdicts.get(weaker, (True, 0.0))
            if not w_holds and math.isfinite(w_margin):
                return Outcome("failed", f"F2: {order} holds at margin {margin!r}, tolerance "
                                         f"{tolerance!r}, while {weaker} fails")
    return OK


class Compare:
    """``stochord compare`` on every pair of the corpus in all four orders."""

    name = "compare"
    entry = "stochord.cli:main"
    min_rounds = 2  # the second round checks that reruns write identical CSV

    def __init__(self, seed: int, scratch: Path, generated: int = GENERATED_PAIRS):
        self.seed = seed
        self.out = scratch / "compare"
        self.out.mkdir(parents=True, exist_ok=True)
        self.pairs = [_Pair(name, doc, _write_json(scratch / f"{name}.json", doc))
                      for name, doc in compare_corpus(ROOT, generated)]

    def round(self, r: int) -> list[Op]:
        visit = _rng(self.seed, r).permutation(len(self.pairs))
        return [self._op(self.pairs[int(i)], order) for i in visit for order in ORDERS]

    def _op(self, pair: _Pair, order: str) -> Op:
        argv = ["compare", "--config", pair.path, "--order", order, "--out", str(self.out)]
        csv_path = self.out / "compare_curve.csv"

        def check(result) -> Outcome:
            code, stdout = result
            return check_compare_output(pair, order, code, stdout, _take(csv_path))

        return Op(label=f"{pair.name} {order}", call=lambda: _run_cli(argv), check=check)


# ---------------------------------------------------------------------------
# sample-ks: stochord sample at 1e5 draws

DRAWS = 100_000
KS_MAX = 0.01  # acceptance criterion C6 at 1e5 draws
KS_ATOL = 1e-9
# (family, structure, components): one op of each per round. With seven shapes
# neither the p50 nor the p90 falls on the edge between two shapes' ops.
SAMPLE_SHAPES = (
    ("weibull-g", "single", 1),
    ("gompertz-makeham", "single", 1),
    ("weibull-g", "series", 3),
    ("weibull-g", "parallel", 5),
    ("gompertz-makeham", "series", 2),
    ("gompertz-makeham", "parallel", 2),
    ("weibull-g", "parallel", 2),
)


def random_law(rng: np.random.Generator, family: str, structure: str, n: int) -> oracle.Law:
    ranges = (WG_ALPHA, WG_BETA, WG_GAMMA) if family == "weibull-g" else (
        GM_ALPHA, GM_BETA, GM_LAMBDA)
    params = tuple(tuple(float(rng.uniform(*r)) for r in ranges) for _ in range(n))
    return oracle.Law(family, structure, params)


def ks_statistic(values: np.ndarray, cdf: np.ndarray) -> float:
    n = values.size
    i = np.arange(1, n + 1, dtype=float)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1.0) / n)))


def check_sample_output(law: oracle.Law, code: int, stdout: str, csv: bytes) -> Outcome:
    if code != 0:
        return Outcome("failed", f"exit {code}")
    try:
        printed = float(_fields(stdout)["ks"])
        table = parse_csv(csv, "index,value")
    except (KeyError, ValueError) as err:
        return Outcome("wrong", f"unreadable output: {err}")
    index, values = table.T
    if values.size != DRAWS or not np.array_equal(index, np.arange(1, DRAWS + 1)):
        return Outcome("wrong", f"{values.size} rows, want {DRAWS} indexed from 1")
    if not (np.all(values > 0.0) and np.all(np.diff(values) >= 0.0)):
        return Outcome("wrong", "samples are not positive and ascending")
    ks = ks_statistic(values, oracle.cdf_float(law, values))
    if not ks <= KS_MAX:
        return Outcome("wrong", f"KS distance {ks!r} above {KS_MAX}")
    if not abs(ks - printed) <= KS_ATOL:
        return Outcome("wrong", f"printed ks {printed!r}, recomputed {ks!r}")
    return OK


class SampleKS:
    """``stochord sample --n 100000`` on seeded laws, one op per shape per round."""

    name = "sample-ks"
    entry = "stochord.cli:main"
    min_rounds = 1

    def __init__(self, seed: int, scratch: Path, shapes=SAMPLE_SHAPES):
        self.seed = seed
        self.scratch = scratch
        self.shapes = tuple(shapes)
        self.out = scratch / "sample"
        self.out.mkdir(parents=True, exist_ok=True)

    def round(self, r: int) -> list[Op]:
        ops = []
        for k, (family, structure, n) in enumerate(self.shapes):
            law = random_law(_rng(self.seed, r, k), family, structure, n)
            ops.append(self._op(law, _derived_seed(self.seed, r, k, 1), f"r{r}-{k}"))
        return ops

    def _op(self, law: oracle.Law, draw_seed: int, tag: str) -> Op:
        common = ["--n", str(DRAWS), "--seed", str(draw_seed), "--out", str(self.out)]
        if law.structure == "single":
            (a, b, c), = law.params
            flag = "--gamma" if law.family == "weibull-g" else "--lambda"
            argv = ["sample", "--family", law.family, "--alpha", repr(a), "--beta", repr(b),
                    flag, repr(c)] + common
        else:
            path = _write_json(self.scratch / f"law-{tag}.json", config_from_law(law))
            argv = ["sample", "--config", path] + common
        csv_path = self.out / "samples.csv"

        def check(result) -> Outcome:
            code, stdout = result
            return check_sample_output(law, code, stdout, _take(csv_path))

        label = f"{law.family} {law.structure} x{len(law.params)} seed={draw_seed}"
        return Op(label=label, call=lambda: _run_cli(argv), check=check)


WORKLOADS = {"claims": Claims, "compare": Compare, "sample-ks": SampleKS}
