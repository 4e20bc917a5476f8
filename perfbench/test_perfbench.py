"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench

Each workload runs and passes its checks, and each check fails when handed
a corrupted output, which shows that the checks can fail.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness, oracle, workloads  # noqa: E402
from stochord import bench  # noqa: E402

TINY_BATCH = {sid: 2 for sid in bench.SCENARIO_IDS}


def _benchmark_metrics(kind: str) -> set[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[kind]}


def test_oracle_self_test():
    oracle.self_test()


def test_oracle_float_cdf_agrees_with_mpmath():
    law = oracle.Law("gompertz-makeham", "parallel", ((1.2, 0.7, 0.4), (3.0, 2.1, 1.5)))
    xs = np.array([0.05, 0.4, 1.3])
    want = [float(oracle.evaluate(law, x)["cdf"]) for x in xs]
    np.testing.assert_allclose(oracle.cdf_float(law, xs), want, rtol=1e-14)


def test_claims_runs_and_passes(tmp_path):
    wl = workloads.Claims(3, tmp_path, batch=TINY_BATCH)
    tally, metrics = harness.run_untraced(wl, seconds=0, min_ops=0)
    assert (tally.attempted, tally.failed, tally.wrong) == (10, 0, [])
    assert set(metrics) | {"setup_s"} == _benchmark_metrics("end_to_end")


def test_compare_fails_exactly_the_known_faults(tmp_path):
    wl = workloads.Compare(5, tmp_path, generated=2)
    tally, _ = harness.run_untraced(wl, seconds=0, min_ops=0)
    assert tally.attempted == 2 * 4 * 5 and tally.wrong == []
    # the parallel form of example1 hits F1 in hr, once per round
    assert tally.failed == 2
    assert all(": F1: hr margin -inf" in detail for detail in tally.failures)


def test_sample_ks_runs_and_passes(tmp_path):
    wl = workloads.SampleKS(4, tmp_path, shapes=workloads.SAMPLE_SHAPES[:2])
    tally, _ = harness.run_untraced(wl, seconds=0, min_ops=0)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 0, [])


def test_traced_run_reports_every_layer_and_repeats_counts(tmp_path):
    runs = []
    for _ in range(2):
        wl = workloads.Claims(8, tmp_path, batch=TINY_BATCH)
        tally, metrics, tracer = harness.run_traced(wl, seconds=0)
        assert tally.failed == 0 and tally.wrong == []
        runs.append(metrics)
    assert set(runs[0]) == _benchmark_metrics("per_layer")
    counts = [name for name in runs[0] if not name.endswith(("_ms", "_pct"))]
    assert {name: runs[0][name] for name in counts} == {name: runs[1][name] for name in counts}
    assert runs[0]["systems.tail_sf_calls"] == 81
    assert runs[0]["bench.instances"] == 2


def test_tracing_restores_stochord():
    from stochord import cli, orders, systems

    before = (cli.main, orders.certify_hr, bench.certify_hr, systems.SystemSpec.sf,
              orders.Grid.__dict__["for_models"])
    inst = harness.tracing.Instrumentation(harness.tracing.Tracer())
    inst.install()
    assert cli.main is not before[0] and bench.certify_hr is orders.certify_hr
    inst.uninstall()
    after = (cli.main, orders.certify_hr, bench.certify_hr, systems.SystemSpec.sf,
             orders.Grid.__dict__["for_models"])
    assert after == before


# ---------------------------------------------------------------------------
# every check can fail


def _report(sid: str, seed: int = 0):
    scenario = bench.TheoremScenario(scenario_id=sid, count=2, seed=seed)
    return bench.run_scenario(scenario)


def test_claims_check_fails_on_corrupted_reports():
    report = _report("T3.1")
    assert workloads.check_claims_report(report, "T3.1", 2).status == "ok"
    failing = dataclasses.replace(report, passed=1)
    assert workloads.check_claims_report(failing, "T3.1", 2).status == "failed"
    curve = report.curve
    swapped = dataclasses.replace(report, curve=dataclasses.replace(
        curve, lhs=curve.rhs, rhs=curve.lhs))
    outcome = workloads.check_claims_report(swapped, "T3.1", 2)
    assert outcome.status == "wrong" and "hazard" in outcome.detail
    scaled = dataclasses.replace(report, curve=dataclasses.replace(
        curve, lhs=curve.lhs * (1 + 1e-6), rhs=curve.rhs * (1 + 1e-6)))
    outcome = workloads.check_claims_report(scaled, "T3.1", 2)
    assert outcome.status == "wrong" and "oracle" in outcome.detail


@pytest.fixture(scope="module")
def compare_output(tmp_path_factory):
    """example1 and example1-parallel, each in st and hr, with their outputs."""
    wl = workloads.Compare(0, tmp_path_factory.mktemp("compare"), generated=0)
    outputs = {}
    for op in wl.round(0):
        name, order = op.label.split()
        if name in ("example1", "example1-parallel") and order in ("st", "hr"):
            code, stdout = op.call()
            csv = (wl.out / "compare_curve.csv").read_bytes()
            outputs[name, order] = (code, stdout, csv)
    pairs = {p.name: p for p in wl.pairs}
    return pairs, outputs


def _check(compare_output, name, order, code=None, stdout=None, csv=None):
    pairs, outputs = compare_output
    pair = pairs[name]
    pair.digests.clear()
    base = outputs[name, order]
    return workloads.check_compare_output(
        pair, order, base[0] if code is None else code,
        base[1] if stdout is None else stdout, base[2] if csv is None else csv)


def _rewrite_csv(csv: bytes, edit) -> bytes:
    table = workloads.parse_csv(csv, "x,lhs,rhs,diff")
    columns = edit(*table.T)
    rows = [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    return ("\n".join(["x,lhs,rhs,diff"] + rows) + "\n").encode()


def test_compare_check_passes_and_catches_f1(compare_output):
    assert _check(compare_output, "example1", "st").status == "ok"
    assert _check(compare_output, "example1", "hr").status == "ok"
    outcome = _check(compare_output, "example1-parallel", "hr")
    assert outcome.status == "failed" and outcome.detail.startswith("F1")


def test_compare_check_fails_on_flipped_exit_code(compare_output):
    code = compare_output[1]["example1", "st"][0]
    outcome = _check(compare_output, "example1", "st", code=3 - code)
    assert outcome.status == "wrong" and "exit code" in outcome.detail


def test_compare_check_fails_on_swapped_columns(compare_output):
    csv = _rewrite_csv(compare_output[1]["example1", "st"][2],
                       lambda x, lhs, rhs, diff: (x, rhs, lhs, diff))
    assert _check(compare_output, "example1", "st", csv=csv).status == "wrong"


def test_compare_check_fails_on_values_off_the_oracle(compare_output):
    def nudge(x, lhs, rhs, diff):
        lhs = lhs * (1 + 1e-5)
        return x, lhs, rhs, rhs - lhs

    csv = _rewrite_csv(compare_output[1]["example1", "st"][2], nudge)
    outcome = _check(compare_output, "example1", "st", csv=csv)
    assert outcome.status == "wrong" and "oracle" in outcome.detail


def test_compare_check_fails_on_a_changed_rerun(compare_output):
    pairs, outputs = compare_output
    pair = pairs["example1"]
    code, stdout, csv = outputs["example1", "st"]
    pair.digests.clear()
    assert workloads.check_compare_output(pair, "st", code, stdout, csv).status == "ok"
    outcome = workloads.check_compare_output(pair, "st", code, stdout, csv + b"\n")
    assert outcome.status == "wrong" and "rerun" in outcome.detail


def test_compare_check_flags_f2(compare_output):
    pair = compare_output[0]["example1"]
    assert _check(compare_output, "example1", "hr").status == "ok"
    pair.verdicts["st"] = (False, -0.29)  # as if st had failed on the same pair
    try:
        outcome = _check(compare_output, "example1", "hr")
    finally:
        pair.verdicts["st"] = (True, 0.0)
    assert outcome.status == "failed" and outcome.detail.startswith("F2")


@pytest.fixture(scope="module")
def sample_output(tmp_path_factory):
    wl = workloads.SampleKS(0, tmp_path_factory.mktemp("sample"),
                            shapes=workloads.SAMPLE_SHAPES[2:3])
    op, = wl.round(0)
    code, stdout = op.call()
    return wl, op, code, stdout, (wl.out / "samples.csv").read_bytes()


def _sample_law(wl):
    family, structure, n = wl.shapes[0]
    return workloads.random_law(workloads._rng(wl.seed, 0, 0), family, structure, n)


def _sample_csv(values) -> bytes:
    rows = "".join(f"{k},{float(v)!r}\n" for k, v in enumerate(values, start=1))
    return ("index,value\n" + rows).encode()


def test_sample_check_passes_and_fails_on_perturbed_samples(sample_output):
    wl, _, code, stdout, csv = sample_output
    law = _sample_law(wl)
    assert workloads.check_sample_output(law, code, stdout, csv).status == "ok"
    values = workloads.parse_csv(csv, "index,value")[:, 1]
    outcome = workloads.check_sample_output(law, code, stdout,
                                            _sample_csv(values * 1.05))
    assert outcome.status == "wrong" and "KS distance" in outcome.detail
    outcome = workloads.check_sample_output(law, code, stdout,
                                            _sample_csv(values[::-1]))
    assert outcome.status == "wrong" and "ascending" in outcome.detail
    outcome = workloads.check_sample_output(law, code, stdout,
                                            _sample_csv(values[:-1]))
    assert outcome.status == "wrong" and "rows" in outcome.detail


def test_sample_check_fails_on_flipped_exit_code_and_printed_ks(sample_output):
    wl, _, code, stdout, csv = sample_output
    law = _sample_law(wl)
    assert workloads.check_sample_output(law, 3, stdout, csv).status == "failed"
    ks = workloads._fields(stdout)["ks"]
    off = stdout.replace(f"ks: {ks}", f"ks: {float(ks) + 1e-6!r}")
    outcome = workloads.check_sample_output(law, code, off, csv)
    assert outcome.status == "wrong" and "printed ks" in outcome.detail


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "claims",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
