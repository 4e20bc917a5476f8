"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS/FAIL line (visible under ``pytest -s`` or on failure).

Every tolerance and time budget is pinned here as a named constant so a
regression in either accuracy or speed fails loudly.
"""

import time

import numpy as np

from stochord import (
    SCENARIO_IDS,
    GompertzMakeham,
    Grid,
    SystemSpec,
    TTransform,
    TheoremScenario,
    WeibullG,
    apply_t_transform,
    chain_majorize_solve_2x2,
    doubly_stochastic_check,
    generate_hypothesis_pair,
    h1,
    h2,
    ks_distance,
    lambda_aggregate_sf,
    majorize_check,
    pn_membership,
    reversed_hazard_weight,
    run_scenario,
    sample,
    sample_system,
    schur_condition_check,
)

SOURCE_MATRIX = np.array([[4.8, 3.4], [2.5, 1.6]])
STARRED_MATRIX = np.array([[4.03, 4.17], [2.005, 2.095]])
MIX = 0.45
WG_BETA = 3.0
GM_LAM = 1.0

MATRIX_ABS_TOL = 1e-12
LAMBDA_TOL = 1e-9
HAZARD_GAP_FLOOR = -1e-10
SWEEP_ABS_TOL = 1e-12
BENCH_COUNT = 200
AGG_REL_TOL = 1e-15
KS_MAX = 0.01
KS_DRAWS = 100_000
ROW_SUM_REL = 1e-12

TRANSFORM_BUDGET_S = 1e-3
CURVE_BUDGET_S = 0.1
BENCH_BUDGET_S = 60.0
KS_BUDGET_S = 30.0


def _report(name: str, ok: bool, elapsed: float | None = None, detail: str = ""):
    stamp = "" if elapsed is None else f" ({elapsed * 1e3:.2f} ms)"
    suffix = f" -- {detail}" if detail and not ok else ""
    print(f"{name}: {'PASS' if ok else 'FAIL'}{stamp}{suffix}")
    assert ok, f"{name}{suffix}"


def _wg_series(matrix):
    return SystemSpec(tuple(
        WeibullG(alpha=float(matrix[0, k]), beta=WG_BETA, gamma=float(matrix[1, k]))
        for k in range(matrix.shape[1])), "series")


def _gm_series(matrix, lam):
    return SystemSpec(tuple(
        GompertzMakeham(alpha=float(matrix[0, k]), beta=float(matrix[1, k]), lam=lam)
        for k in range(matrix.shape[1])), "series")


def test_c1_transform_algebra_on_reference_matrix():
    def work():
        starred = apply_t_transform(SOURCE_MATRIX, TTransform(lam=MIX, i=0, j=1))
        lam = chain_majorize_solve_2x2(starred, SOURCE_MATRIX)
        member = pn_membership(starred)
        return starred, lam, member

    work()  # warm up
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        starred, lam, member = work()
        best = min(best, time.perf_counter() - t0)

    ok = bool(np.max(np.abs(starred - STARRED_MATRIX)) <= MATRIX_ABS_TOL)
    ok &= lam is not None and abs(lam - MIX) <= LAMBDA_TOL
    ok &= member
    ok &= best < TRANSFORM_BUDGET_S
    _report("C1 transform-algebra", ok, best,
            f"lam={lam!r} member={member} best={best:.2e}s")


def test_c2_series_hazard_dominance_shared_shape():
    t0 = time.perf_counter()
    source = _wg_series(SOURCE_MATRIX)
    transformed = _wg_series(STARRED_MATRIX)
    grid = Grid.for_models(source, transformed, count=2048)
    gap = np.asarray(source.hazard(grid.points)) - np.asarray(transformed.hazard(grid.points))
    elapsed = time.perf_counter() - t0
    worst = float(gap.min())
    ok = worst >= HAZARD_GAP_FLOOR and elapsed < CURVE_BUDGET_S
    _report("C2 hazard-dominance-weibull-g", ok, elapsed,
            f"worst gap {worst:.3e}, {elapsed:.3f}s")


def test_c3_series_hazard_dominance_rate_invariant():
    t0 = time.perf_counter()
    source = _gm_series(SOURCE_MATRIX, GM_LAM)
    transformed = _gm_series(STARRED_MATRIX, GM_LAM)
    grid = Grid.for_models(source, transformed, count=2048)
    base_gap = np.asarray(source.hazard(grid.points)) - \
        np.asarray(transformed.hazard(grid.points))
    sweep_dev = 0.0
    for lam in (0.1, 1.0, 10.0):
        gap = np.asarray(_gm_series(SOURCE_MATRIX, lam).hazard(grid.points)) - \
            np.asarray(_gm_series(STARRED_MATRIX, lam).hazard(grid.points))
        sweep_dev = max(sweep_dev, float(np.abs(gap - base_gap).max()))
    elapsed = time.perf_counter() - t0
    worst = float(base_gap.min())
    ok = worst >= HAZARD_GAP_FLOOR and sweep_dev <= SWEEP_ABS_TOL and elapsed < CURVE_BUDGET_S
    _report("C3 hazard-dominance-gompertz-makeham", ok, elapsed,
            f"worst gap {worst:.3e}, sweep dev {sweep_dev:.3e}, {elapsed:.3f}s")


def test_c4_full_scenario_bench():
    t0 = time.perf_counter()
    bad = []
    for sid in SCENARIO_IDS:
        report = run_scenario(TheoremScenario(
            scenario_id=sid, count=BENCH_COUNT, seed=0, grid_count=2048))
        if not report.all_passed:
            bad.append((sid, report.violation_count, report.worst_margin))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < BENCH_BUDGET_S
    _report("C4 scenario-bench-10x200", ok, elapsed,
            f"failures {bad}, {elapsed:.1f}s")


def test_c5_sign_lemmas_and_schur_toolkit():
    xs = np.linspace(50.0 / 10_000, 50.0, 10_000)
    ok = bool(np.all(h1(xs) <= 0.0)) and bool(np.all(h2(xs) >= 0.0))

    for z in (0.1, 1.0, 10.0):
        alphas = np.linspace(20.0 / 4000, 20.0, 4000)
        w = reversed_hazard_weight(alphas, z)
        ok &= bool(np.all(np.diff(w) <= 1e-12))
        ok &= bool(np.all(np.diff(w, 2) >= -1e-12))

    pts = np.array([[0.7, 1.3, 2.9], [0.5, 0.5, 4.0], [1.0, 2.0, 3.0]])
    convex = schur_condition_check(lambda a: float(np.sum(a * a)), pts)
    linear = schur_condition_check(lambda a: float(np.sum(a)), pts)
    ok &= convex.classification == "convex-consistent"
    ok &= linear.max_abs_margin <= linear.slack
    _report("C5 sign-lemmas-and-schur", ok,
            detail=f"convex={convex.classification} linear margin {linear.max_abs_margin:.2e}")


def test_c6_ks_distance_every_model_and_system():
    t0 = time.perf_counter()
    models = [
        WeibullG(4.8, WG_BETA, 2.5),
        WeibullG(3.4, WG_BETA, 1.6),
        WeibullG(4.03, WG_BETA, 2.005),
        WeibullG(4.17, WG_BETA, 2.095),
        WeibullG(1.0, 1.0, 1.0),
        GompertzMakeham(4.8, 2.5, GM_LAM),
        GompertzMakeham(3.4, 1.6, GM_LAM),
        GompertzMakeham(1.0, 1.0, 1.0),
    ]
    worst = 0.0
    failures = []
    for k, model in enumerate(models):
        ks = ks_distance(sample(model, KS_DRAWS, seed=100 + k), model)
        worst = max(worst, ks)
        if ks >= KS_MAX:
            failures.append((model.label, ks))
    wg_components = tuple(models[:2])
    gm_components = tuple(models[5:7])
    for k, (components, structure) in enumerate((
            (wg_components, "series"), (wg_components, "parallel"),
            (gm_components, "series"), (gm_components, "parallel"))):
        system = SystemSpec(components, structure)
        ks = ks_distance(sample_system(system, KS_DRAWS, seed=200 + k), system)
        worst = max(worst, ks)
        if ks >= KS_MAX:
            failures.append((system.label, ks))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < KS_BUDGET_S
    _report("C6 ks-every-model-and-system", ok, elapsed,
            f"worst KS {worst:.4f}, failures {failures}, {elapsed:.1f}s")


def test_c7_majorization_battery():
    bad = 0
    for seed in range(500):
        pair = generate_hypothesis_pair(4, "plain", seed=seed)
        if not (majorize_check(pair.a, pair.b, "weak_sub")
                and majorize_check(pair.a, pair.b, "weak_super")):
            bad += 1
            continue
        total_a, total_b = float(np.sum(pair.a)), float(np.sum(pair.b))
        if abs(total_a - total_b) > ROW_SUM_REL * max(1.0, abs(total_b)):
            bad += 1
            continue
        product = np.eye(4)
        for t in pair.transforms:
            product = product @ t.matrix(4)
        if not doubly_stochastic_check(product):
            bad += 1

    rng = np.random.default_rng(0)
    solve_bad = 0
    for _ in range(100):
        b = rng.uniform(0.5, 5.0, size=(2, 2))
        lam = float(rng.uniform(0.0, 1.0))
        a = apply_t_transform(b, TTransform(lam=lam, i=0, j=1))
        solved = chain_majorize_solve_2x2(a, b)
        if solved is None or abs(solved - lam) > LAMBDA_TOL:
            solve_bad += 1

    ok = bad == 0 and solve_bad == 0
    _report("C7 majorization-battery", ok,
            detail=f"pair failures {bad}, solve failures {solve_bad}")


def test_c8_rate_sum_aggregation():
    rng = np.random.default_rng(0)
    snap = 2.0**20
    worst_rel = 0.0
    order_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        alpha = float(rng.uniform(0.5, 5.0))
        beta = float(rng.uniform(0.5, 3.0))
        lam = np.maximum(np.round(rng.uniform(0.1, 10.0, size=n) * snap) / snap, 1.0 / snap)

        system = SystemSpec(tuple(
            GompertzMakeham(alpha=alpha, beta=beta, lam=float(v)) for v in lam), "series")
        grid = Grid.for_models(system, count=512)
        xs = grid.points
        base = np.asarray(lambda_aggregate_sf(lam, alpha, beta, xs))

        # sum-preserving redistribution: move a dyadic amount, then shuffle
        moved = lam.copy()
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        delta = min(float(np.round(rng.uniform(0.0, 0.5) * lam[i] * snap) / snap),
                    float(lam[i]) - 1.0 / snap)
        moved[i] -= delta
        moved[j] += delta
        for other in (moved, rng.permutation(moved)):
            redone = np.asarray(lambda_aggregate_sf(other, alpha, beta, xs))
            with np.errstate(invalid="ignore"):
                rel = np.abs(redone - base) / np.where(base > 0.0, base, 1.0)
            worst_rel = max(worst_rel, float(rel.max()))

        # a strictly larger rate sum must be stochastically smaller pointwise
        lam_high = lam * (1.0 + float(rng.uniform(0.05, 0.4)))
        high = np.asarray(lambda_aggregate_sf(lam_high, alpha, beta, xs))
        order_ok &= bool(np.all(base - high >= 0.0))
        system_high = SystemSpec(tuple(
            GompertzMakeham(alpha=alpha, beta=beta, lam=float(v)) for v in lam_high),
            "series")
        order_ok &= bool(np.all(base - np.asarray(system_high.sf(xs)) >= -1e-15))

    ok = worst_rel <= AGG_REL_TOL and order_ok
    _report("C8 rate-sum-aggregation", ok,
            detail=f"worst rel dev {worst_rel:.2e}, order ok {order_ok}")
