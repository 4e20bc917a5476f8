"""Command-line front end.

Four subcommands: ``compare`` certifies an order between two configured
systems and exports the comparison curve, ``verify-theorem`` runs one
bench scenario, ``majorize`` reports vector/matrix majorization
relations, and ``sample`` draws lifetimes and reports the KS distance
against the analytic law.

Every invocation exits 0 (success / order holds), 2 (input error), or
3 (a certified order or scenario failed). Every CSV field is
byte-identical to ``repr(float(v))``, the shortest decimal that reads
back as ``v``, so identical configs and seeds give byte-identical
outputs. Rows are formatted and written in chunks of
``csvformat.CHUNK_ROWS`` (8192), so memory stays bounded for any
``--n``, and each file is written atomically (temp file plus rename).
The ``--seed`` flag falls back to the STOCHORD_SEED environment
variable, then to 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import cache
from pathlib import Path

import numpy as np

from .bench import TheoremScenario, run_scenario
from .csvformat import csv_chunks
from .errors import ConfigError, StochordError
from .majorization import (
    as_param_matrix,
    chain_majorize_solve_2x2,
    implication_suite,
    pn_membership,
)
from .models import GompertzMakeham, WeibullG
from .montecarlo import ks_distance, sample, sample_system
from .orders import _DEFAULT_COUNT, _MIN_GRID, ORDERS, Curve, Grid, certify
from .systems import STRUCTURES, SystemSpec

_FAMILY_ALIASES = {
    "weibull-g": "weibull-g",
    "wg": "weibull-g",
    "gompertz-makeham": "gompertz-makeham",
    "gm": "gompertz-makeham",
}
_FAMILY_PARAMS = {
    "weibull-g": ("alpha", "beta", "gamma"),
    "gompertz-makeham": ("alpha", "beta", "lambda"),
}


def _check(grid: int | None = None, x_max: float | None = None,
           count: int | None = None, count_flag: str = "--count") -> None:
    """The numeric input checks; each command runs them before its work."""
    if grid is not None and grid < _MIN_GRID:
        raise ConfigError(f"--grid must be at least {_MIN_GRID}, got {grid}")
    if x_max is not None and not x_max > 0.0:
        raise ConfigError(f"--xmax must be positive, got {x_max}")
    if count is not None and count < 1:
        raise ConfigError(f"{count_flag} must be at least 1, got {count}")


def _fmt(value: float) -> str:
    return repr(float(value))


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _write_csv(path: Path, header: str, columns, index: bool = False) -> None:
    """Write a CSV of float columns atomically, streamed in row chunks.

    The file is written to a temp file beside ``path`` and renamed over it,
    so readers never see a partial file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(f"{header}\n".encode("ascii"))
            for chunk in csv_chunks(columns, index=index):
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_curve(path: Path, curve: Curve) -> None:
    _write_csv(path, "x,lhs,rhs,diff", [curve.x, curve.lhs, curve.rhs, curve.diff])


# ---------------------------------------------------------------------------
# config parsing


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}: {err.msg}")


def _expect_mapping(obj, path: str, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: {where}: expected an object")
    return obj


def _reject_unknown(obj: dict, allowed: tuple[str, ...], path: str, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: {where}: unknown key {unknown[0]!r} "
                          f"(allowed: {', '.join(allowed)})")


def _positive_number(obj: dict, key: str, path: str, where: str) -> float:
    if key not in obj:
        raise ConfigError(f"{path}: {where}: missing required key {key!r}")
    value = obj[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: {where}.{key}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = np.inf
    if not number > 0.0 or not np.isfinite(number):
        raise ConfigError(f"{path}: {where}.{key}: must be positive and finite")
    return number


def _model(family: str, values) -> WeibullG | GompertzMakeham:
    """The model of ``family`` with parameter ``values`` in _FAMILY_PARAMS order."""
    return (WeibullG if family == "weibull-g" else GompertzMakeham)(*values)


def _component_from(obj, family: str, path: str, where: str):
    comp = _expect_mapping(obj, path, where)
    params = _FAMILY_PARAMS[family]
    _reject_unknown(comp, params, path, where)
    return _model(family, [_positive_number(comp, key, path, where) for key in params])


def _system_from(obj, path: str, where: str) -> SystemSpec:
    doc = _expect_mapping(obj, path, where)
    _reject_unknown(doc, ("family", "structure", "components"), path, where)
    for key in ("family", "structure", "components"):
        if key not in doc:
            raise ConfigError(f"{path}: {where}: missing required key {key!r}")
    family = _FAMILY_ALIASES.get(doc["family"])
    if family is None:
        raise ConfigError(f"{path}: {where}.family: must be one of "
                          f"{sorted(set(_FAMILY_ALIASES))}")
    if doc["structure"] not in STRUCTURES:
        raise ConfigError(f"{path}: {where}.structure: must be one of {STRUCTURES}")
    comps = doc["components"]
    if not isinstance(comps, list) or not comps:
        raise ConfigError(f"{path}: {where}.components: expected a non-empty list")
    built = tuple(
        _component_from(comp, family, path, f"{where}.components[{k}]")
        for k, comp in enumerate(comps)
    )
    return SystemSpec(built, doc["structure"])


def _parse_compare_config(path: str, order_flag: str | None):
    doc = _expect_mapping(_load_json(path), path, "top level")
    _reject_unknown(doc, ("order", "first", "second"), path, "top level")
    for key in ("first", "second"):
        if key not in doc:
            raise ConfigError(f"{path}: top level: missing required key {key!r}")
    order = order_flag or doc.get("order")
    if order not in ORDERS:
        raise ConfigError(f"{path}: order must be one of {ORDERS} "
                          "(set it in the config or pass --order)")
    first = _system_from(doc["first"], path, "first")
    second = _system_from(doc["second"], path, "second")
    return order, first, second


# ---------------------------------------------------------------------------
# commands


def cmd_compare(args: argparse.Namespace) -> int:
    _check(grid=args.grid, x_max=args.xmax)
    order, first, second = _parse_compare_config(args.config, args.order)
    grid = Grid.for_models(first, second, count=args.grid, x_max=args.xmax)
    verdict = certify(order, first, second, grid=grid)
    out = Path(args.out or ".") / "compare_curve.csv"
    _write_curve(out, verdict.curve)
    print("command: compare")
    print(f"order: {order}")
    print(f"first: {first.label}")
    print(f"second: {second.label}")
    print(f"holds: {_bool(verdict.holds)}")
    print(f"margin: {_fmt(verdict.margin)}")
    print(f"tolerance: {_fmt(verdict.tolerance)}")
    print(f"witness_x: {'none' if verdict.witness_x is None else _fmt(verdict.witness_x)}")
    print(f"grid: {verdict.grid_count}")
    print(f"method: {verdict.method}")
    print(f"truncated: {_bool(verdict.truncated)}")
    print(f"curve: {out}")
    return 0 if verdict.holds else 3


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    _check(grid=args.grid, count=args.count)
    sid = args.theorem
    scenario = TheoremScenario(scenario_id=sid, count=args.count, seed=seed,
                               grid_count=args.grid)
    report = run_scenario(scenario)
    for line in report.summary_lines():
        print(line)
    if args.out is not None and report.curve is not None:
        out = Path(args.out) / f"theorem_{sid}_curve.csv"
        _write_curve(out, report.curve)
        print(f"curve: {out}")
    return 0 if report.all_passed else 3


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        vec = np.asarray([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated numbers, got {text!r}")
    if vec.size < 1:
        raise ConfigError(f"{flag}: expected at least one number")
    return vec


def _load_matrix(path: str) -> np.ndarray:
    doc = _load_json(path)
    try:
        return as_param_matrix(doc)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}")


def cmd_majorize(args: argparse.Namespace) -> int:
    vector_mode = args.a is not None or args.b is not None
    matrix_mode = args.matrix_a is not None or args.matrix_b is not None
    if vector_mode == matrix_mode:
        raise ConfigError("pass either --a and --b (vectors) or --matrix-a and --matrix-b")
    print("command: majorize")
    if vector_mode:
        if args.a is None or args.b is None:
            raise ConfigError("both --a and --b are required")
        a = _parse_vector(args.a, "--a")
        b = _parse_vector(args.b, "--b")
        if a.size != b.size:
            raise ConfigError("--a and --b must have equal length")
        summary = implication_suite(a, b)
        print("mode: vectors")
        print(f"plain: {_bool(summary.plain)}")
        print(f"weak_sub: {_bool(summary.weak_sub)}")
        print(f"weak_super: {_bool(summary.weak_super)}")
        return 0
    if args.matrix_a is None or args.matrix_b is None:
        raise ConfigError("both --matrix-a and --matrix-b are required")
    mat_a = _load_matrix(args.matrix_a)
    mat_b = _load_matrix(args.matrix_b)
    print("mode: matrices")
    print(f"pn_a: {_bool(pn_membership(mat_a))}")
    print(f"pn_b: {_bool(pn_membership(mat_b))}")
    if mat_a.shape == (2, 2) and mat_b.shape == (2, 2):
        lam = chain_majorize_solve_2x2(mat_a, mat_b)
        print(f"chain_2x2_lambda: {'none' if lam is None else _fmt(lam)}")
    else:
        print("chain_2x2_lambda: not-applicable")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    count = args.n
    _check(count=count, count_flag="--n")
    if count is None:
        raise ConfigError("sample needs --n")
    out = Path(args.out or ".") / "samples.csv"
    if args.config is not None:
        system = _system_from(_load_json(args.config), args.config, "top level")
        batch = sample_system(system, count, seed)
        ks = ks_distance(batch, system)
        label = system.label
    else:
        family = _FAMILY_ALIASES.get(args.family or "")
        if family is None:
            raise ConfigError("--family must be weibull-g (wg) or gompertz-makeham (gm), "
                              "or pass --config")
        values = [getattr(args, "lam" if key == "lambda" else key)
                  for key in _FAMILY_PARAMS[family]]
        for key, value in zip(_FAMILY_PARAMS[family], values):
            if value is None:
                raise ConfigError(f"--{key} is required for family {family}")
        model = _model(family, values)
        batch = sample(model, count, seed)
        ks = ks_distance(batch, model)
        label = model.label
    _write_csv(out, "index,value", [batch.values], index=True)
    print("command: sample")
    print(f"model: {label}")
    print(f"count: {count}")
    print(f"seed: {seed}")
    print(f"ks: {_fmt(ks)}")
    print(f"samples: {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as built."""
    parser = argparse.ArgumentParser(
        prog="stochord",
        description="Certify stochastic orderings between heterogeneous component systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="certify an order between two configured systems")
    compare.add_argument("--config", required=True, help="JSON comparison config")
    compare.add_argument("--order", choices=ORDERS, help="override the configured order")
    compare.add_argument("--grid", type=int, default=_DEFAULT_COUNT, help="grid point count")
    compare.add_argument("--xmax", type=float, help="override the grid upper end")
    compare.add_argument("--out", help="output directory (default: current)")
    compare.set_defaults(run=cmd_compare)

    verify = sub.add_parser("verify-theorem", help="run one bench scenario")
    verify.add_argument("theorem", help="scenario id such as T3.1 or T4.5")
    verify.add_argument("--count", type=int, default=TheoremScenario.count, help="instances to run")
    verify.add_argument("--seed", type=int, help="batch seed (default STOCHORD_SEED or 0)")
    verify.add_argument("--grid", type=int, default=_DEFAULT_COUNT, help="grid point count")
    verify.add_argument("--out", help="directory for the scenario curve CSV")
    verify.set_defaults(run=cmd_verify_theorem)

    majorize = sub.add_parser("majorize", help="report majorization relations")
    majorize.add_argument("--a", help="first vector, comma separated")
    majorize.add_argument("--b", help="second vector, comma separated")
    majorize.add_argument("--matrix-a", dest="matrix_a", help="first 2 x n matrix (JSON file)")
    majorize.add_argument("--matrix-b", dest="matrix_b", help="second 2 x n matrix (JSON file)")
    majorize.set_defaults(run=cmd_majorize)

    smp = sub.add_parser("sample", help="draw lifetimes and report the KS distance")
    smp.add_argument("--family", help="weibull-g (wg) or gompertz-makeham (gm)")
    smp.add_argument("--alpha", type=float)
    smp.add_argument("--beta", type=float)
    smp.add_argument("--gamma", type=float)
    smp.add_argument("--lambda", type=float, dest="lam")
    smp.add_argument("--config", help="sample a configured system instead")
    smp.add_argument("--n", type=int, help="number of draws")
    smp.add_argument("--seed", type=int, help="draw seed (default STOCHORD_SEED or 0)")
    smp.add_argument("--out", help="output directory (default: current)")
    smp.set_defaults(run=cmd_sample)
    return parser


def _resolve_seed(flag_value: int | None) -> int:
    """--seed, else STOCHORD_SEED, else 0; either source must be a non-negative integer."""
    source, seed = "--seed", flag_value
    if seed is None:
        source, env = "STOCHORD_SEED", os.environ.get("STOCHORD_SEED")
        if env is None:
            return 0
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"STOCHORD_SEED must be an integer, got {env!r}")
    if seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 0 for --help, 2 for usage errors; keep the contract total
        return int(err.code or 0) if err.code in (0, 2) else 2
    try:
        return args.run(args)
    except (StochordError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
