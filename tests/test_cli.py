"""Command-line tests driven in process through main(argv): exit codes,
stdout fields, CSV exports, and config error anchoring.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from stochord.cli import _build_parser, main

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EXAMPLE1 = str(_CONFIGS / "example1.json")
EXAMPLE2 = str(_CONFIGS / "example2.json")
EX1 = str(_CONFIGS / "ex1.json")
EX1_STAR = str(_CONFIGS / "ex1_star.json")
SYSTEM = str(_CONFIGS / "system.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompare:
    def test_reference_config_holds(self, capsys, tmp_path):
        code, out, err = run(capsys, "compare", "--config", EXAMPLE1,
                             "--out", str(tmp_path))
        assert code == 0 and err == ""
        assert "order: hr" in out
        assert "holds: true" in out
        assert "witness_x: none" in out
        assert "method: hazard" in out
        csv = (tmp_path / "compare_curve.csv").read_text().splitlines()
        assert csv[0] == "x,lhs,rhs,diff"
        diffs = np.array([float(line.split(",")[3]) for line in csv[1:]])
        assert diffs.size == 2048
        assert np.all(diffs >= -1e-10)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        run(capsys, "compare", "--config", EXAMPLE1, "--out", str(first_dir))
        run(capsys, "compare", "--config", EXAMPLE1, "--out", str(second_dir))
        assert (first_dir / "compare_curve.csv").read_bytes() == \
            (second_dir / "compare_curve.csv").read_bytes()

    def test_order_flag_overrides_config(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compare", "--config", EXAMPLE1,
                           "--order", "st", "--out", str(tmp_path))
        assert code == 0
        assert "order: st" in out and "method: sf-pointwise" in out

    def test_failing_order_exits_3_with_witness(self, capsys, tmp_path):
        base = json.load(open(EXAMPLE1))
        swapped = {"order": "hr", "first": base["second"], "second": base["first"]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(swapped))
        code, out, _ = run(capsys, "compare", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == 3
        assert "holds: false" in out
        assert "witness_x: none" not in out

    def test_xmax_pins_grid_end(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compare", "--config", EXAMPLE1,
                           "--xmax", "1.5", "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "compare_curve.csv").read_text().splitlines()[1:]
        xs = np.array([float(r.split(",")[0]) for r in rows])
        assert xs[-1] == 1.5
        assert np.all(np.diff(xs) > 0)

    def test_hr_curve_past_the_support_warns_nothing(self, capsys, tmp_path):
        # both parallel hazards are inf past the support: the exported diff
        # is inf - inf there, which must not raise under error::RuntimeWarning
        doc = json.load(open(EXAMPLE1))
        doc["first"]["structure"] = doc["second"]["structure"] = "parallel"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compare", "--config", str(cfg), "--order", "hr",
                             "--xmax", "50", "--out", str(tmp_path))
        assert code == 3 and err == ""
        assert "truncated: true" in out
        rows = (tmp_path / "compare_curve.csv").read_text().splitlines()[1:]
        assert len(rows) == 2048

    def test_parallel_rh_where_the_system_cdf_underflows(self, capsys, tmp_path):
        # on a grid ending at 1e-56 both parallel cdfs underflow to 0, but no
        # component cdf does, so every reversed hazard is defined and judged
        doc = json.load(open(EXAMPLE1))
        doc["first"]["structure"] = doc["second"]["structure"] = "parallel"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compare", "--config", str(cfg), "--order", "rh",
                             "--xmax", "1e-56", "--out", str(tmp_path))
        lines = out.splitlines()
        assert code == 0 and err == ""
        assert "grid: 2048" in lines and "truncated: false" in lines

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "compare", "--config", "nowhere.json")
        assert code == 2 and "nowhere.json: no such file" in err

    def test_malformed_json_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": "hr",\n  "first": }')
        code, _, err = run(capsys, "compare", "--config", str(bad))
        assert code == 2
        assert f"{bad}:2:" in err

    def test_unknown_component_key_is_anchored(self, capsys, tmp_path):
        doc = json.load(open(EXAMPLE1))
        doc["first"]["components"][0]["shape"] = 1.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert "first.components[0]" in err and "'shape'" in err

    def test_missing_order_everywhere(self, capsys, tmp_path):
        doc = json.load(open(EXAMPLE1))
        del doc["order"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2 and "--order" in err

    def test_integer_beyond_float_range_exits_2(self, capsys, tmp_path):
        doc = json.load(open(EXAMPLE1))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc).replace('"alpha": 4.8', '"alpha": 1' + "0" * 400, 1))
        code, out, err = run(capsys, "compare", "--config", str(cfg), "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}: first.components[0].alpha: must be positive and finite\n"

    def test_grid_too_small(self, capsys):
        code, _, err = run(capsys, "compare", "--config", EXAMPLE1, "--grid", "8")
        assert code == 2 and "--grid" in err

    # (exit code, holds, grid, truncated) of configs/example1.json as given and
    # made parallel, near the lower edge of float range and far into the tail;
    # evaluations that move only the last bits keep every row
    @pytest.mark.parametrize("structure, xmax, order, code, verdict", [
        ("series", "1e-107", "st", 0, ("true", 2048, "false")),
        ("series", "1e-107", "hr", 0, ("true", 2048, "false")),
        ("series", "1e-107", "rh", 3, ("false", 610, "true")),
        ("series", "1e-107", "lr", 0, ("true", 2047, "false")),
        ("series", "1e-56", "st", 0, ("true", 2048, "false")),
        ("series", "1e-56", "hr", 0, ("true", 2048, "false")),
        ("series", "1e-56", "rh", 0, ("true", 2048, "false")),
        ("series", "1e-56", "lr", 0, ("true", 2047, "false")),
        ("series", "50", "st", 0, ("true", 2048, "false")),
        ("series", "50", "hr", 0, ("true", 2048, "false")),
        ("series", "50", "rh", 3, ("false", 2048, "false")),
        ("series", "50", "lr", 3, ("false", 1109, "true")),
        ("parallel", "1e-107", "st", 0, ("true", 2048, "false")),
        ("parallel", "1e-107", "hr", 0, ("true", 2048, "false")),
        ("parallel", "1e-107", "rh", 3, ("false", 550, "true")),
        # no grid point has a finite lr slack
        ("parallel", "1e-107", "lr", 2, None),
        ("parallel", "1e-56", "st", 0, ("true", 2048, "false")),
        ("parallel", "1e-56", "hr", 0, ("true", 2048, "false")),
        ("parallel", "1e-56", "rh", 0, ("true", 2048, "false")),
        ("parallel", "1e-56", "lr", 0, ("true", 2047, "false")),
        ("parallel", "50", "st", 3, ("false", 2048, "false")),
        ("parallel", "50", "hr", 3, ("false", 1166, "true")),
        ("parallel", "50", "rh", 3, ("false", 2048, "false")),
        ("parallel", "50", "lr", 3, ("false", 1165, "true")),
    ])
    def test_verdict_table(self, capsys, tmp_path, structure, xmax, order, code, verdict):
        doc = json.load(open(EXAMPLE1))
        doc["first"]["structure"] = doc["second"]["structure"] = structure
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        got, out, _ = run(capsys, "compare", "--config", str(cfg), "--order", order,
                          "--xmax", xmax, "--out", str(tmp_path))
        assert got == code
        if verdict is not None:
            holds, grid, truncated = verdict
            lines = out.splitlines()
            assert f"holds: {holds}" in lines and f"grid: {grid}" in lines
            assert f"truncated: {truncated}" in lines


class TestInputChecks:
    # the numeric checks run before the command does anything
    @pytest.mark.parametrize("argv, message", [
        (("compare", "--config", EXAMPLE1, "--grid", "8"), "--grid must be at least 16, got 8"),
        (("compare", "--config", EXAMPLE1, "--xmax", "0"), "--xmax must be positive, got 0.0"),
        (("compare", "--config", EXAMPLE1, "--xmax", "-1"), "--xmax must be positive, got -1.0"),
        (("verify-theorem", "T3.1", "--grid", "8"), "--grid must be at least 16, got 8"),
        (("verify-theorem", "T3.1", "--count", "0"), "--count must be at least 1, got 0"),
        (("sample", "--family", "gm", "--alpha", "1", "--beta", "1", "--lambda", "1",
          "--n", "0"), "--n must be at least 1, got 0"),
    ])
    def test_exit_2_with_the_exact_message(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []


class TestVerifyTheorem:
    def test_small_batch_passes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify-theorem", "T3.1", "--count", "3",
                           "--seed", "7", "--out", str(tmp_path))
        assert code == 0
        assert out.splitlines()[0] == "T3.1: 3/3 instances passed"
        assert "seed 7" in out
        curve = tmp_path / "theorem_T3.1_curve.csv"
        assert curve.exists()
        assert curve.read_text().splitlines()[0] == "x,lhs,rhs,diff"

    def test_no_out_flag_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "verify-theorem", "T4.4", "--count", "2")
        assert code == 0
        assert "curve:" not in out
        assert list(tmp_path.iterdir()) == []

    def test_unknown_id_lists_known_ones(self, capsys):
        code, _, err = run(capsys, "verify-theorem", "T9.9", "--count", "1")
        assert code == 2
        assert "unknown scenario id" in err and "T4.5" in err


class TestMajorize:
    def test_vector_mode(self, capsys):
        code, out, _ = run(capsys, "majorize", "--a", "2,2,2", "--b", "1,2,3")
        assert code == 0
        assert "mode: vectors" in out
        assert "plain: true" in out
        assert "weak_sub: true" in out
        assert "weak_super: true" in out

    def test_matrix_mode_reference_pair(self, capsys):
        code, out, _ = run(capsys, "majorize", "--matrix-a", EX1_STAR,
                           "--matrix-b", EX1)
        assert code == 0
        assert "mode: matrices" in out
        assert "pn_a: true" in out and "pn_b: true" in out
        lam = float(out.split("chain_2x2_lambda: ")[1].split()[0])
        assert abs(lam - 0.45) <= 1e-9

    def test_matrix_mode_wider_matrices_skip_chain_solve(self, capsys, tmp_path):
        wide = tmp_path / "wide.json"
        wide.write_text("[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]")
        code, out, _ = run(capsys, "majorize", "--matrix-a", str(wide),
                           "--matrix-b", str(wide))
        assert code == 0
        assert "chain_2x2_lambda: not-applicable" in out

    def test_invalid_matrix_content(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[[1.0, -2.0], [3.0, 4.0]]")
        code, _, err = run(capsys, "majorize", "--matrix-a", str(bad),
                           "--matrix-b", EX1)
        assert code == 2 and str(bad) in err

    @pytest.mark.parametrize("argv", [
        ("majorize",),
        ("majorize", "--a", "1,2"),
        ("majorize", "--a", "1,2", "--b", "1,2,3"),
        ("majorize", "--a", "1,2", "--b", "1,x"),
        ("majorize", "--a", "1,2", "--b", "1,2", "--matrix-a", EX1),
    ])
    def test_mode_and_input_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:")


class TestSample:
    def test_inline_model_draws(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sample", "--family", "gm", "--alpha", "1",
                           "--beta", "1", "--lambda", "1", "--n", "500",
                           "--seed", "4", "--out", str(tmp_path))
        assert code == 0
        assert "ks: " in out and "seed: 4" in out
        rows = (tmp_path / "samples.csv").read_text().splitlines()
        assert rows[0] == "index,value" and len(rows) == 501
        assert rows[1].startswith("1,")

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        for sub in ("a", "b"):
            run(capsys, "sample", "--family", "wg", "--alpha", "1.5", "--beta", "2",
                "--gamma", "0.8", "--n", "200", "--seed", "3",
                "--out", str(tmp_path / sub))
        assert (tmp_path / "a" / "samples.csv").read_bytes() == \
            (tmp_path / "b" / "samples.csv").read_bytes()

    def test_system_config_draws(self, capsys, tmp_path):
        cfg = tmp_path / "system.json"
        cfg.write_text(json.dumps({
            "family": "wg", "structure": "parallel",
            "components": [{"alpha": 4.8, "beta": 3.0, "gamma": 2.5},
                           {"alpha": 3.4, "beta": 3.0, "gamma": 1.6}],
        }))
        code, out, _ = run(capsys, "sample", "--config", str(cfg), "--n", "1000",
                           "--seed", "1", "--out", str(tmp_path))
        assert code == 0
        assert "model: parallel[" in out
        ks = float(out.split("ks: ")[1].split()[0])
        assert ks < 0.05

    def test_integer_beyond_float_range_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "system.json"
        cfg.write_text(open(SYSTEM).read().replace('"alpha": 4.8', '"alpha": 1' + "0" * 400, 1))
        code, out, err = run(capsys, "sample", "--config", str(cfg), "--n", "10",
                             "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}: top level.components[0].alpha: must be positive and finite\n"

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "sample", "--family", "wg", "--alpha", "1",
                           "--beta", "2", "--n", "10")
        assert code == 2 and "--gamma is required" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "sample", "--family", "weird", "--n", "10")
        assert code == 2 and "--family" in err

    def test_count_required(self, capsys):
        code, _, err = run(capsys, "sample", "--family", "gm", "--alpha", "1",
                           "--beta", "1", "--lambda", "1")
        assert code == 2 and "--n" in err


class TestSeedResolution:
    def test_env_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("STOCHORD_SEED", "9")
        code, out, _ = run(capsys, "sample", "--family", "gm", "--alpha", "1",
                           "--beta", "1", "--lambda", "1", "--n", "50",
                           "--out", str(tmp_path / "env"))
        assert code == 0 and "seed: 9" in out
        monkeypatch.delenv("STOCHORD_SEED")
        run(capsys, "sample", "--family", "gm", "--alpha", "1", "--beta", "1",
            "--lambda", "1", "--n", "50", "--seed", "9", "--out", str(tmp_path / "flag"))
        assert (tmp_path / "env" / "samples.csv").read_bytes() == \
            (tmp_path / "flag" / "samples.csv").read_bytes()

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("STOCHORD_SEED", "9")
        code, out, _ = run(capsys, "sample", "--family", "gm", "--alpha", "1",
                           "--beta", "1", "--lambda", "1", "--n", "10",
                           "--seed", "2", "--out", str(tmp_path))
        assert code == 0 and "seed: 2" in out

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("STOCHORD_SEED", "abc")
        code, _, err = run(capsys, "sample", "--family", "gm", "--alpha", "1",
                           "--beta", "1", "--lambda", "1", "--n", "10")
        assert code == 2 and "STOCHORD_SEED" in err

    @pytest.mark.parametrize("argv", [
        ("sample", "--family", "gm", "--alpha", "1", "--beta", "1", "--lambda", "1",
         "--n", "10", "--seed", "-1"),
        ("verify-theorem", "T3.1", "--count", "2", "--seed", "-3"),
    ], ids=["sample", "verify-theorem"])
    def test_negative_seed_flag_is_named(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2 and "--seed must be a non-negative integer" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("sample", "--family", "gm", "--alpha", "1", "--beta", "1", "--lambda", "1", "--n", "10"),
        ("verify-theorem", "T3.1", "--count", "2"),
    ], ids=["sample", "verify-theorem"])
    def test_negative_env_seed_is_named(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("STOCHORD_SEED", "-3")
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2 and "STOCHORD_SEED must be a non-negative integer" in err
        # a valid flag still takes precedence over the variable
        code, out, _ = run(capsys, *argv, "--seed", "0", "--out", str(tmp_path))
        assert code in (0, 3) and ("seed 0" in out or "seed: 0" in out)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenBytes:
    """sha256 of the CSVs written by the per-value repr writer the CLI had
    before the numpy formatter (x86-64, numpy 2.4); the verify-theorem
    digests were taken before the exported curves came from the
    certifiers' verdicts. Any change in a formatted byte, or in the values
    behind it, shows here."""

    @pytest.mark.parametrize("config, order, digest", [
        (EXAMPLE1, "st", "1de7ce06e3090ac51d1c19788c04257a48155e5c2144a0f39fda0db93bd20311"),
        (EXAMPLE1, "hr", "eccbce122b275773f667e56fa7bdc6ab43f7e05ec5efed2705243aa12477707c"),
        (EXAMPLE1, "rh", "97e6a79af181ff4a5d37c25960dcc19830b38a38abde4dba5cf3ae4f700e58b7"),
        (EXAMPLE1, "lr", "30ecc7c4153546dccfce09ff12acd20c80d9888db79d22646d834dde058a1355"),
        (EXAMPLE2, "st", "72e11a462de40393af81f1440841cfae9ce7e6b3ea0548669b77fd140b2ff9c1"),
        (EXAMPLE2, "hr", "87850b7032065d5052d9dc82eee464423bd276ff54176d0ea9076f28050266b7"),
        (EXAMPLE2, "rh", "c9a201715497cb387e46b84a4a7d9fefe902f299a4ae0b59b6b4b58ac7800a2f"),
        (EXAMPLE2, "lr", "5b2b57bc46ab36df77d7049a96054a368579114ac6575e081b808ad68d6f3d1e"),
    ])
    def test_compare_curves(self, capsys, tmp_path, config, order, digest):
        run(capsys, "compare", "--config", config, "--order", order, "--out", str(tmp_path))
        assert sha256(tmp_path / "compare_curve.csv") == digest

    def test_parallel_curve_with_inf_and_nan_rows(self, capsys, tmp_path):
        doc = json.load(open(EXAMPLE1))
        doc["first"]["structure"] = doc["second"]["structure"] = "parallel"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        run(capsys, "compare", "--config", str(cfg), "--order", "hr", "--xmax", "50",
            "--out", str(tmp_path))
        text = (tmp_path / "compare_curve.csv").read_text()
        assert "inf" in text and "nan" in text
        assert sha256(tmp_path / "compare_curve.csv") == \
            "8dd845df2610c610eea35bfee06b2ad3b7290f5d2626cb33989edf964e2ed9dd"

    @pytest.mark.parametrize("order, xmax, grid, margin, digest", [
        # both densities underflow to 0 on the upper part of the grid
        ("lr", "50", 1109, "-0.00010144994709154753",
         "a7e72f1417b043a5fbcb7719d06a9be8d50d1117d9eb9dc3353f9422b36f2072"),
        # both cdfs are 0 on the lower part of the grid
        ("rh", "1e-107", 610, "-3.269304598166579e+108",
         "d1ed4be35f634e952e230d492614111f1ce629b5b95a5d1f093e07a35b5cb9c2"),
    ])
    def test_truncated_curve_keeps_every_grid_row(self, capsys, tmp_path, order, xmax,
                                                  grid, margin, digest):
        # the verdict excludes the rows whose slack is not finite; the CSV keeps them
        code, out, _ = run(capsys, "compare", "--config", EXAMPLE1, "--order", order,
                           "--xmax", xmax, "--out", str(tmp_path))
        lines = out.splitlines()
        assert code == 3
        assert "truncated: true" in lines and f"grid: {grid}" in lines
        assert f"margin: {margin}" in lines
        csv = tmp_path / "compare_curve.csv"
        assert len(csv.read_text().splitlines()) == 1 + 2048
        assert sha256(csv) == digest

    @pytest.mark.parametrize("scenario, digest", [
        ("T3.1", "eccbce122b275773f667e56fa7bdc6ab43f7e05ec5efed2705243aa12477707c"),
        ("T3.2", "96048e09963d7a9236f29d57184e3aad7dbe9ea3057ff0049676e75750070b5f"),
        ("T3.3", "5f32818d9864d8239af130ee630a2124d0748b6156a9a8ee13cfdc974e50a0ed"),
        ("T3.4", "9a0bd317b17816ab37812df774b2cf8b97f2294c75af9916e9bd694576f9cdec"),
        ("T3.5", "22942c0823ea65fcb0de7297a3939dd5059f66cc93a8df4bfcf1af8be6d46839"),
        ("T4.1", "87850b7032065d5052d9dc82eee464423bd276ff54176d0ea9076f28050266b7"),
        ("T4.2", "d5cd188617de2b18a9b94c3b39f03bd378051b21bcdb8bc28a5e6f457d19729a"),
        ("T4.3", "61d3ef17efeaad29bef2478293eea731c3bf98016790f68b643450ca624ecf6c"),
        ("T4.4", "0d715b1db66d1d02983a0206ec634c446831d8d2aea5ae0aac14ff2e376c31b7"),
        ("T4.5", "9ea4a0965f61f56fbc4f01058281291e2160fc4b3d9404105f8916a12762f17c"),
    ])
    def test_theorem_curves(self, capsys, tmp_path, scenario, digest):
        # T3.1 and T4.1 pin the worked example: their curves are example1's
        # and example2's hr curves
        run(capsys, "verify-theorem", scenario, "--count", "2", "--seed", "0",
            "--out", str(tmp_path))
        assert sha256(tmp_path / f"theorem_{scenario}_curve.csv") == digest

    def test_model_sample(self, capsys, tmp_path):
        run(capsys, "sample", "--family", "gm", "--alpha", "4.8", "--beta", "2.5",
            "--lambda", "1", "--n", "100000", "--seed", "3", "--out", str(tmp_path))
        assert sha256(tmp_path / "samples.csv") == \
            "e7fbba2204e12dffb73caf8c16b0f337bdcf72f1ff55b647536775f822e93c50"

    def test_parallel_system_sample(self, capsys, tmp_path):
        run(capsys, "sample", "--config", SYSTEM, "--n", "5000", "--seed", "11",
            "--out", str(tmp_path))
        assert sha256(tmp_path / "samples.csv") == \
            "985e669b1f4ec58ed69b098d678939d21cc0243763999a8408303782b11ef5e8"


class TestArgparseSurface:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "compare" in out

    def test_compare_requires_config_flag(self, capsys):
        assert run(capsys, "compare")[0] == 2

    def test_reused_parser_behaves_as_a_fresh_one(self, capsys, tmp_path):
        out = str(tmp_path)
        calls = [
            ("compare", "--config", EXAMPLE1, "--order", "st", "--out", out),
            ("sample", "--family", "gm", "--alpha", "1", "--beta", "1", "--lambda", "1",
             "--n", "20", "--seed", "2", "--out", out),
            ("--help",),
            ("sample", "--family", "gm", "--alpha", "1", "--beta", "1", "--lambda", "1"),
            ("compare",),
            ("majorize", "--a", "2,2,2", "--b", "1,2,3"),
            ("sample", "--bogus"),
            ("compare", "--config", EXAMPLE1, "--out", out),
        ]
        reused = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in reused] == [0, 0, 0, 2, 2, 0, 2, 0]
        assert _build_parser() is _build_parser()
        for argv, result in zip(calls, reused):
            _build_parser.cache_clear()
            assert run(capsys, *argv) == result
