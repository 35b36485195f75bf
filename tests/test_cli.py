import json
import math
from dataclasses import replace

import pytest

from moilab.cli import (
    ConfigError,
    RunConfig,
    build_config,
    build_parser,
    format_p,
    load_config_file,
    main,
)
from moilab.counterexample import (
    ExperimentRecord,
    RankCheckReport,
    RankTrial,
    epsilon_scaling_run,
    quarter_root_rule,
)


def run_cli(args):
    return main(args)


def test_growth_header_and_exit_code(tmp_path, capsys):
    out = tmp_path / "growth.csv"
    code = run_cli(["growth", "--N", "1,4", "--p", "1,2,inf", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,p,lhs,perturbation,ratio,sqrt_N,besov_surrogate"
    assert len(lines) == 1 + 2 * 3
    # rows are sorted by (N, p) with inf last
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    last = lines[-1].split(",")
    assert last[0] == "4" and last[1] == "inf"


def test_growth_ratio_matches_square_root(tmp_path):
    out = tmp_path / "growth.csv"
    assert run_cli(["growth", "--N", "16", "--p", "2", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    ratio, sqrt_n = float(row[4]), float(row[5])
    assert ratio == pytest.approx(sqrt_n, rel=1e-8)


@pytest.mark.parametrize("field", ["ratio", "perturbation"])
def test_growth_gate_fails_on_nan(tmp_path, capsys, monkeypatch, field):
    def nan_run(N_list, eps_rule, p_list, **kwargs):
        return [
            replace(record, **{field: math.nan})
            for record in epsilon_scaling_run(N_list, eps_rule, p_list, **kwargs)
        ]

    monkeypatch.setattr("moilab.cli.epsilon_scaling_run", nan_run)
    out = tmp_path / "growth.csv"
    assert run_cli(["growth", "--N", "4", "--p", "2", "--out", str(out)]) == 1
    assert "growth mismatch at N=4, p=2: nan" in capsys.readouterr().err


def test_growth_gate_on_perturbation_is_relative(tmp_path, capsys, monkeypatch):
    # eps = 256^(-1/4) = 0.25: an absolute error of 5e-9 is a relative error of 2e-8
    def off_run(N_list, eps_rule, p_list, **kwargs):
        return [
            ExperimentRecord(
                N=N, p=p, lhs=16.0 * eps_rule(N), perturbation=eps_rule(N) * (1.0 + 2e-8),
                besov_surrogate=1.0, ratio=16.0, eps=eps_rule(N),
            )
            for N in N_list
            for p in p_list
        ]

    assert quarter_root_rule(256) == 0.25
    monkeypatch.setattr("moilab.cli.epsilon_scaling_run", off_run)
    out = tmp_path / "growth.csv"
    args = ["growth", "--N", "256", "--p", "2", "--eps-rule", "quarter-root", "--out", str(out)]
    assert run_cli(args) == 1
    assert "growth mismatch at N=256, p=2: 0.250000005" in capsys.readouterr().err


def test_growth_output_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["growth", "--N", "1,2,4", "--p", "1,2", "--seed", "55"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_growth_json_matches_csv(tmp_path):
    csv_path = tmp_path / "g.csv"
    json_path = tmp_path / "g.json"
    base = ["growth", "--N", "4", "--p", "2"]
    assert run_cli(base + ["--out", str(csv_path)]) == 0
    assert run_cli(base + ["--format", "json", "--out", str(json_path)]) == 0
    rows = json.loads(json_path.read_text())
    assert len(rows) == 1
    csv_row = csv_path.read_text().splitlines()[1].split(",")
    assert rows[0]["N"] == int(csv_row[0])
    assert rows[0]["p"] == csv_row[1]
    assert rows[0]["ratio"] == pytest.approx(float(csv_row[4]), rel=1e-15)


def test_growth_quarter_root_scaling(tmp_path):
    out = tmp_path / "eps.csv"
    code = run_cli(
        ["growth", "--N", "4,16", "--p", "2", "--eps-rule", "quarter-root", "--out", str(out)]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    lhs = [float(r[2]) for r in rows]
    pert = [float(r[3]) for r in rows]
    assert lhs[0] == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert pert[0] == pytest.approx(4.0**-0.25, abs=1e-8)
    assert lhs[1] == pytest.approx(2.0, abs=1e-8)
    assert pert[1] == pytest.approx(0.5, abs=1e-8)


def test_malformed_p_exits_two_and_names_field(capsys):
    code = run_cli(["growth", "--N", "1", "--p", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "'p'" in err


def test_malformed_eps_rule_exits_two(capsys):
    code = run_cli(["growth", "--N", "1", "--eps-rule", "2.0"])
    assert code == 2
    assert "eps_rule" in capsys.readouterr().err


def test_grid_m_range_is_validated(capsys):
    code = run_cli(["growth", "--N", "1", "--grid-m", "9"])
    assert code == 2
    assert "grid_m" in capsys.readouterr().err


def test_bounds_zero_trials_empty_table(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run_cli(["bounds", "--N", "2", "--p", "2", "--trials", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,N,p,trial,ratio,status"
    assert len(lines) == 1


def test_bounds_small_p_rows_are_flagged(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run_cli(["bounds", "--N", "2", "--p", "1", "--trials", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    skipped = [line for line in lines if "skipped" in line]
    assert len(skipped) == 1
    assert "requires p >= 2" in skipped[0]
    # the Lipschitz check still ran at p = 1
    assert sum("lipschitz_bound" in line for line in lines) == 2


def test_bounds_exit_zero_on_default_style_run(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run_cli(["bounds", "--N", "3", "--p", "2,inf", "--trials", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    assert all(line.endswith("ok") for line in lines)


def test_bounds_failing_trials_read_fail_and_exit_one(tmp_path, monkeypatch):
    pairs = RankTrial(trial=0, ratio=0.5, ok=False)
    lipschitz = RankTrial(trial=0, ratio=0.5, ok=False)
    monkeypatch.setattr(
        "moilab.cli.rank_estimate_check_pairs",
        lambda N, p_list, trials, seed: [RankCheckReport(N=N, p=2.0, trials=(pairs,))],
    )
    monkeypatch.setattr(
        "moilab.cli.lipschitz_rank_bound_check",
        lambda N, p_list, trials, seed: [RankCheckReport(N=N, p=2.0, trials=(lipschitz,))],
    )
    out = tmp_path / "bounds.csv"
    code = run_cli(["bounds", "--N", "2", "--p", "2", "--trials", "1", "--out", str(out)])
    assert code == 1
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(row[0], row[5]) for row in rows] == [
        ("pairs_chain", "fail"),
        ("lipschitz_bound", "fail"),
    ]


def test_bounds_output_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["bounds", "--N", "2,3", "--p", "1,2,inf", "--trials", "3", "--seed", "5"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bounds_rows_put_pairs_before_lipschitz_per_cell(tmp_path):
    # per (N, p), sorted: the pairs rows (one skipped row when p < 2), then
    # the Lipschitz rows
    out = tmp_path / "bounds.csv"
    args = ["bounds", "--N", "3,2", "--p", "inf,1,2", "--trials", "2", "--out", str(out)]
    assert run_cli(args) == 0
    rows = [line.split(",")[:4] for line in out.read_text().splitlines()[1:]]
    expected = []
    for N in ("2", "3"):
        for p in ("1", "2", "inf"):
            if p == "1":
                expected.append(["pairs_chain", N, p, ""])
            else:
                expected += [["pairs_chain", N, p, str(t)] for t in range(2)]
            expected += [["lipschitz_bound", N, p, str(t)] for t in range(2)]
    assert rows == expected


def test_selfcheck_smoke(capsys):
    code = run_cli(
        ["selfcheck", "--N", "1,4", "--p", "1,2", "--trials", "4", "--grid-m", "12"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 26
    assert all(line.startswith("PASS") for line in lines)


def test_selfcheck_rejects_output_flags(tmp_path, capsys):
    # selfcheck writes no data file, so it takes neither --format nor --out
    out = tmp_path / "r.json"
    args = ["selfcheck", "--N", "1", "--p", "1", "--trials", "1", "--grid-m", "12"]
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--format", "json", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["format", "out"])
def test_selfcheck_rejects_output_keys_in_config_file(tmp_path, capsys, key):
    # the config-file spelling of --format/--out is refused like the flags
    out = tmp_path / "sc.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text({"format": "format=json\n", "out": f"out={out}\n"}[key])
    args = ["selfcheck", "--config", str(cfg), "--N", "1", "--p", "1", "--trials", "1"]
    assert run_cli(args + ["--grid-m", "12"]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_selfcheck_strictness_on_coarse_grid(capsys):
    # grid_m = 10 cannot resolve the upper bands, so the grid-stability
    # items fail; strict mode propagates that, lenient mode warns
    args = ["selfcheck", "--N", "1", "--p", "1", "--trials", "2", "--grid-m", "10"]
    assert run_cli(args) == 1
    strict_out = capsys.readouterr().out
    assert any(line.startswith("FAIL besov.") for line in strict_out.splitlines())

    assert run_cli(args + ["--no-strict"]) == 0
    lenient_out = capsys.readouterr().out
    assert any(line.startswith("WARN besov.") for line in lenient_out.splitlines())
    assert not any(line.startswith("FAIL") for line in lenient_out.splitlines())


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=1,2\np=1,inf\nseed=7\nformat=json\n# comment\n")
    parser = build_parser()
    args = parser.parse_args(["growth", "--config", str(cfg), "--p", "2"])
    config = build_config(args)
    assert config.N_list == (1, 2)
    assert config.p_list == (2.0,)  # flag wins over config file
    assert config.seed == 7
    assert config.output_format == "json"


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    parser = build_parser()
    args = parser.parse_args(["growth", "--config", str(cfg)])
    with pytest.raises(ConfigError):
        build_config(args)


def test_config_file_parse_errors(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a line\n")
    with pytest.raises(ConfigError):
        load_config_file(str(cfg))


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_file_exits_two_and_names_config(tmp_path, capsys, kind):
    cfg = tmp_path / "run.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf8":
        cfg.write_bytes(b"seed=1\n# caf\xe9\n")
    code = run_cli(["growth", "--config", str(cfg), "--N", "1", "--p", "1"])
    assert code == 2
    assert "field 'config'" in capsys.readouterr().err


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MOILAB_OUTPUT_DIR", str(tmp_path))
    code = run_cli(["growth", "--N", "1", "--p", "1", "--out", "nested/run.csv"])
    assert code == 0
    assert (tmp_path / "nested" / "run.csv").exists()


def test_format_p_spellings():
    assert format_p(math.inf) == "inf"
    assert format_p(1.0) == "1"
    assert format_p(1.5) == "1.5"


def test_default_config_matches_documented_sweep():
    config = RunConfig()
    assert config.N_list == (1, 2, 4, 8, 16, 32, 64)
    assert config.p_list == (1.0, 1.5, 2.0, 3.0, math.inf)
    assert config.seed == 20240501
    assert config.validate() is config


@pytest.mark.parametrize(
    "config_text, flags, field",
    [
        ("seed=abc\n", [], "seed"),
        ("trials=x\n", [], "trials"),
        ("grid_L=wide\n", [], "grid_L"),
        ("grid_m=big\n", [], "grid_m"),
        ("", ["--seed", "-1"], "seed"),
        ("", ["--grid-L", "nan"], "grid_L"),
        ("", ["--grid-L", "1e308"], "grid_L"),
        ("", ["--grid-L", "1e-320"], "grid_L"),
        ("", ["--seed", "abc"], "seed"),
        ("", ["--trials", "x"], "trials"),
        ("", ["--grid-m", "x"], "grid_m"),
        ("seed=abc\n", ["--seed", "3"], "seed"),
    ],
    ids=[
        "seed-file",
        "trials-file",
        "grid_L-file",
        "grid_m-file",
        "seed-flag",
        "grid_L-flag",
        "grid_L-spacing-overflow",
        "grid_L-spacing-underflow",
        "seed-flag-malformed",
        "trials-flag-malformed",
        "grid_m-flag-malformed",
        "seed-file-under-flag",
    ],
)
def test_bad_configuration_exits_two_and_names_field(
    tmp_path, capsys, config_text, flags, field
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    code = run_cli(["bounds", "--config", str(cfg), "--N", "2", "--trials", "1", *flags])
    assert code == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, expected", [("growth", 2), ("selfcheck", 2), ("bounds", 0)])
def test_grid_too_coarse_for_band_zero(tmp_path, capsys, command, expected):
    # spacing 2e5 / 2^16 > pi/2 puts band 0 above the Nyquist frequency;
    # bounds never builds the psi grid, so it accepts the value
    args = [command, "--N", "1", "--p", "2", "--grid-L", "1e5"]
    if command != "selfcheck":
        args += ["--out", str(tmp_path / "o")]
    if command == "bounds":
        args += ["--trials", "1"]
    assert run_cli(args) == expected
    assert ("'grid_L'" in capsys.readouterr().err) == (expected == 2)
