"""Experiment runner CLI: growth sweeps, rank-bound checks, selfcheck.

Configuration comes from defaults, then an optional key=value config file,
then command-line flags, in increasing precedence.  Output is CSV or JSON
with a stable schema and deterministic formatting: two runs with the same
configuration produce byte-identical files.

Exit codes: 0 all checks passed, 1 an asserted identity failed, 2 bad
configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .besov import (
    DEFAULT_HALF_WIDTH,
    DEFAULT_LOG2_SAMPLES,
    max_resolvable_band,
    psi_reference_grid,
)
from .counterexample import (
    DEFAULT_SEED,
    RATIO_REL_TOL,
    epsilon_scaling_run,
    lipschitz_rank_bound_check,
    quarter_root_rule,
    rank_estimate_check_pairs,
)
from .linalg import validate_schatten_index
from .selfcheck import DEFAULT_BLOWUP_N, DEFAULT_BLOWUP_P, DEFAULT_TRIALS, run_selfcheck

GROWTH_COLUMNS = ("N", "p", "lhs", "perturbation", "ratio", "sqrt_N", "besov_surrogate")
BOUNDS_COLUMNS = ("check", "N", "p", "trial", "ratio", "status")

OUTPUT_DIR_ENV = "MOILAB_OUTPUT_DIR"


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


@dataclass(frozen=True)
class RunConfig:
    N_list: tuple[int, ...] = DEFAULT_BLOWUP_N
    p_list: tuple[float, ...] = DEFAULT_BLOWUP_P
    seed: int = DEFAULT_SEED
    grid_half_width: float = DEFAULT_HALF_WIDTH
    grid_log2_size: int = DEFAULT_LOG2_SAMPLES
    output_format: str = "csv"
    output_path: str = "-"
    trials: int = DEFAULT_TRIALS
    eps_rule: str = "one"
    strict: bool = True

    def validate(self) -> "RunConfig":
        if not self.N_list:
            raise ConfigError("N", "list must be nonempty")
        for n in self.N_list:
            if n < 1:
                raise ConfigError("N", f"sizes must be positive integers, got {n}")
        if not self.p_list:
            raise ConfigError("p", "list must be nonempty")
        for p in self.p_list:
            try:
                validate_schatten_index(p)
            except ValueError as exc:
                raise ConfigError("p", str(exc)) from exc
        if not (10 <= self.grid_log2_size <= 22):
            raise ConfigError("grid_m", f"must lie in [10, 22], got {self.grid_log2_size}")
        if not (0.0 < self.grid_half_width < math.inf):
            raise ConfigError("grid_L", f"must be positive and finite, got {self.grid_half_width}")
        spacing = 2.0 * self.grid_half_width / 2**self.grid_log2_size
        if not (0.0 < spacing < math.inf):
            raise ConfigError(
                "grid_L", f"grid spacing 2L/2^m = {spacing} must be positive and finite"
            )
        if self.seed < 0:
            raise ConfigError("seed", f"must be nonnegative, got {self.seed}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("format", f"must be csv or json, got {self.output_format}")
        if self.trials < 0:
            raise ConfigError("trials", "must be nonnegative")
        _parse_eps_rule(self.eps_rule)
        return self


def _parse_p(token: str) -> float:
    token = token.strip()
    if token.lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(token)
    except ValueError as exc:
        raise ConfigError("p", f"cannot parse {token!r} as a Schatten index") from exc
    try:
        return validate_schatten_index(value)
    except ValueError as exc:
        raise ConfigError("p", str(exc)) from exc


def _parse_p_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_p(tok) for tok in text.split(","))


def _parse_int_list(text: str, field: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(field, f"cannot parse {text!r} as integers") from exc


def _parse_number(text: str, field: str, kind: type):
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(field, f"cannot parse {text!r} as {kind.__name__}") from exc


def _parse_eps_rule(rule: str):
    if rule == "one":
        return lambda N: 1.0
    if rule == "quarter-root":
        return quarter_root_rule
    try:
        eps = float(rule)
    except ValueError as exc:
        raise ConfigError(
            "eps_rule", f"expected 'one', 'quarter-root' or a float in (0, 1], got {rule!r}"
        ) from exc
    if not 0.0 < eps <= 1.0:
        raise ConfigError("eps_rule", f"constant scaling must lie in (0, 1], got {eps}")
    return lambda N: eps


def _parse_bool(text: str, field: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(field, f"cannot parse {text!r} as a boolean")


def load_config_file(path: str) -> dict[str, str]:
    """Parse a simple key=value file; '#' starts a comment.  A file that
    cannot be read as UTF-8 text is a :class:`ConfigError` of field 'config'."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


# config-file key, also the argparse dest of its flag -> (RunConfig field, parser
# of the value text)
_CONFIG_FIELDS = {
    "N": ("N_list", lambda text: _parse_int_list(text, "N")),
    "p": ("p_list", _parse_p_list),
    "seed": ("seed", lambda text: _parse_number(text, "seed", int)),
    "grid_L": ("grid_half_width", lambda text: _parse_number(text, "grid_L", float)),
    "grid_m": ("grid_log2_size", lambda text: _parse_number(text, "grid_m", int)),
    "format": ("output_format", str),
    "out": ("output_path", str),
    "trials": ("trials", lambda text: _parse_number(text, "trials", int)),
    "eps_rule": ("eps_rule", str),
    "strict": ("strict", lambda text: _parse_bool(text, "strict")),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the flags; each value is parsed
    by its ``_CONFIG_FIELDS`` entry, so file and flag errors name the same
    field.  The file is parsed in full even where a flag overrides it, and
    a file key whose flag the command lacks is an error, like the flag."""
    entries = load_config_file(args.config) if args.config else {}
    unknown = set(entries) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError("config", f"unknown keys {sorted(unknown)}")
    unused = sorted(set(entries) - set(vars(args)))
    if unused:
        raise ConfigError(unused[0], f"not used by 'moilab {args.command}'")
    updates = {}
    for source in (entries, vars(args)):
        for key, (field, parse) in _CONFIG_FIELDS.items():
            if source.get(key) is not None:
                updates[field] = parse(source[key])
    return replace(RunConfig(), **updates).validate()


def format_p(p: float) -> str:
    if math.isinf(p):
        return "inf"
    if p == int(p):
        return str(int(p))
    return repr(p)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_rows(rows: list[dict], columns: tuple[str, ...], config: RunConfig) -> None:
    if config.output_format == "csv":
        lines = [",".join(columns)]
        lines.extend(
            ",".join(_format_cell(row[col]) for col in columns) for row in rows
        )
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=2, allow_nan=True) + "\n"

    if config.output_path == "-":
        sys.stdout.write(text)
        return
    path = Path(config.output_path)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def cmd_growth(config: RunConfig) -> int:
    records = epsilon_scaling_run(
        sorted(config.N_list),
        _parse_eps_rule(config.eps_rule),
        tuple(sorted(config.p_list)),
        psi_grid=psi_reference_grid(config.grid_half_width, config.grid_log2_size),
    )
    rows = []
    failures = []
    for record in records:
        rows.append(
            {
                "N": record.N,
                "p": format_p(record.p),
                "lhs": record.lhs,
                "perturbation": record.perturbation,
                "ratio": record.ratio,
                "sqrt_N": math.sqrt(record.N),
                "besov_surrogate": record.besov_surrogate,
            }
        )
        # "not <=" so that a NaN fails the gate
        if not record.ratio_error <= RATIO_REL_TOL:
            failures.append((record.N, record.p, record.ratio))
        if not record.perturbation_error <= RATIO_REL_TOL:
            failures.append((record.N, record.p, record.perturbation))
    emit_rows(rows, GROWTH_COLUMNS, config)
    if failures:
        for N, p, value in failures:
            print(
                f"growth mismatch at N={N}, p={format_p(p)}: {value!r}",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_bounds(config: RunConfig) -> int:
    rows = []
    p_sorted = tuple(sorted(config.p_list))
    for N in sorted(config.N_list):
        # one call per check covers every p; rows stay grouped by p
        pairs = {
            report.p: report
            for report in rank_estimate_check_pairs(
                N, [p for p in p_sorted if p >= 2.0], trials=config.trials, seed=config.seed
            )
        }
        lipschitz = lipschitz_rank_bound_check(
            N, p_sorted, trials=config.trials, seed=config.seed
        )
        for p, lipschitz_report in zip(p_sorted, lipschitz):
            cell = {"N": N, "p": format_p(p)}
            checks = (("pairs_chain", pairs.get(p)), ("lipschitz_bound", lipschitz_report))
            for check, report in checks:
                if report is None:
                    rows.append(
                        {"check": check, **cell, "trial": "", "ratio": "",
                         "status": "skipped: requires p >= 2"}
                    )
                    continue
                rows.extend(
                    {"check": check, **cell, "trial": t.trial, "ratio": t.ratio,
                     "status": "ok" if t.ok else "fail"}
                    for t in report.trials
                )
    emit_rows(rows, BOUNDS_COLUMNS, config)
    return 1 if any(row["status"] == "fail" for row in rows) else 0


def cmd_selfcheck(config: RunConfig) -> int:
    results = run_selfcheck(
        N_list=config.N_list,
        p_list=config.p_list,
        seed=config.seed,
        grid_half_width=config.grid_half_width,
        grid_log2_size=config.grid_log2_size,
        trials=config.trials,
    )
    failed = False
    for result in results:
        if result.passed:
            status = "PASS"
        elif result.category == "grid-stability" and not config.strict:
            status = "WARN"
        else:
            status = "FAIL"
            failed = True
        print(f"{status} {result.name}: {result.detail}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moilab",
        description="Growth experiments and invariant checks for operator "
        "functional calculus in Schatten norms.",
    )
    parser.add_argument("--version", action="version", version=f"moilab {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("--config", help="key=value configuration file")
        sub.add_argument("--N", help="comma-separated sizes, e.g. 1,2,4,8")
        sub.add_argument("--p", help="comma-separated Schatten indices; 'inf' allowed")
        sub.add_argument("--seed", help="seed for randomized checks")
        sub.add_argument("--grid-m", dest="grid_m", help="log2 grid size (10..22)")
        sub.add_argument("--grid-L", dest="grid_L", help="grid half width")

    def add_output(sub):
        # selfcheck prints PASS/FAIL lines and writes no data file
        sub.add_argument("--format", help="output format: csv or json")
        sub.add_argument("--out", help="output path, or - for stdout")

    growth = subparsers.add_parser(
        "growth", help="sweep the growth family and report Schatten ratios"
    )
    add_common(growth)
    add_output(growth)
    growth.add_argument(
        "--eps-rule",
        dest="eps_rule",
        help="third-slot scaling: 'one', 'quarter-root', or a float in (0, 1]",
    )

    bounds = subparsers.add_parser(
        "bounds", help="run the rank-based estimate checks over the sweep"
    )
    add_common(bounds)
    add_output(bounds)
    bounds.add_argument("--trials", help="random trials per sweep cell")

    selfcheck = subparsers.add_parser(
        "selfcheck", help="run every module's invariant suite"
    )
    add_common(selfcheck)
    selfcheck.add_argument("--trials", help="random trials for bound checks")
    strictness = selfcheck.add_mutually_exclusive_group()
    strictness.add_argument(
        "--strict", dest="strict", action="store_const", const="true",
        help="grid-stability failures are errors (default)",
    )
    strictness.add_argument(
        "--no-strict", dest="strict", action="store_const", const="false",
        help="downgrade grid-stability failures to warnings",
    )
    return parser


def _require_band_zero(config: RunConfig) -> None:
    """growth and selfcheck need band 0 of the psi grid below its Nyquist
    frequency, i.e. a grid spacing 2L/2^m of at most about pi/2."""
    grid = psi_reference_grid(config.grid_half_width, config.grid_log2_size)
    if max_resolvable_band(grid) < 0:
        raise ConfigError(
            "grid_L", f"grid spacing 2L/2^m = {grid.spacing} is too coarse to resolve band 0"
        )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        if args.command != "bounds":
            _require_band_zero(config)
    except ConfigError as exc:
        print(f"moilab: configuration error: {exc}", file=sys.stderr)
        return 2
    if args.command == "growth":
        return cmd_growth(config)
    if args.command == "bounds":
        return cmd_bounds(config)
    return cmd_selfcheck(config)


def run() -> None:
    raise SystemExit(main())
