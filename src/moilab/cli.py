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
from typing import Callable

from . import __version__
from .besov import (
    DEFAULT_HALF_WIDTH,
    DEFAULT_LOG2_SAMPLES,
    max_resolvable_band,
    psi_reference_grid,
)
from .counterexample import (
    DEFAULT_SEED,
    GROWTH_GATES,
    epsilon_scaling_run,
    lipschitz_rank_bound_check,
    quarter_root_rule,
    rank_estimate_check_pairs,
)
from .linalg import validate_schatten_index
from .moi import NonFiniteSymbolError
from .selfcheck import DEFAULT_BLOWUP_N, DEFAULT_BLOWUP_P, DEFAULT_TRIALS, run_selfcheck

GROWTH_COLUMNS = ("N", "p", "lhs", "perturbation", "ratio", "sqrt_N", "besov_surrogate")
BOUNDS_COLUMNS = ("check", "N", "p", "trial", "ratio", "status")

OUTPUT_DIR_ENV = "MOILAB_OUTPUT_DIR"


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


def _checked(kind: type, accepts, rule: str):
    """A parser of ``kind(text)`` that returns only values ``accepts`` holds
    for; any other text raises ``ValueError``, which :func:`build_config`
    turns into a :class:`ConfigError` naming the field."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"cannot parse {text!r} as {kind.__name__}") from None
        if not accepts(value):
            raise ValueError(f"must be {rule}, got {text!r}")
        return value

    return parse


def _listed(parse):
    """A parser of comma-separated entries, each read by ``parse``; an empty
    entry is parsed like any other, so it is rejected, not skipped."""
    return lambda text: tuple(parse(token) for token in text.split(","))


def _parse_eps_rule(text: str) -> Callable[[int], float]:
    """The third-slot scaling N -> eps: 'quarter-root' is N^(-1/4), 'one'
    and a float in (0, 1] are constant."""
    if text == "quarter-root":
        return quarter_root_rule
    expected = f"expected 'one', 'quarter-root' or a float in (0, 1], got {text!r}"
    try:
        eps = 1.0 if text == "one" else float(text)
    except ValueError:
        raise ValueError(expected) from None
    if not 0.0 < eps <= 1.0:
        raise ValueError(expected)
    return lambda N: eps


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse {text!r} as a boolean")


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
    eps_rule: Callable[[int], float] = _parse_eps_rule("one")
    strict: bool = True


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
    "N": ("N_list", _listed(_checked(int, lambda n: n >= 1, "positive integers"))),
    "p": ("p_list", _listed(lambda token: validate_schatten_index(float(token)))),
    "seed": ("seed", _checked(int, lambda n: n >= 0, "nonnegative")),
    "grid_L": (
        "grid_half_width", _checked(float, lambda L: 0.0 < L < math.inf, "positive and finite")
    ),
    "grid_m": ("grid_log2_size", _checked(int, lambda m: 10 <= m <= 22, "in [10, 22]")),
    "format": ("output_format", _checked(str, lambda f: f in ("csv", "json"), "csv or json")),
    "out": ("output_path", str),
    "trials": ("trials", _checked(int, lambda n: n >= 0, "nonnegative")),
    "eps_rule": ("eps_rule", _parse_eps_rule),
    "strict": ("strict", _parse_bool),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the flags.  Each value is parsed
    by its ``_CONFIG_FIELDS`` entry, which returns only values its field
    accepts, so file and flag errors name the same field.  The file is
    parsed in full even where a flag overrides it, and a file key whose flag
    the command lacks is an error, like the flag.

    The one rule across fields is the psi grid's, for the commands that
    take the grid keys: its spacing 2L/2^m must be positive and finite, and
    resolve band 0 below its Nyquist frequency (a spacing of at most about
    pi/2)."""
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
                try:
                    updates[field] = parse(source[key])
                except ValueError as exc:
                    raise ConfigError(key, str(exc)) from exc
    config = replace(RunConfig(), **updates)
    if "grid_L" in vars(args):
        spacing = 2.0 * config.grid_half_width / 2**config.grid_log2_size
        if not 0.0 < spacing < math.inf:
            raise ConfigError(
                "grid_L", f"grid spacing 2L/2^m = {spacing} must be positive and finite"
            )
        grid = psi_reference_grid(config.grid_half_width, config.grid_log2_size)
        if max_resolvable_band(grid) < 0:
            raise ConfigError("grid_L", f"grid spacing 2L/2^m = {spacing} cannot resolve band 0")
    return config


def format_p(p: float) -> str:
    """'inf', an integral p below 2^53 as an integer, any other p by ``repr``
    (so 1e308 reads '1e+308', not 309 digits)."""
    if math.isinf(p):
        return "inf"
    if p == int(p) and p < 2**53:
        return str(int(p))
    return repr(p)


def _format_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def emit_rows(rows: list[dict], columns: tuple[str, ...], config: RunConfig) -> None:
    """Write the rows to the configured output; a path that cannot be
    written is a :class:`ConfigError` of field 'out'."""
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
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError("out", f"cannot write {path}: {exc}") from exc


def cmd_growth(config: RunConfig) -> int:
    """Write the growth rows, then name every record residual that fails its
    :data:`GROWTH_GATES` entry on stderr (exit 1)."""
    records = epsilon_scaling_run(
        sorted(config.N_list),
        config.eps_rule,
        tuple(sorted(config.p_list)),
        psi_grid=psi_reference_grid(config.grid_half_width, config.grid_log2_size),
    )
    rows = [
        {
            "N": record.N,
            "p": format_p(record.p),
            "lhs": record.lhs,
            "perturbation": record.perturbation,
            "ratio": record.ratio,
            "sqrt_N": math.sqrt(record.N),
            "besov_surrogate": record.besov_surrogate,
        }
        for record in records
    ]
    emit_rows(rows, GROWTH_COLUMNS, config)
    failures = [
        f"growth mismatch at N={record.N}, p={format_p(record.p)}: {getattr(record, field)!r}"
        f" ({residual} {getattr(record, residual):.3e}, tol {tol:g})"
        for record in records
        for residual, (field, tol) in GROWTH_GATES.items()
        if not getattr(record, residual) <= tol  # "not <=" so that a NaN fails the gate
    ]
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


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

    def add_common(sub, seed, grid):
        sub.add_argument("--config", help="key=value configuration file")
        sub.add_argument("--N", help="comma-separated sizes, e.g. 1,2,4,8")
        sub.add_argument("--p", help="comma-separated Schatten indices; 'inf' allowed")
        if seed:  # growth is deterministic
            sub.add_argument("--seed", help="seed for randomized checks")
        if grid:  # bounds builds no psi grid
            sub.add_argument("--grid-m", dest="grid_m", help="log2 grid size (10..22)")
            sub.add_argument("--grid-L", dest="grid_L", help="grid half width")

    def add_output(sub):
        # selfcheck prints PASS/FAIL lines and writes no data file
        sub.add_argument("--format", help="output format: csv or json")
        sub.add_argument("--out", help="output path, or - for stdout")

    growth = subparsers.add_parser(
        "growth", help="sweep the growth family and report Schatten ratios"
    )
    add_common(growth, seed=False, grid=True)
    add_output(growth)
    growth.add_argument(
        "--eps-rule",
        dest="eps_rule",
        help="third-slot scaling: 'one', 'quarter-root', or a float in (0, 1]",
    )

    bounds = subparsers.add_parser(
        "bounds", help="run the rank-based estimate checks over the sweep"
    )
    add_common(bounds, seed=True, grid=False)
    add_output(bounds)
    bounds.add_argument("--trials", help="random trials per sweep cell")

    selfcheck = subparsers.add_parser(
        "selfcheck", help="run every module's invariant suite"
    )
    add_common(selfcheck, seed=True, grid=True)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"growth": cmd_growth, "bounds": cmd_bounds, "selfcheck": cmd_selfcheck}
    try:
        return command[args.command](build_config(args))
    except ConfigError as exc:  # also an output path that cannot be written
        print(f"moilab: configuration error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteSymbolError as exc:  # a symbol gave NaN or inf: an identity failed
        print(f"moilab: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
