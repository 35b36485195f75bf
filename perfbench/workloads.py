"""The three benchmark workloads.

Each is a closed loop: one client in one process issues its calls one after
another, and BLAS runs at its default thread count.  A workload has

* ``setup(seed)``: import the package, make the inputs, warm up;
* ``rep(hooks)``: one pass over its fixed inputs, returning a :class:`Rep`;
  ``hooks`` is false in traced repetitions, where the per-op timestamps are
  not needed and would only add their own wrappers to the spans.

Correctness gates run inside ``rep`` but outside every timed interval.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import moilab_function, patched

GROWTH_N = (1, 2, 4, 8, 16, 32, 64, 128, 256)
BOUNDS_N = (2, 3, 4, 6)
BOUNDS_TRIALS = 50
# The surrogate is flat in N to machine precision, not bit for bit: the grid
# maximum of |phi_N| reads 1 or 1 + 2^-52 depending on N.
SURROGATE_REL_TOL = 1e-13
MOI_DIM = 32
MOI_TUPLES = 8


@dataclass
class Rep:
    wall: float  # seconds of measured work in this pass
    ops: list[float] = field(default_factory=list)  # per-op latencies, seconds
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)


def _import_moilab():
    for name in ("cli", "counterexample", "besov", "moi", "linalg"):
        importlib.import_module(f"moilab.{name}")
    return sys.modules["moilab.cli"]


def _report(what: str, exc: BaseException) -> None:
    print(f"perfbench: {what} raised {type(exc).__name__}: {exc}", file=sys.stderr)


def _call_log(log: list):
    """A wrapper factory that appends (start, end) of each call to ``log``."""

    def wrap(fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                log.append((start, time.perf_counter()))

        return timed

    return wrap


def _start_log(log: list):
    def wrap(fn):
        def marked(*args, **kwargs):
            log.append(time.perf_counter())
            return fn(*args, **kwargs)

        return marked

    return wrap


class Workload:
    name = ""

    def op_latencies(self, reps: list[Rep]) -> list[float]:
        """The latency samples the op percentiles are taken over."""
        return [t for rep in reps for t in rep.ops]


class _CliWorkload(Workload):
    """A workload that is one ``moilab`` command writing a CSV file."""

    def __init__(self, out_dir: Path):
        self.out = out_dir / f"{self.name}.csv"

    def setup(self, seed: int) -> None:
        self.cli = _import_moilab()
        self.seed = seed
        self.sha256 = None
        self.argv = self.command() + ["--out", str(self.out)]
        rc = self.cli.main(self.warmup() + ["--out", str(self.out)])
        if rc != 0:
            raise RuntimeError(f"{self.name} warm-up exited with {rc}")

    def run_command(self) -> tuple[float, int | None]:
        start = time.perf_counter()
        try:
            rc = self.cli.main(self.argv)
        except Exception as exc:  # a crashing command is a failed pass, not a crashed benchmark
            _report(f"{self.name} command", exc)
            rc = None
        return time.perf_counter() - start, rc

    def read_output(self) -> tuple[list[dict], str]:
        data = self.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.sha256 is None:
            self.sha256 = digest
        return list(csv.DictReader(data.decode("utf-8").splitlines())), digest


class GrowthSweep(_CliWorkload):
    """The paper's sqrt(N) sweep as users run it; an op is one N."""

    name = "growth-sweep"

    def __init__(self, out_dir: Path, sizes=GROWTH_N):
        super().__init__(out_dir)
        self.sizes = tuple(sizes)

    def command(self) -> list[str]:
        return ["growth", "--N", ",".join(map(str, self.sizes)), "--p", "1,2,inf"]

    def warmup(self) -> list[str]:
        return ["growth", "--N", "1,2", "--p", "1,2,inf"]

    def op_latencies(self, reps: list[Rep]) -> list[float]:
        """Latencies of whole sweeps, one per pass.

        The per-N ops span four orders of magnitude and are too few per
        run for stable percentiles, so the percentiles here describe the
        command a user waits for.
        """
        return [rep.wall for rep in reps]

    def rep(self, hooks: bool) -> Rep:
        wall, rc = self.run_command()
        rep = Rep(wall=wall, attempted=len(self.sizes))
        ok = rc == 0
        if ok:
            rows, digest = self.read_output()
            surrogates = [float(row["besov_surrogate"]) for row in rows]
            flat = max(surrogates) - min(surrogates) <= SURROGATE_REL_TOL * max(surrogates)
            ok = flat and digest == self.sha256
            ok = ok and len(rows) == 3 * len(self.sizes)
        if not ok:
            rep.failed = rep.attempted
        rep.notes["sha256"] = self.sha256
        return rep


class BoundsSmall(_CliWorkload):
    """The rank-bound checks: many tiny calls on degenerate spectra; an op is one trial row."""

    name = "bounds-small"

    def __init__(self, out_dir: Path, sizes=BOUNDS_N, trials=BOUNDS_TRIALS):
        super().__init__(out_dir)
        self.sizes = tuple(sizes)
        self.trials = trials

    def command(self) -> list[str]:
        return [
            "bounds", "--N", ",".join(map(str, self.sizes)), "--p", "1,2,inf",
            "--trials", str(self.trials), "--seed", str(self.seed),
        ]

    def warmup(self) -> list[str]:
        return ["bounds", "--N", "2", "--p", "2", "--trials", "2", "--seed", str(self.seed)]

    def rep(self, hooks: bool) -> Rep:
        checks: list = []
        trial_starts: list = []
        replacements = {}
        if hooks:
            for attr in ("rank_estimate_check_pairs", "lipschitz_rank_bound_check"):
                fn = moilab_function("counterexample", attr)
                replacements[fn] = _call_log(checks)(fn)
            for attr in ("random_trig_polynomial", "random_kink_function"):
                fn = moilab_function("counterexample", attr)
                replacements[fn] = _start_log(trial_starts)(fn)
        with patched(replacements):
            wall, rc = self.run_command()
        # Lipschitz rows at p = 1, 2, inf and pairs rows at p = 2, inf
        expected = len(self.sizes) * self.trials * 5
        rep = Rep(
            wall=wall, ops=self._trial_latencies(checks, trial_starts), attempted=expected
        )
        if rc is None:
            rep.failed = expected
        else:
            rows, digest = self.read_output()
            trial_rows = [row for row in rows if row["trial"] != ""]
            rep.failed = sum(row["status"] != "ok" for row in trial_rows)
            if len(trial_rows) != expected or digest != self.sha256 or (rc != 0 and not rep.failed):
                rep.failed = expected
        rep.notes["sha256"] = self.sha256
        return rep

    @staticmethod
    def _trial_latencies(checks: list, trial_starts: list) -> list[float]:
        """One latency per trial from the marks each trial's test function leaves.

        A trial is the stretch from one mark to the next.  The first and
        last trials of a check share its entry and exit, so their two
        partial stretches add up to one trial.
        """
        ops = []
        for entry, exit_ in checks:
            marks = [t for t in trial_starts if entry <= t <= exit_]
            if not marks:
                continue
            ops.extend(b - a for a, b in zip(marks, marks[1:]))
            ops.append((marks[0] - entry) + (exit_ - marks[-1]))
        return ops


def _symbol(x, y, z):
    """Smooth, bounded by 1, and not a product of one-variable factors."""
    import numpy as np

    return np.exp(1j * (x - 2.0 * y + z)) / (1.0 + x * x + y * y + z * z)


class MoiGeneric(Workload):
    """Library use on generic dense input; an op is one verified one-slot perturbation."""

    name = "moi-generic"

    def __init__(self, out_dir: Path, dim=MOI_DIM, tuples=MOI_TUPLES):
        self.dim = dim
        self.n_tuples = tuples

    def setup(self, seed: int) -> None:
        import numpy as np

        _import_moilab()
        self.np = np
        self.moi = sys.modules["moilab.moi"]
        linalg = sys.modules["moilab.linalg"]
        rng = np.random.default_rng(seed)

        def hermitian():
            while True:  # keep the spectrum simple, as the workload promises
                G = rng.standard_normal((self.dim, self.dim)) + 1j * rng.standard_normal(
                    (self.dim, self.dim)
                )
                M = (G + G.conj().T) / 2.0
                values = np.linalg.eigvalsh(M)
                if np.min(np.diff(values)) > 1e-6 * np.max(np.abs(values)):
                    return linalg.hermitian_from_matrix(M)

        self.tuples = [tuple(hermitian() for _ in range(4)) for _ in range(self.n_tuples)]
        for slot in range(3):
            self._op(self.tuples[0], slot)

    def _op(self, tup, slot: int):
        X1, X2, Y, Z = tup
        lhs = self.moi.argument_perturbation(_symbol, slot, X1, X2, Y, Z)
        high = [Y, Z]
        high.insert(slot, X1)
        low = [Y, Z]
        low.insert(slot, X2)
        return (
            lhs,
            self.moi.apply_function_triple(_symbol, *high),
            self.moi.apply_function_triple(_symbol, *low),
        )

    def rep(self, hooks: bool) -> Rep:
        np = self.np
        rep = Rep(wall=0.0)
        worst = 0.0
        for tup in self.tuples:
            for slot in range(3):
                rep.attempted += 1
                start = time.perf_counter()
                try:
                    lhs, high, low = self._op(tup, slot)
                except Exception as exc:  # count the op as failed and keep the loop going
                    _report(f"{self.name} op", exc)
                    rep.failed += 1
                    continue
                elapsed = time.perf_counter() - start
                rep.ops.append(elapsed)
                rep.wall += elapsed
                scale = max(np.max(np.abs(high)), np.max(np.abs(low)), np.max(np.abs(lhs)), 1e-300)
                tol = 1e-10 * self.dim * scale
                residual = float(np.max(np.abs(lhs - (high - low))))
                worst = max(worst, residual / tol)
                if not residual <= tol:
                    rep.failed += 1
        rep.notes["worst_residual_over_tol"] = worst
        return rep


WORKLOADS = {cls.name: cls for cls in (GrowthSweep, MoiGeneric, BoundsSmall)}
