"""Span recording around moilab's public functions, installed from outside.

Nothing under ``src/`` knows about tracing.  :func:`patched` swaps every
reference to a public function in the loaded ``moilab`` modules for a
wrapper and restores the originals on exit, so both the functions a
workload calls directly and the ones the package calls internally (for
example ``spectral_measure`` imported into ``moi``) are seen.

:class:`Tracer` keeps spans ``(name, start, end, parent)`` in memory and
derives per-layer numbers from them.  Content hashes behind the
``distinct_ratio`` counts are taken only here, never in an untraced run,
and the time spent hashing is booked apart so it lands in no layer.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

COMPLEX_BYTES = 16

# span name -> (module, attribute).  Every other moilab function runs inside
# the self time of the nearest wrapped caller.
TRACED = {
    "cli.main": ("cli", "main"),
    "counterexample.growth_records": ("counterexample", "growth_records"),
    "counterexample.build_instance": ("counterexample", "build_instance"),
    "counterexample.phi_grid_sup": ("counterexample", "phi_grid_sup"),
    "counterexample.rank_estimate_check_pairs": ("counterexample", "rank_estimate_check_pairs"),
    "counterexample.lipschitz_rank_bound_check": ("counterexample", "lipschitz_rank_bound_check"),
    "besov.psi_band_majorant": ("besov", "psi_band_majorant"),
    "moi.apply_function_triple": ("moi", "apply_function_triple"),
    "moi.apply_function_pair": ("moi", "apply_function_pair"),
    "moi.argument_perturbation": ("moi", "argument_perturbation"),
    "linalg.spectral_measure": ("linalg", "spectral_measure"),
    "linalg.schatten_norm": ("linalg", "schatten_norm"),
}
LAYERS = ("linalg", "moi", "besov", "counterexample", "cli")
RANK_CHECKS = ("counterexample.rank_estimate_check_pairs", "counterexample.lipschitz_rank_bound_check")
# Metrics derived from arguments and atom counts rather than timed.
COMPUTED = (
    "moi.weight_bytes_max",
    "counterexample.phi_grid_sup.points",
    "linalg.spectral_measure.distinct_ratio",
    "linalg.schatten_norm.distinct_ratio",
    "besov.psi_band_majorant.distinct_ratio",
)


def moilab_function(module: str, attr: str):
    return getattr(sys.modules[f"moilab.{module}"], attr)


@contextmanager
def patched(replacements: dict):
    """Replace each original function by its wrapper in every loaded moilab module."""
    by_id = {id(original): wrapper for original, wrapper in replacements.items()}
    saved = []
    try:
        for name, module in list(sys.modules.items()):
            if name != "moilab" and not name.startswith("moilab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def _digest(array) -> bytes:
    import numpy as np

    data = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{data.dtype}{data.shape}".encode())
    h.update(data.data)
    return h.digest()


class Tracer:
    """Records one traced repetition; create a fresh one per repetition."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self._booked: dict = defaultdict(float)  # parent index -> hashing time
        self._child_atoms: dict[int, list[int]] = defaultdict(list)
        self.hashes: dict[str, list[bytes]] = defaultdict(list)
        self.atoms = 0
        self.dims = 0
        self.symbol_points = 0
        self.weight_bytes_max = 0
        self.grid_points = 0

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _hash(self, name: str, array) -> None:
        start = time.perf_counter()
        self.hashes[name].append(_digest(array))
        self._booked[self._stack[-1] if self._stack else None] += time.perf_counter() - start

    def _span(self, name: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(index, args, kwargs, result)
            return result

        return wrapper

    def _symbol(self, f):
        def symbol(*args):
            index = self._open("moi.symbol")
            try:
                values = f(*args)
            finally:
                self._close(index)
            self.symbol_points += int(getattr(values, "size", 1))
            return values

        return symbol

    def replacements(self) -> dict:
        """Map each traced original to its recording wrapper."""
        out = {}
        for name, (module, attr) in TRACED.items():
            fn = moilab_function(module, attr)
            before = after = None
            if name == "linalg.spectral_measure":
                def before(args, kwargs, name=name):
                    self._hash(name, args[0].matrix)
                    return args

                def after(index, args, kwargs, measure):
                    self.atoms += len(measure.atoms)
                    self.dims += measure.dim
                    parent = self.spans[index][3]
                    if parent is not None:
                        self._child_atoms[parent].append(len(measure.atoms))
            elif name in ("linalg.schatten_norm", "besov.psi_band_majorant"):
                def before(args, kwargs, name=name):
                    arg = args[0]
                    self._hash(name, getattr(arg, "samples", arg))
                    return args
            elif name.startswith("moi."):
                def before(args, kwargs):
                    return (self._symbol(args[0]), *args[1:])

                def after(index, args, kwargs, result):
                    counts = self._child_atoms.pop(index, [])
                    self.weight_bytes_max = max(
                        self.weight_bytes_max, COMPLEX_BYTES * math.prod(counts)
                    )
            elif name == "counterexample.phi_grid_sup":
                signature = inspect.signature(fn)

                def after(index, args, kwargs, result, signature=signature):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    side = (bound.arguments["N"] + 1) * bound.arguments["points_per_period"] + 1
                    self.grid_points += side * side
            out[fn] = self._span(name, fn, before, after)
        return out

    # -- derivation ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus its children's and its hashing time."""
        own = [end - start - self._booked.get(i, 0.0) for i, (_, start, end, _) in enumerate(self.spans)]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer numbers for one repetition whose measured time was ``wall``."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        roots = 0.0
        for (name, start, end, parent), s in zip(self.spans, own):
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += s
            layer_self[name.split(".", 1)[0]] += s
            if parent is None:
                roots += end - start

        def distinct(name):
            seen = self.hashes.get(name, [])
            return len(set(seen)) / len(seen) if seen else 0.0

        m: dict[str, float] = {}
        for name in ("linalg.spectral_measure", "linalg.schatten_norm", "besov.psi_band_majorant"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.busy_s"] = busy[name]
            m[f"{name}.distinct_ratio"] = distinct(name)
        m["linalg.spectral_measure.atoms_per_dim"] = self.atoms / self.dims if self.dims else 0.0
        for name in ("moi.apply_function_triple", "moi.apply_function_pair", "moi.argument_perturbation"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.busy_s"] = busy[name]
            m[f"{name}.self_s"] = self_s[name]
        m["moi.symbol.calls"] = calls["moi.symbol"]
        m["moi.symbol.busy_s"] = busy["moi.symbol"]
        m["moi.symbol.points"] = self.symbol_points
        m["moi.weight_bytes_max"] = self.weight_bytes_max
        for name in ("counterexample.phi_grid_sup", "counterexample.build_instance"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.busy_s"] = busy[name]
        m["counterexample.phi_grid_sup.points"] = self.grid_points
        m["counterexample.growth_records.self_s"] = self_s["counterexample.growth_records"]
        m["counterexample.rank_checks.self_s"] = sum(self_s[name] for name in RANK_CHECKS)
        m["cli.main.self_s"] = self_s["cli.main"]
        for layer, s in layer_self.items():
            m[f"{layer}.self_s"] = s
        m["trace.wall_s"] = wall
        m["trace.bookkeeping_s"] = sum(self._booked.values())
        m["trace.unattributed_s"] = wall - roots - self._booked.get(None, 0.0)
        return m

    def dump(self, rep_start: float) -> list[list]:
        """Spans as [name, start, end, parent, self time], times relative to ``rep_start``."""
        return [
            [n, s - rep_start, e - rep_start, p, own]
            for (n, s, e, p), own in zip(self.spans, self.self_times())
        ]
