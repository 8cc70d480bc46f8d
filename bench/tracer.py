"""Per-layer spans, recorded from outside the package.

``install`` rebinds each traced public function, in every ``penciljk``
module that holds it, to a wrapper that records a span: its layer name,
start and end, the span that called it and the request it belongs to.
Spans are kept in memory as flat integer arrays and written out once, when
the run ends.  Self time is a span's duration minus the time its child
spans cover; the per-layer metrics are sums of self times and call counts.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, function) -> layer name; functions sharing a name share a layer
LAYERS = {
    ("exactla", "rank"): "exactla.rank",
    ("exactla", "kernel_basis"): "exactla.kernel",
    ("exactla", "det"): "exactla.det",
    ("exactla", "row_space_basis"): "exactla.rowspace",
    ("pencils", "strict_invariants"): "pencils.strict_invariants",
    ("pencils", "pencil_rank"): "pencils.rank",
    ("pencils", "regular_value"): "pencils.rank",
    ("pencils", "is_regular_value"): "pencils.rank",
    ("pencils", "minimal_indices"): "pencils.minimal_indices",
    ("pencils", "elementary_divisors"): "pencils.elementary_divisors",
    ("polys", "coprime_basis"): "polys.factor",
    ("polys", "poly_gcd"): "polys.gcd",
    ("skewjk", "skew_jk_invariants"): "skewjk.fold",
    ("skewjk", "core_subspace"): "skewjk.core_mantle",
    ("skewjk", "mantle_subspace"): "skewjk.core_mantle",
    ("strata", "bundle_closure_contains"): "strata.bundle",
    ("strata", "orbit_closure_contains"): "strata.orbit",
    ("lie", "lie_pencil"): "lie.pencil",
    ("lie", "rep_pencil"): "lie.pencil",
    ("lie", "lie_poisson_matrix"): "lie.pencil_parts",
    ("lie", "rep_operator"): "lie.pencil_parts",
    ("lie", "jk_invariants_of_lie"): "lie.select_certify",
    ("lie", "jk_invariants_of_rep"): "lie.select_certify",
    ("lie", "check_jacobi"): "lie.validate",
    ("lie", "check_homomorphism"): "lie.validate",
    ("semidirect", "semidirect"): "semidirect.build",
    ("semidirect", "direct_sum"): "semidirect.build",
    ("semidirect", "dual_representation"): "semidirect.dual",
    ("semidirect", "check_dual_theorem"): "semidirect.dual",
    ("catalog", "build_classical"): "catalog.build",
    ("catalog", "expected_rep_jk"): "catalog.build",
    ("catalog", "expected_lie_jk"): "catalog.build",
}
JSONIO_FUNCTIONS = (
    "load_json", "emit", "pencil_from_json", "lie_from_json", "rep_from_json",
    "sig_from_json", "sig_to_json", "skew_sig_to_json", "invariants_to_json",
    "skew_to_json",
)
for _name in JSONIO_FUNCTIONS:
    LAYERS[("jsonio", _name)] = "jsonio"
CLI = "cli"
ELIMINATION = {"exactla.rank", "exactla.kernel", "exactla.det"}

# per-layer metrics: (name, unit, better, how it is read off the totals)
METRICS = (
    ("exactla.rank_calls", "count", "lower", ("calls", "exactla.rank")),
    ("exactla.rank_s", "s", "lower", ("self", "exactla.rank")),
    ("exactla.kernel_calls", "count", "lower", ("calls", "exactla.kernel")),
    ("exactla.kernel_s", "s", "lower", ("self", "exactla.kernel")),
    ("exactla.det_s", "s", "lower", ("self", "exactla.det")),
    ("exactla.rowspace_s", "s", "lower", ("self", "exactla.rowspace")),
    ("exactla.elim_cells", "cells", "lower", ("elim_cells",)),
    ("exactla.max_entry_bits", "bits", "lower", ("max_entry_bits",)),
    ("pencils.strict_invariants_calls", "count", "lower", ("calls", "pencils.strict_invariants")),
    ("pencils.strict_invariants_self_s", "s", "lower", ("self", "pencils.strict_invariants")),
    ("pencils.rank_s", "s", "lower", ("self", "pencils.rank")),
    ("pencils.minimal_indices_s", "s", "lower", ("self", "pencils.minimal_indices")),
    ("pencils.elementary_divisors_s", "s", "lower", ("self", "pencils.elementary_divisors")),
    ("polys.factor_calls", "count", "lower", ("calls", "polys.factor")),
    ("polys.factor_s", "s", "lower", ("self", "polys.factor")),
    ("polys.gcd_s", "s", "lower", ("self", "polys.gcd")),
    ("skewjk.fold_self_s", "s", "lower", ("self", "skewjk.fold")),
    ("skewjk.core_mantle_s", "s", "lower", ("self", "skewjk.core_mantle")),
    ("strata.bundle_calls", "count", "lower", ("calls", "strata.bundle")),
    ("strata.bundle_s", "s", "lower", ("self", "strata.bundle")),
    ("strata.orbit_calls", "count", "lower", ("calls", "strata.orbit")),
    ("strata.orbit_s", "s", "lower", ("self", "strata.orbit")),
    ("strata.orbit_true_ratio", "ratio", "higher", ("orbit_true_ratio",)),
    ("lie.samples", "count", "lower", ("calls", "lie.pencil")),
    ("lie.pencil_build_s", "s", "lower", ("self", "lie.pencil", "lie.pencil_parts")),
    ("lie.select_certify_self_s", "s", "lower", ("self", "lie.select_certify")),
    ("lie.validate_calls", "count", "lower", ("calls", "lie.validate")),
    ("lie.validate_s", "s", "lower", ("self", "lie.validate")),
    ("semidirect.build_s", "s", "lower", ("self", "semidirect.build")),
    ("semidirect.dual_s", "s", "lower", ("self", "semidirect.dual")),
    ("catalog.build_s", "s", "lower", ("self", "catalog.build")),
    ("jsonio.s", "s", "lower", ("self", "jsonio")),
    ("cli.self_s", "s", "lower", ("self", CLI)),
)


def _entry_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if x:
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    """Span store plus running per-layer totals."""

    def __init__(self) -> None:
        self.names: list[str] = sorted(set(LAYERS.values()) | {CLI})
        self._index = {name: i for i, name in enumerate(self.names)}
        # one record per span: request, span id, parent id, layer, start, end
        self.spans = array("q")
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.elim_cells = 0
        self.max_entry_bits = 0
        self.orbit_true = 0
        self.request = -1
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0

    def wrap(self, layer: str, fn):
        idx = self._index[layer]
        elimination = layer in ELIMINATION
        rowspace = layer == "exactla.rowspace"
        orbit = layer == "strata.orbit"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if elimination:
                mat = args[0]
                self.elim_cells += mat.m * mat.n
                self.max_entry_bits = max(self.max_entry_bits, _entry_bits(mat.rows))
            elif rowspace:
                vectors, n = args[0], args[1]
                self.elim_cells += len(vectors) * n
            span = self._next_id
            self._next_id += 1
            frame = [span, 0]
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                duration = end - start
                self.calls[idx] += 1
                self.self_ns[idx] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.extend((self.request, span, parent, idx, start, end))
            if orbit and result:
                self.orbit_true += 1
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a package module holds it."""
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("penciljk")}
        for (module, func), layer in LAYERS.items():
            original = getattr(modules[f"penciljk.{module}"], func)
            wrapped = self.wrap(layer, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def metrics(self) -> dict:
        out = {}
        for name, unit, _, how in METRICS:
            if how[0] == "calls":
                value = self.calls[self._index[how[1]]]
            elif how[0] == "self":
                value = sum(self.self_ns[self._index[layer]] for layer in how[1:]) / 1e9
            elif how[0] == "orbit_true_ratio":
                attempts = self.calls[self._index["strata.orbit"]]
                value = self.orbit_true / attempts if attempts else 0.0
            else:
                value = getattr(self, how[0])
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        """Spans as int64 records (request, span, parent, layer, start ns,
        end ns) in ``path``, and the layer names in ``path + '.json'``."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["request", "span", "parent", "layer", "start_ns", "end_ns"],
                       "layers": self.names}, fh)
