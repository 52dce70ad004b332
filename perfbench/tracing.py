"""Span tracing of latspec's layers from outside the package.

The tracer replaces a layer's public functions, in the namespace of every
latspec module that looks them up, by wrappers that record one span per
call: name, start, end, parent span and request id.  Spans stay in memory
until the run ends.  Counts are derived from the wrapped calls' arguments
and return values; the time spent deriving them is recorded per span and
left out of every layer's self time.

Layers are latspec's modules.  ``cyclotomic``, ``intervals`` and ``formal``
are not wrapped, so their time counts under the span that called them, which
is ``spectral`` for every caller the workloads reach.
"""

from __future__ import annotations

import importlib
import json
import time
from math import comb

LAYERS = ("cli", "lattice", "haystack", "volume", "kernels", "systems", "spectral")

# (defining module, function name).  Tiny helpers called per element or per
# simplex (as_coords, det_exact, is_primitive, FiniteSystem methods) are left
# out: a span record costs as much as their body.
TRACED = (
    ("cli", "main"),
    ("lattice", "sublattice"),
    ("lattice", "hnf"),
    ("lattice", "snf"),
    ("lattice", "kernel_basis"),
    ("lattice", "scale_lattice"),
    ("haystack", "make_haystack"),
    ("haystack", "verify_haystack_sample"),
    ("volume", "build_point_set"),
    ("volume", "upper_density_estimate"),
    ("volume", "volume_spectrum"),
    ("volume", "ap_certificate"),
    ("volume", "pattern_search"),
    ("kernels", "distinct_abs_dets"),
    ("kernels", "find_det_witnesses"),
    ("systems", "finite_system"),
    ("systems", "finite_system_from_parts"),
    ("systems", "kronecker_system"),
    ("systems", "orbit_saturation"),
    ("systems", "max_directional_expansion"),
    ("systems", "ergodic_components"),
    ("systems", "component_presentation"),
    ("systems", "kronecker_orbit_saturation"),
    ("systems", "box_overlap_volume"),
    # every route to a finite spectral measure (spectral_measure and the
    # normalized measure behind expansion_bound_check) goes through this
    # cached function, so it carries the spectral_measure span
    ("spectral", "_spectral_measure_cached"),
    ("spectral", "spectral_measure_kronecker"),
    ("spectral", "normalized"),
    ("spectral", "annihilator_mass"),
    ("spectral", "verify_bochner"),
    ("spectral", "expansion_bound_check"),
    ("spectral", "shrink_rational_spectrum"),
    ("spectral", "intersection_theorem_search"),
    ("spectral", "directional_expansion_theorem_check"),
)

MODULES = (
    "latspec",
    "latspec.cli",
    "latspec.lattice",
    "latspec.haystack",
    "latspec.volume",
    "latspec.kernels",
    "latspec.systems",
    "latspec.spectral",
    "latspec.cyclotomic",
    "latspec.intervals",
    "latspec.formal",
    "latspec.prng",
)

# span name -> per-layer metric of its summed inclusive time
TIMED = {
    "kernels.distinct_abs_dets": "kernels.distinct_abs_dets_s",
    "kernels.find_det_witnesses": "kernels.find_det_witnesses_s",
    "volume.ap_certificate": "volume.ap_certificate_s",
    "volume.pattern_search": "volume.pattern_search_s",
    "volume.build_point_set": "volume.build_point_set_s",
    "spectral.spectral_measure": "spectral.spectral_measure_s",
    "spectral.verify_bochner": "spectral.verify_bochner_s",
    "spectral.shrink_rational_spectrum": "spectral.shrink_rational_spectrum_s",
    "spectral.intersection_theorem_search": "spectral.intersection_theorem_search_s",
    "spectral.expansion_bound_check": "spectral.expansion_bound_check_s",
    "spectral.annihilator_mass": "spectral.annihilator_mass_s",
    "spectral.spectral_measure_kronecker": "spectral.spectral_measure_kronecker_s",
    "systems.orbit_saturation": "systems.orbit_saturation_s",
    "systems.max_directional_expansion": "systems.max_directional_expansion_s",
    "systems.finite_system": "systems.finite_system_s",
    "systems.ergodic_components": "systems.ergodic_components_s",
    "systems.kronecker_orbit_saturation": "systems.kronecker_orbit_saturation_s",
    "lattice.sublattice": "lattice.sublattice_s",
    "lattice.snf": "lattice.snf_s",
    "haystack.make_haystack": "haystack.make_haystack_s",
    "haystack.verify_haystack_sample": "haystack.verify_haystack_sample_s",
}

# span name -> per-layer metric of its call count
CALLS = {
    "volume.volume_spectrum": "volume.volume_spectrum_calls",
    "volume.ap_certificate": "volume.ap_certificate_calls",
    "spectral.spectral_measure": "spectral.spectral_measure_calls",
    "systems.orbit_saturation": "systems.orbit_saturation_calls",
}

COUNTERS = (
    "kernels.simplices",
    "kernels.python_path_calls",
    "spectral.atoms",
    "spectral.interval_atoms",
    "spectral.kronecker_atoms",
    "systems.orbit_saturation_distinct",
)


def span_name(module: str, func: str) -> str:
    return f"{module}.{func.lstrip('_').removesuffix('_cached')}"


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover, minus the tracer's own bookkeeping inside it.

    ``spans[i]`` is ``(name, start, end, parent, request, hook_s)`` with
    ``parent`` an index into ``spans`` or None.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, request, hook in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, request, hook) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, end - start - covered - hook))
    return out


def inclusive_times(spans: list[tuple]) -> dict[str, float]:
    """Summed duration per span name, counting a span nested inside another
    span of the same name (recursion) only once."""
    totals: dict[str, float] = {}
    for name, start, end, parent, request, hook in spans:
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def layer_metrics(spans: list[tuple], counters: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric derived from one traced run's spans and counts."""
    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, self_s in zip(spans, self_times(spans)):
        metrics[span[0].split(".", 1)[0] + ".self_s"] += self_s
    inclusive = inclusive_times(spans)
    for name, metric in TIMED.items():
        metrics[metric] = inclusive.get(name, 0.0)
    for metric in CALLS.values():
        metrics[metric] = 0
    for span in spans:
        if span[0] in CALLS:
            metrics[CALLS[span[0]]] += 1
    metrics.update(counters)
    dets_s = metrics["kernels.distinct_abs_dets_s"]
    metrics["kernels.simplices_per_s"] = metrics["kernels.simplices"] / dets_s if dets_s else 0.0
    return metrics


class Tracer:
    """Installs span-recording wrappers into latspec and removes them again."""

    def __init__(self) -> None:
        self.spans: list = []
        self.request = None
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._saturation_keys: set = set()
        self._measures: dict[int, object] = {}
        self._kernels = importlib.import_module("latspec.kernels")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        hooks = {
            "kernels.distinct_abs_dets": self._count_dets,
            "kernels.find_det_witnesses": self._count_witnesses,
            "systems.orbit_saturation": self._count_saturation,
            "spectral.spectral_measure": self._count_atoms,
            "spectral.spectral_measure_kronecker": self._count_kronecker_atoms,
        }
        for mod_name, func in TRACED:
            original = getattr(importlib.import_module(f"latspec.{mod_name}"), func, None)
            if original is None:  # gone from the package: its metrics read 0
                continue
            name = span_name(mod_name, func)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, key, original = self._saved.pop()
            setattr(mod, key, original)

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent, self.request, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
            if hook is not None:
                hook(result, *args, **kwargs)
                if parent is not None:
                    spans[parent][5] += clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts derived from inputs and return values ----------------------

    def _python_path(self, points, rank: int, limit: int) -> bool:
        k = self._kernels
        if k.backend_name() == "python" or rank not in (2, 3):
            return True
        c = max(abs(x) for p in points for x in p)
        return k.det_bound(c, rank) >= 1 << 62 or limit > k.TABLE_LIMIT

    def _count_dets(self, result, points, rank, cap=None):
        n = len(points)
        if n < rank + 1:
            return
        self.counters["kernels.simplices"] += comb(n, rank + 1)
        c = max(abs(x) for p in points for x in p)
        limit = self._kernels.det_bound(c, rank)
        if cap is not None:
            limit = min(limit, cap)
        self.counters["kernels.python_path_calls"] += self._python_path(points, rank, limit)

    def _count_witnesses(self, result, points, rank, targets):
        wanted = [int(t) for t in targets if t > 0]
        if wanted and len(points) >= rank + 1:
            self.counters["kernels.python_path_calls"] += self._python_path(
                points, rank, max(wanted)
            )

    def _count_saturation(self, result, sys_, b, lam, sspec=None, terms=None):
        bset = b if isinstance(b, frozenset) else frozenset(tuple(x) for x in b)
        key = (sys_, bset, sys_.phi(lam), sspec, terms)
        if key not in self._saturation_keys:
            self._saturation_keys.add(key)
            self.counters["systems.orbit_saturation_distinct"] += 1

    def _count_atoms(self, sigma, *args):
        # the measure is lru_cached: a cache hit returns an object seen before
        if id(sigma) in self._measures:
            return
        self._measures[id(sigma)] = sigma
        self.counters["spectral.atoms"] += len(sigma.atoms)
        self.counters["spectral.interval_atoms"] += sum(not a.weight.exact for a in sigma.atoms)

    def _count_kronecker_atoms(self, sigma, *args, **kwargs):
        self.counters["spectral.kronecker_atoms"] += len(sigma.atoms)
        self.counters["spectral.interval_atoms"] += sum(not a.weight.exact for a in sigma.atoms)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request, hook) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "hook_s": hook,
                        }
                    )
                    + "\n"
                )


def lru_caches() -> dict[str, object]:
    """Every functools.lru_cache in latspec, by qualified name."""
    out = {}
    for mod_name in MODULES:
        mod = importlib.import_module(mod_name)
        for key, value in vars(mod).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod_name:
                out[f"{mod_name}.{key}"] = value
    return out


def cache_snapshot(caches: dict[str, object]) -> dict[str, tuple[int, int]]:
    return {name: tuple(fn.cache_info()[:2]) for name, fn in caches.items()}


def cache_delta(before: dict, after: dict) -> dict[str, dict[str, int]]:
    return {
        name: {"hits": after[name][0] - before[name][0], "misses": after[name][1] - before[name][1]}
        for name in after
    }
