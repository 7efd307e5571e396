"""Outside-in tracer for the dyck312 package.

The tracer replaces module attributes, so it needs no change to the library.
Every module of the package that binds a traced function, under any name, gets
a wrapper in its place. Module globals are looked up at call time, so calls
inside the package, such as count_brute -> in_class or perm_to_path ->
avoids_312, are caught as well. restore() puts every original back.

A span records name, start, end, parent span and operation id. Spans are kept
in flat arrays in memory, because one batch of a workload makes hundreds of
thousands of them, and are written out once at the end. A generator gets one
span per resumption, so its spans cover the time it spends producing values
while it is consumed, not just the call that creates it.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Traced functions, by module. Names match the per-layer metrics.
TARGETS = {
    "dyck": ("parse_path", "in_class", "enumerate_dyck", "count_brute"),
    "perm": ("parse_perm", "avoids_312", "in_class"),
    "bijection": ("path_to_perm", "perm_to_path"),
    "eco": ("children", "label_of", "iter_levels", "symbolic_counts", "perm_children"),
    "genfunc": (
        "count_sequence",
        "denominator_coeff",
        "denominator_poly",
        "generating_function",
        "series",
        "catalan_identity",
    ),
    "prodmat": ("production_matrix", "matrix_from_rule", "level_count", "level_totals"),
    "verify": ("run",),
    "cli": ("main",),
}


def _count_paths(counts, name, fn, args, kwargs, result):
    counts[name, "paths"] += len(result)


def _count_accepted(counts, name, fn, args, kwargs, result):
    counts[name, "accepted"] += result is True


def _count_cells(counts, name, fn, args, kwargs, result):
    counts[name, "cells"] += result.dimension ** 2


def _count_cell_ops(counts, name, fn, args, kwargs, result):
    # computed, not observed: n_max row-vector products of a dim x dim matrix
    matrix = inspect.signature(fn).bind(*args, **kwargs).arguments["matrix"]
    counts[name, "cell_ops"] += (len(result) - 1) * matrix.dimension ** 2


# Work counters, recorded at the same boundary as the span.
HOOKS = {
    "dyck.enumerate_dyck": _count_paths,
    "dyck.in_class": _count_accepted,
    "prodmat.production_matrix": _count_cells,
    "prodmat.level_totals": _count_cell_ops,
}


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(parents)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    return [e - s - c for s, e, c in zip(starts, ends, covered)]


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]
        self.op_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop all spans and counters."""
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Replace every binding of each traced function in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module_name, functions in TARGETS.items():
            module = sys.modules[f"dyck312.{module_name}"]
            for fn_name in functions:
                fn = getattr(module, fn_name)
                wrappers[fn] = self._wrap(f"{module_name}.{fn_name}", fn)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def restore(self) -> None:
        """Put back every original function."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        hook = HOOKS.get(name)
        tracer = self
        calls = (name, "calls")
        rejected = (name, "rejected")

        def open_span() -> int:
            i = len(tracer.start)
            tracer.span_name.append(name_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.start.append(perf_counter())
            tracer.end.append(0.0)
            tracer.stack.append(i)
            return i

        def close_span(i: int) -> None:
            tracer.end[i] = perf_counter()
            tracer.stack.pop()

        if inspect.isgeneratorfunction(fn):
            nodes = (name, "nodes")

            def generator_wrapper(*args, **kwargs):
                tracer.counts[calls] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except ValueError:
                        tracer.counts[rejected] += 1
                        raise
                    finally:
                        close_span(i)
                    tracer.counts[nodes] += len(item)
                    yield item

            return generator_wrapper

        def wrapper(*args, **kwargs):
            tracer.counts[calls] += 1
            i = open_span()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                tracer.counts[rejected] += 1
                raise
            finally:
                close_span(i)
            if hook is not None:
                hook(tracer.counts, name, fn, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ results

    def self_time_by_name(self) -> dict[str, float]:
        totals = dict.fromkeys(self.names, 0.0)
        for name_id, t in zip(self.span_name, self_times(self.parent, self.start, self.end)):
            totals[self.names[name_id]] += t
        return totals

    def metrics(self, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since reset()."""
        self_s = self.self_time_by_name()
        c = self.counts
        stats: dict[str, float] = {}
        for name in self.names:
            stats[f"{name}.calls"] = c[name, "calls"]
            stats[f"{name}.self_s"] = self_s[name]
            stats[f"{name}.rejected"] = c[name, "rejected"]
        calls = c["dyck.in_class", "calls"]
        stats["dyck.in_class.accept_ratio"] = c["dyck.in_class", "accepted"] / calls if calls else 0.0
        stats["dyck.enumerate_dyck.paths"] = c["dyck.enumerate_dyck", "paths"]
        stats["eco.iter_levels.nodes"] = c["eco.iter_levels", "nodes"]
        stats["prodmat.production_matrix.cells"] = c["prodmat.production_matrix", "cells"]
        stats["prodmat.level_totals.cell_ops"] = c["prodmat.level_totals", "cell_ops"]
        stats["cli.output_bytes"] = output_bytes
        return stats

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays in the
        order the header lists them."""
        fields = [("name", self.span_name), ("parent", self.parent), ("op", self.op),
                  ("start", self.start), ("end", self.end)]
        header = {
            "names": self.names,
            "count": len(self.start),
            "fields": [[f, a.typecode, a.itemsize] for f, a in fields],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in fields:
                a.tofile(fh)


def load_spans(path: str) -> tuple[dict, dict[str, array]]:
    """Read a file written by Tracer.dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, typecode, _ in header["fields"]:
            a = array(typecode)
            a.fromfile(fh, header["count"])
            arrays[field] = a
    return header, arrays


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "dyck312" or n.startswith("dyck312.")]
