"""In-memory span tracer for the cclab layers.

``Tracer.install()`` replaces each traced public function in every
``cclab`` module namespace that binds it (``cclab.protocol.exact_cc``,
``cclab.cli.exact_cc``, ``cclab.builder.exact_cc``, ...) with a wrapper
that records one span per call: name, start, end, parent span and job
id.  Calls made through a module's own globals are caught the same way,
so nested calls give nested spans and a layer's self time is its span
minus the spans of its direct children.  Spans stay in memory until
``dump``; ``uninstall`` restores the original functions.

Counts are read from the return values the library already exposes:
``CCResult.nodes``, ``CoverResult.nodes``/``status``,
``EnumerationResult``, ``BuildTrace.steps`` and
``ProtocolTree.leaf_count``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


def _cc_counts(out):
    return {"nodes": out.nodes, "exact": out.status == "exact"}


def _cover_counts(out):
    return {"nodes": out.nodes, "exact": out.status == "exact",
            "budget_exhausted": out.status == "bounds"}


def _enum_counts(out):
    return {"rects": len(out.rects), "truncated": out.truncated}


def _build_counts(out):
    return {"steps": len(out[1].steps)}


def _balance_counts(out):
    return {"leaves": out.leaf_count}


# (layer name, defining module, function, counts read from the result)
TRACED = (
    ("cli.main", "cclab.cli", "main", None),
    ("protocol.exact_cc", "cclab.protocol", "exact_cc", _cc_counts),
    ("protocol.balance", "cclab.protocol", "balance", _balance_counts),
    ("protocol.verify", "cclab.protocol", "verify", None),
    ("matrix.exact_rank", "cclab.matrix", "exact_rank", None),
    ("matrix.xor_power", "cclab.matrix", "xor_power", None),
    ("rectangles.cover_number", "cclab.rectangles", "cover_number",
     _cover_counts),
    ("rectangles.enumerate_maximal_mono", "cclab.rectangles",
     "enumerate_maximal_mono", _enum_counts),
    ("rectangles.max_mono_rectangle", "cclab.rectangles",
     "max_mono_rectangle", None),
    ("rectangles.fooling_set_bound", "cclab.rectangles",
     "fooling_set_bound", None),
    ("entropy.extract_rectangle", "cclab.entropy", "extract_rectangle",
     None),
    ("builder.build_protocol", "cclab.builder", "build_protocol",
     _build_counts),
    ("builder.choose_split", "cclab.builder", "choose_split", None),
    ("builder.theorem_report", "cclab.builder", "theorem_report", None),
)
LAYERS = tuple(t[0] for t in TRACED)

# Counts reported per layer besides calls and self time, and the layers
# whose share of exact results is reported.
REPORTED_COUNTS = {
    "protocol.exact_cc": ("nodes",),
    "rectangles.cover_number": ("nodes",),
    "rectangles.enumerate_maximal_mono": ("rects", "truncated"),
    "builder.build_protocol": ("steps",),
    "protocol.balance": ("leaves",),
}
EXACT_RATIO = ("protocol.exact_cc", "rectangles.cover_number")


class Tracer:
    """Records spans for the functions in ``TRACED``.

    A span is ``(layer index, start, end, parent span index or -1,
    job id)``; ``job`` is set by the caller before each job.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.job = -1
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, layer: int, fn, recorder):
        spans, stack = self.spans, self._stack
        counts = self.counts[LAYERS[layer]]

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.job)
            if recorder is not None:
                for key, value in recorder(out).items():
                    counts[key] += value
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cclab"
                                         or name.startswith("cclab."))]
        for layer, (_, mod_name, attr, recorder) in enumerate(TRACED):
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(layer, original, recorder)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def self_times(self):
        """Per span: its duration minus its direct children's durations."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self):
        """(per-layer {calls, self_s}, per-job (wall_s, self_sum_s)).

        A job's wall time is the summed duration of its root spans (its
        ``cli.main`` calls); its self sum adds every span's self time.
        """
        own = self.self_times()
        layers = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        jobs = defaultdict(lambda: [0.0, 0.0])
        for s, t in zip(self.spans, own):
            rec = layers[LAYERS[s[0]]]
            rec["calls"] += 1
            rec["self_s"] += t
            jobs[s[4]][1] += t
            if s[3] < 0:
                jobs[s[4]][0] += s[2] - s[1]
        return layers, dict(jobs)

    def metrics(self, passes: int) -> tuple:
        """Per-layer metrics averaged per traced pass, and the largest
        difference between a job's wall time and its summed self times.

        ``protocol.exact_cc.us_per_node`` divides exact_cc's inclusive
        time (rank and fooling calls included) by its search nodes."""
        layers, jobs = self.summary()
        out = {}
        for name in LAYERS:
            calls, counts = layers[name]["calls"], self.counts[name]
            out[name + ".calls"] = calls / passes
            out[name + ".self_s"] = layers[name]["self_s"] / passes
            for key in REPORTED_COUNTS.get(name, ()):
                out[f"{name}.{key}"] = counts[key] / passes
            if name in EXACT_RATIO:
                out[name + ".exact_ratio"] = (counts["exact"] / calls
                                              if calls else 0.0)
        cc = LAYERS.index("protocol.exact_cc")
        cc_s = sum(s[2] - s[1] for s in self.spans if s[0] == cc)
        nodes = self.counts["protocol.exact_cc"]["nodes"]
        out["protocol.exact_cc.us_per_node"] = (cc_s / nodes * 1e6
                                                if nodes else 0.0)
        worst = max((abs(wall - own) for wall, own in jobs.values()),
                    default=0.0)
        return out, worst

    def dump(self, path) -> None:
        """Write every span as JSON: layer names once, then one
        ``[layer, start, end, parent, job]`` row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"layers": %s, "fields": ["layer", "start_s", '
                     '"end_s", "parent", "job"], "spans": [\n'
                     % json.dumps(list(LAYERS)))
            last = len(self.spans) - 1
            for i, s in enumerate(self.spans):
                fh.write("[%d,%.9f,%.9f,%d,%d]%s\n"
                         % (s[0], s[1], s[2], s[3], s[4],
                            "," if i < last else ""))
            fh.write("]}\n")
