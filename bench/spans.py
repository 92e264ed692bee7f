"""Per-layer spans recorded from outside the package.

The layers are the package's modules.  A Tracer replaces each public
function listed in LAYERS by a wrapper on every module attribute bound to
it, so names rebound by `from ... import` (cover.restrict_path) are traced
too, and restores the originals on uninstall.  Each call becomes a span
(layer, job, parent span, start, end) kept in memory; a layer's self time
is the duration of its spans minus the time their child spans cover.  The
program is single-threaded with no queues, so no waiting time exists.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# layer -> functions, as "module.attribute" or "module.Class.method"
LAYERS = {
    "cli.self": ["cli.main"],
    "io.load": ["io.load_path", "io.load_document"],
    "io.save": ["io.save", "io.dump_semigroup", "io.dump_resgraph", "io.dump_relgen",
                "io.dump_premorphism", "io.dump_canonical"],
    "relmonoid.generate": ["relmonoid.generate"],
    "relmonoid.to_semigroup": ["relmonoid.RelationAlgebra.to_semigroup"],
    "core.verify": ["core.verify_ehresmann"],
    "core.restriction": ["core.verify_restriction"],
    "core.sigma": ["core.sigma"],
    "core.orders": ["core.natural_orders"],
    "core.proper_ideal": ["core.check_proper_ideal"],
    "core.matchify": ["core.matchify"],
    "resgraph.axioms": ["resgraph.check_axioms"],
    "resgraph.path_axioms": ["resgraph.check_path_axioms"],
    "resgraph.path_restrict": ["resgraph.restrict_path", "resgraph.corestrict_path"],
    "resgraph.equivalence": ["resgraph.equivalent_paths"],
    "product.build": ["product.build_product"],
    "product.claims": ["product.check_construction_claims"],
    "product.iso": ["product.structure_iso_check", "product.underlying_graph"],
    "cover.graph": ["cover.build_cover_graph"],
    "cover.mult": ["cover.cover_mult"],
    "cover.phi": ["cover.phi"],
    "cover.preimage": ["cover.canonical_preimage"],
    "cover.verify": ["cover.verify_cover", "cover.enumerate_canonical"],
    "actions.validate": ["actions.validate_premorphism", "actions.validate_partial_action"],
    "actions.iso": ["actions.pair_form_iso_check", "actions.classify_restriction"],
}

# layer -> (end-to-end metric a faster layer should move, workloads where
# its self time is large enough to move it); trace.overhead_frac moves none
SHOULD_MOVE = {
    "cli.self": ("job_p50_s", ("structures",)),
    "io.load": ("job_p50_s", ("structures",)),
    "io.save": ("wall_s", ("tables",)),
    "relmonoid.generate": ("wall_s", ("tables",)),
    "relmonoid.to_semigroup": ("wall_s", ("tables",)),
    "core.verify": ("wall_s", ("tables", "structures")),
    "core.restriction": ("wall_s", ("tables",)),
    "core.sigma": ("wall_s", ("structures",)),
    "core.orders": ("wall_s", ("structures", "tables")),
    "core.proper_ideal": ("wall_s", ("searches",)),
    "core.matchify": ("job_p50_s", ("searches",)),
    "resgraph.axioms": ("wall_s", ("structures",)),
    "resgraph.path_axioms": ("wall_s", ("structures",)),
    "resgraph.path_restrict": ("wall_s", ("searches", "structures")),
    "resgraph.equivalence": ("wall_s", ("searches",)),
    "product.build": ("wall_s", ("structures",)),
    "product.claims": ("wall_s", ("structures",)),
    "product.iso": ("wall_s", ("structures",)),
    "cover.graph": ("wall_s", ("searches",)),
    "cover.mult": ("wall_s", ("searches",)),
    "cover.phi": ("wall_s", ("searches",)),
    "cover.preimage": ("job_p50_s", ("searches",)),
    "cover.verify": ("wall_s", ("searches",)),
    "actions.validate": ("wall_s", ("structures",)),
    "actions.iso": ("wall_s", ("structures",)),
}

# layers whose call counts are reported
CALL_COUNTS = ("io.load", "core.verify", "core.sigma", "core.orders", "core.matchify",
               "resgraph.path_restrict", "cover.mult", "cover.phi")

# computed counts: metric -> (function, (args, result) -> amount)
COMPUTED = {
    "relmonoid.closure_elements": ("relmonoid.generate", lambda a, r: len(r.elements)),
    "relmonoid.table_entries": ("relmonoid.RelationAlgebra.to_semigroup",
                                lambda a, r: len(a[0].elements) ** 2),
    "core.assoc_triples": ("core.verify_ehresmann", lambda a, r: a[0].n ** 3),
    "product.elements_built": ("product.build_product", lambda a, r: r[0].n),
    "cover.forms": ("cover.enumerate_canonical", lambda a, r: len(r)),
}

# conclusive share: metric -> (layer, function); PASS or FAIL over calls
CONCLUSIVE = {
    "core.proper_ideal_conclusive": ("core.proper_ideal", "core.check_proper_ideal"),
    "resgraph.equivalence_conclusive": ("resgraph.equivalence",
                                        "resgraph.equivalent_paths"),
}


def metric_units():
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = ("s", "lower")
        if layer in CALL_COUNTS:
            out[f"{layer}_calls"] = ("count", "lower")
    for name in COMPUTED:
        out[name] = ("count", "lower")
    for name in CONCLUSIVE:
        out[name] = ("ratio", "higher")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out


PACKAGE = "ehresmann"


def _resolve(dotted):
    module, _, rest = dotted.partition(".")
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *path, attr = rest.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs span-recording wrappers; one install per traced pass."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.job_id = -1
        self._saved = []

    def install(self):
        self.layer = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = dict.fromkeys(list(COMPUTED) + list(CONCLUSIVE), 0)
        self._stack = [-1]
        posts = {fn: [] for fn in (f for f, _ in COMPUTED.values())}
        for metric, (fn, amount) in COMPUTED.items():
            posts[fn].append((metric, amount))
        for metric, (_, fn) in CONCLUSIVE.items():
            posts.setdefault(fn, []).append(
                (metric, lambda a, r: r.status in ("PASS", "FAIL")))
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for gid, layer in enumerate(self.layers):
            for dotted in LAYERS[layer]:
                owner, attr = _resolve(dotted)
                original = getattr(owner, attr)
                wrapper = self._wrap(original, gid, posts.get(dotted, ()))
                targets = [(owner, attr)] + [
                    (m, name) for m in modules if m is not owner
                    for name, value in list(vars(m).items()) if value is original]
                for obj, name in targets:
                    self._saved.append((obj, name, original))
                    setattr(obj, name, wrapper)

    def uninstall(self):
        for obj, name, original in reversed(self._saved):
            setattr(obj, name, original)
        self._saved = []

    def _wrap(self, fn, gid, posts):
        layer, parent, job = self.layer, self.parent, self.job
        start, end, stack, counts = self.start, self.end, self._stack, self.counts
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(gid)
            parent.append(stack[-1])
            job.append(tracer.job_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            for metric, amount in posts:
                counts[metric] += amount(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self, job_scales):
        """Self seconds per layer, each span's scaled by the factor of its
        job (see run.run_pass), call counts and the computed counts."""
        n = len(self.start)
        dur = array("q", (self.end[i] - self.start[i] for i in range(n)))
        child = array("q", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        self_s = [0.0] * len(self.layers)
        calls = [0] * len(self.layers)
        for i, g in enumerate(self.layer):
            self_s[g] += (dur[i] - child[i]) * job_scales[self.job[i]] / 1e9
            calls[g] += 1
        out = {}
        for g, layer in enumerate(self.layers):
            out[f"{layer}_s"] = self_s[g]
            if layer in CALL_COUNTS:
                out[f"{layer}_calls"] = calls[g]
        for metric in COMPUTED:
            out[metric] = self.counts[metric]
        for metric, (layer, _) in CONCLUSIVE.items():
            made = calls[self.layers.index(layer)]
            # 0 when the layer is not called in the workload
            out[metric] = self.counts[metric] / made if made else 0.0
        return out

    def write(self, path, job_names):
        """Spans as gzipped tab-separated rows, one per call, after '#' lines
        naming the jobs by index; times in ns from the first span's start."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for j, name in enumerate(job_names):
                fh.write(f"# job {j}\t{name}\n")
            fh.write("span\tparent\tjob\tlayer\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.job[i]}\t"
                         f"{self.layers[self.layer[i]]}\t{self.start[i] - t0}\t"
                         f"{self.end[i] - t0}\n")
