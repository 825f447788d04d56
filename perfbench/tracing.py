"""Per-layer spans recorded from outside the program.

``install`` rebinds each traced function, both as a module attribute and
under every name another latcheck module bound with ``from ... import``, to
a wrapper that records one span per outermost call: function, start, end,
parent span and item id.  A function that calls itself gets a span only at
its outermost call.  Spans stay in memory until ``dump``.

Self time is a span's duration minus the durations of its child spans, so
the self times add up to the top-level spans.  The item times, measured by
the benchmark's own loop and not from the spans, split the rest of the
traced wall: the time inside items that no top-level span covers is the
residual (latcheck work outside the traced functions, and in ``cli`` each
child's interpreter start), and the time outside items and spans is the
benchmark's own.
"""

import functools
import gzip
import importlib
import sys
import time
from array import array

# layer -> traced public functions; the layer boundaries of latcheck
TRACED = {
    "core": ("build_lattice", "canonical_form", "dual", "induced"),
    "catalog": ("get", "chain"),
    "laws": ("whitman", "semidistributive", "distributive", "modular",
             "doubly_reducible_elements", "law_profile", "is_finite_free_sublattice"),
    "embed": ("find_embedding", "contains_forbidden"),
    "variety": ("in_n5_variety", "si_factors", "all_congruences",
                "principal_congruence", "quotient"),
    "decomp": ("dec", "minimum_distributive_partitions"),
    "freeterm": ("parse_term", "canonicalize", "leq", "find_free_embedding"),
    "enumeration": ("all_lattices",),
    "theorems": ("run_profile", "lemma_l15_check", "cube_theorem_check",
                 "dec_bound_check", "degeneracy_lemma_check",
                 "twelve_element_lemma_check", "staircase_cover_check"),
    "cli": ("main", "parse_lattice_file", "emit"),
}
# FiniteLattice construction (order -> meet/join tables) is traced as core.tables
TABLES = "core.tables"
# time to import latcheck.cli in a command-line child, recorded as a span
CLI_IMPORT = "cli.import"
# counts and ratios fixed by the inputs and the gating logic: printed by a
# traced run, but not metrics, since no direction of change is a gain
INVARIANTS = ("enumeration.classes", "variety.congruences", "variety.member_ratio",
              "theorems.reports", "theorems.fired_ratio", "theorems.skip_ratio")


def traced_names():
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns] + [TABLES]


class Tracer:
    def __init__(self):
        self.names = []
        self.fids = {}
        self.start = array("d")
        self.end = array("d")
        self.fid = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.stack = []
        self.current_item = [-1]
        # result hooks fill these exact counts at outermost calls
        self.counts = {"classes_by_n": {}, "congruences": 0, "members": 0,
                       "embeddings_found": 0, "reports": 0, "skipped": 0, "fired": 0}
        self._restore = []

    def fid_for(self, name):
        if name not in self.fids:
            self.fids[name] = len(self.names)
            self.names.append(name)
        return self.fids[name]

    def set_item(self, item):
        self.current_item[0] = item

    def wrap(self, name, fn, hook=None):
        fid = self.fid_for(name)
        start, end, fids, parent, item = self.start, self.end, self.fid, self.parent, self.item
        stack, current_item = self.stack, self.current_item
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            idx = len(start)
            fids.append(fid)
            parent.append(stack[-1] if stack else -1)
            item.append(current_item[0])
            end.append(0.0)
            stack.append(idx)
            depth[0] = 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[0] = 0
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every traced function in every latcheck module that binds it."""
        import latcheck

        modules = [latcheck] + [m for name, m in sorted(sys.modules.items())
                                if name.startswith("latcheck.")]
        for layer, fns in TRACED.items():
            mod = importlib.import_module(f"latcheck.{layer}")
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                wrapped = self.wrap(f"{layer}.{fn_name}", orig, HOOKS.get(f"{layer}.{fn_name}"))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, orig))
        lattice = importlib.import_module("latcheck.core").FiniteLattice
        init = lattice.__init__
        lattice.__init__ = self.wrap(TABLES, init)
        self._restore.append((lattice, "__init__", init))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def add_span(self, name, t0, t1):
        """Record a span measured by the caller, as a top-level span."""
        self.fid.append(self.fid_for(name))
        self.parent.append(-1)
        self.item.append(self.current_item[0])
        self.start.append(t0)
        self.end.append(t1)

    def export(self):
        return {"names": self.names, "fid": list(self.fid), "parent": list(self.parent),
                "start": list(self.start), "end": list(self.end), "counts": self.counts}

    def merge(self, doc, item):
        """Append spans exported by a child process, under item id ``item``.
        perf_counter reads the system-wide monotonic clock on Linux, so the
        child's times are on this process's scale."""
        base = len(self.start)
        remap = [self.fid_for(name) for name in doc["names"]]
        for f, p, t0, t1 in zip(doc["fid"], doc["parent"], doc["start"], doc["end"]):
            self.fid.append(remap[f])
            self.parent.append(p + base if p >= 0 else -1)
            self.item.append(item)
            self.start.append(t0)
            self.end.append(t1)
        for key, value in doc["counts"].items():
            if key == "classes_by_n":
                self.counts[key].update(value)
            else:
                self.counts[key] += value

    def dump(self, path):
        """Write all spans once, as gzipped tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("span\tname\tstart\tend\tparent\titem\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.fid[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.item[i]}\n")

    def metrics(self, wall, item_s):
        """Per-function calls and self time, per-layer self time, ratios, and
        the accounting of the traced wall ``wall`` given the item times;
        then the counts fixed by the inputs, under INVARIANTS."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[self.fid[i]] += 1
            self_s[self.fid[i]] += dur[i] - covered[i]
        # top-level spans inside items, and outside them (enumeration before
        # the harness loop in enum_harness)
        top_in = sum(dur[i] for i in range(n) if self.parent[i] < 0 and self.item[i] >= 0)
        top_out = sum(dur[i] for i in range(n) if self.parent[i] < 0 and self.item[i] < 0)
        out = {}
        for name in traced_names():
            fid = self.fid_for(name)
            out[f"{name}.calls"] = calls[fid] if fid < len(calls) else 0
            out[f"{name}.self_s"] = self_s[fid] if fid < len(self_s) else 0.0
        for layer in TRACED:
            out[f"{layer}.self_s"] = sum(s for name, s in zip(self.names, self_s)
                                         if name.split(".")[0] == layer)
        imp = self.fids.get(CLI_IMPORT)
        out["cli.import_s"] = self_s[imp] if imp is not None else 0.0

        c = self.counts
        classes = sum(c["classes_by_n"].values())
        enum_fid = self.fid_for("enumeration.all_lattices")
        canon_fid = self.fid_for("core.canonical_form")
        canon_in_enum = sum(1 for i in range(n)
                            if self.fid[i] == canon_fid and self._has_ancestor(i, enum_fid))
        out["enumeration.accept_ratio"] = _ratio(classes, canon_in_enum)
        out["embed.hit_ratio"] = _ratio(c["embeddings_found"], out["embed.find_embedding.calls"])
        out["trace.wall_s"] = wall
        out["trace.bench_s"] = wall - sum(item_s) - top_out
        out["trace.residual_s"] = sum(item_s) - top_in
        out["trace.spans"] = n
        out["enumeration.classes"] = classes
        out["variety.congruences"] = c["congruences"]
        out["variety.member_ratio"] = _ratio(c["members"], out["variety.in_n5_variety.calls"])
        out["theorems.reports"] = c["reports"]
        out["theorems.fired_ratio"] = _ratio(c["fired"], c["reports"] - c["skipped"])
        out["theorems.skip_ratio"] = _ratio(c["skipped"], c["reports"])
        return out

    def _has_ancestor(self, i, fid):
        p = self.parent[i]
        while p >= 0:
            if self.fid[p] == fid:
                return True
            p = self.parent[p]
        return False


def _ratio(num, den):
    return num / den if den else 0.0


def _count_classes(counts, args, result):
    counts["classes_by_n"][str(args[0])] = len(result)


def _count_congruences(counts, args, result):
    counts["congruences"] += len(result)


def _count_member(counts, args, result):
    counts["members"] += bool(result)


def _count_found(counts, args, result):
    counts["embeddings_found"] += result is not None


def _count_reports(counts, args, result):
    counts["reports"] += len(result)
    counts["skipped"] += sum(r.skipped for r in result)
    counts["fired"] += sum(not r.skipped and not r.vacuous for r in result)


HOOKS = {
    "enumeration.all_lattices": _count_classes,
    "variety.all_congruences": _count_congruences,
    "variety.in_n5_variety": _count_member,
    "embed.find_embedding": _count_found,
    "theorems.run_profile": _count_reports,
}
