"""Layer spans and counts, recorded from outside the package.

``Tracer.install()`` replaces the public functions of each torsionlab
layer with wrappers, at every name they are bound to in the package
(``torsion`` imports ``all_submodules`` by name from ``modules``, so
both bindings are wrapped), plus ``FiniteRing.__init__``,
``FiniteModule.__init__`` and the attributes of ``torsionlab.kernels``.
Kernels are wrapped only in ``kernels`` itself, so calls between the
kernel implementations are not counted.

A timed wrapper appends a span (name, start, end, parent) to a list kept
in memory; a counted wrapper only increments a counter, attributed to
the innermost open span.  ``metrics()`` turns them into the per-layer
metrics when the run ends.  The wrappers return what the wrapped
function returns and re-raise what it raises, so output is unchanged.
"""

import functools
import sys
import time

# metric stem -> (module, attribute); timed, one span per call
TIMED = {
    "cli.main": ("cli", "main"),
    "rings.construct": ("rings", "FiniteRing.__init__"),
    "rings.ideals": ("rings", "all_left_ideals"),
    "rings.quotient": ("rings", "quotient_ring"),
    "modules.construct": ("modules", "FiniteModule.__init__"),
    "modules.corpus": ("modules", "module_corpus"),
    "modules.quotient": ("modules", "quotient_module"),
    "modules.submodules": ("modules", "all_submodules"),
    "modules.lattice": ("modules", "lattice_from_family"),
    "modules.modularity": ("modules", "modularity_witness"),
    "torsion.notions": ("torsion", "enumerate_torsion_notions"),
    "torsion.relative_lattice": ("torsion", "relative_lattice"),
    "torsion.wep": ("torsion", "weak_extension_witness"),
    "torsion.rcm": ("torsion", "rcm_verify"),
    "classify.classify": ("classify", "classify"),
    "classify.annihilator": ("classify", "annihilator_of_quasivariety"),
    "classify.collapse": ("classify", "commutative_collapse"),
    "delta.equiv": ("delta", "delta_equiv_quasiidentity"),
}

# the coarse kernels: each call is a whole enumeration or witness search
TIMED_KERNELS = ("enumerate_submodules", "closure_tables", "modularity_witness",
                 "assoc_witness", "module_axiom_witness", "delta_cond1_witness",
                 "delta_cond2_witness")

# called ~1e5 times per run: counted, never timed
COUNTED_KERNELS = ("bits_of", "sum_with_orbit", "span_closure")

# counted only; the count is attributed to the innermost open span
COUNTED = {
    "torsion.closure": ("torsion", "_closure_bits"),
    "torsion.check": ("torsion", "check_torsion_axioms"),
}

LAYERS = ("cli", "rings", "modules", "torsion", "classify", "delta", "kernels")


def _union_seconds(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index); no times while open
        self.stack = []        # indices of open spans
        self.counts = {}       # (counted name, innermost span name) -> calls
        self.distinct = {}     # stem -> {id(result): size}, for cached results
        self._keep = []        # results whose ids are recorded stay alive

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, None, None, parent))
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return wrapper

    def _counted(self, name, fn):
        counts, stack, spans = self.counts, self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, spans[stack[-1]][0] if stack else None)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _sized(self, stem, fn, size):
        """Record size(result) once per distinct result object."""
        seen = self.distinct.setdefault(stem, {})
        keep = self._keep

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if id(result) not in seen:
                seen[id(result)] = size(result)
                keep.append(result)
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Replace ``original`` at every module-level name in the package."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "torsionlab" or modname.startswith("torsionlab.")):
                continue
            if modname in ("torsionlab.kernels", "torsionlab._core", "torsionlab._core_py"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self):
        import torsionlab.cli  # noqa: F401  (every layer module is now loaded)
        from torsionlab import kernels

        def resolve(modname, attr):
            owner = sys.modules[f"torsionlab.{modname}"]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            return owner, attr

        size_of = {"modules.corpus": len, "modules.submodules": len,
                   "modules.lattice": len, "torsion.notions": len,
                   "torsion.rcm": lambda report: report.modules_checked}
        for stem, (modname, attr) in TIMED.items():
            owner, attr = resolve(modname, attr)
            original = getattr(owner, attr, None)
            if original is None:  # renamed or removed: its metrics read 0
                continue
            wrapper = self._timed(stem, original)
            if stem in size_of:
                wrapper = self._sized(stem, wrapper, size_of[stem])
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper)
        for stem, (modname, attr) in COUNTED.items():
            owner, attr = resolve(modname, attr)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._rebind(original, self._counted(stem, original))
        for name in TIMED_KERNELS + COUNTED_KERNELS:
            original = getattr(kernels, name, None)
            if original is None:
                continue
            stem = f"kernels.{name}"
            wrap = self._timed if name in TIMED_KERNELS else self._counted
            setattr(kernels, name, wrap(stem, original))

    # -- aggregation ----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: name -> value (seconds, counts or fractions).
        Call it once every span has closed."""
        spans = self.spans
        by_name = {}
        for name, start, end, _ in spans:
            by_name.setdefault(name, []).append((start, end))
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = {}
        calls = {}
        for idx, (name, start, end, _) in enumerate(spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[idx]
            calls[name] = calls.get(name, 0) + 1

        def inclusive(*names):
            return _union_seconds([iv for n in names for iv in by_name.get(n, ())])

        def count(name, within=None):
            return sum(v for (n, w), v in self.counts.items()
                       if n == name and (within is None or w == within))

        out = {}
        for stem in TIMED:
            out[f"{stem}_s"] = inclusive(stem)
            out[f"{stem}.calls"] = calls.get(stem, 0)
        for name in TIMED_KERNELS:
            out[f"kernels.{name}.s"] = inclusive(f"kernels.{name}")
            out[f"kernels.{name}.calls"] = calls.get(f"kernels.{name}", 0)
        for name in COUNTED_KERNELS:
            out[f"kernels.{name}.calls"] = count(f"kernels.{name}")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum((v for n, v in self_time.items()
                                          if n.split(".")[0] == layer), 0.0)

        distinct = {stem: sum(sizes.values()) for stem, sizes in self.distinct.items()}
        out["rings.constructed"] = calls.get("rings.construct", 0)
        out["modules.constructed"] = calls.get("modules.construct", 0)
        out["modules.corpus_modules"] = distinct.get("modules.corpus", 0)
        out["modules.submodules"] = distinct.get("modules.submodules", 0)
        out["modules.lattice_members"] = distinct.get("modules.lattice", 0)
        out["torsion.modules_checked"] = distinct.get("torsion.rcm", 0)
        out["torsion.relative_lattice_closures"] = count("torsion.closure", "torsion.relative_lattice")
        out["torsion.wep_closures"] = count("torsion.closure", "torsion.wep")
        out["torsion.closures"] = count("torsion.closure")
        out["torsion.candidate_families"] = count("torsion.check", "torsion.notions")
        out["torsion.notions_found"] = distinct.get("torsion.notions", 0)
        out["torsion.notion_yield"] = (out["torsion.notions_found"]
                                       / max(out["torsion.candidate_families"], 1))
        out["delta.instances"] = calls.get("delta.equiv", 0)

        main_s = inclusive("cli.main")
        out["trace.spans"] = len(spans)
        out["trace.coverage_frac"] = 1.0 - self_time.get("cli.main", 0.0) / main_s
        out["share.delta"] = inclusive("delta.equiv") / main_s
        out["share.construct"] = inclusive("rings.construct", "modules.construct") / main_s
        out["share.corpus_lattice"] = inclusive("modules.corpus", "torsion.relative_lattice") / main_s
        return out

