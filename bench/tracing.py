"""Spans around calls into affinerc's modules, recorded from outside the library.

:class:`Tracer` wraps each module's public functions (its ``__all__``; for ``cli``
the functions without a leading underscore) and a few methods, and rebinds every
wrapper in each ``affinerc.*`` namespace that holds the original, because the
modules import one another with ``from .x import f``.  A timed call becomes a span
(name, layer, start, end, parent, raised); the hot accessors in :data:`COUNTED`
only bump a counter.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("sequences", "polynomials", "systems", "algebra", "approximation",
          "ensembles", "cli")

# (layer, class, method) wrapped besides the module-level functions
METHODS = (
    ("systems", "SASSystem", "create"),
    ("systems", "LinearSystem", "create"),
    ("approximation", "TargetFilter", "evaluate"),
    ("approximation", "TrainedModel", "evaluate"),
    ("sequences", "BoundedSequence", "__post_init__"),
    ("sequences", "BoundedSequence", "entry"),
)

# called per matrix entry or per slot: counted, not timed
COUNTED = frozenset({"polynomials.poly_eval", "polynomials.scalar_poly_eval",
                     "sequences.BoundedSequence.entry"})


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index or -1, raised]
        self.counts = Counter()
        self.results = defaultdict(list)  # name -> (span index, result summary)
        self._stack = []
        self._bindings = []  # (owner, attribute, original value)

    # -- recording -------------------------------------------------------------

    def _timed(self, name, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        summarize = SUMMARIES.get(name)
        results = self.results[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, True]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
                span[5] = False
            finally:
                span[3] = clock()
                stack.pop()
            if summarize is not None:
                results.append((idx, summarize(args, kwargs, out)))
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, layer, fn):
        return self._counted(name, fn) if name in COUNTED else self._timed(name, layer, fn)

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind; the ``affinerc`` modules must already be imported."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "affinerc" or n.startswith("affinerc."))]
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"affinerc.{layer}"]
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", layer, fn))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"affinerc.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, layer, raw.__func__))
            else:
                new = self._wrap(name, layer, raw)
            self._bindings.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._bindings):
            setattr(owner, attr, value)
        self._bindings = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end, _, _), c in zip(self.spans, child)]

    def outermost(self, idx: int) -> bool:
        """True unless an enclosing span has the same name (recursion, re-entry)."""
        name = self.spans[idx][0]
        parent = self.spans[idx][4]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][4]
        return True

    def write(self, path: str) -> None:
        """All spans as CSV: name, layer, start_s, end_s, parent, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,layer,start_s,end_s,parent,raised\n")
            for name, layer, start, end, parent, raised in self.spans:
                fh.write(f"{name},{layer},{start!r},{end!r},{parent},{int(raised)}\n")


# what the per-layer metrics need from a call's result, kept small
SUMMARIES = {
    "polynomials.norm_certificate": lambda a, k, r: r.M_p_upper == r.B_p,
    "systems.linear_run": lambda a, k, r: r.states.shape[0],
    "systems.sas_terminal_states_batch": lambda a, k, r: r.shape[0],
    "approximation.harvest_states": lambda a, k, r: r.shape[0],
    "ensembles.transfer_check": lambda a, k, r: r.n_paths,
}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of the benchmark, from one tracer's spans and counts."""
    spans = tracer.spans
    self_t = tracer.self_times()
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def total(*names):
        return sum(spans[i][3] - spans[i][2] for n in names for i in by_name[n]
                   if tracer.outermost(i))

    def calls(name):
        return len(by_name[name])

    def parent_name(i):
        p = spans[i][4]
        return spans[p][0] if p >= 0 else None

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans) if s[1] == layer]
        m[f"{layer}.self_s"] = sum(self_t[i] for i in idx)
        m[f"{layer}.calls"] = len(idx)
        m[f"{layer}.errors"] = sum(1 for i in idx if spans[i][5])

    certs = tracer.results["polynomials.norm_certificate"]
    m["polynomials.norm_certificate.calls"] = calls("polynomials.norm_certificate")
    m["polynomials.norm_certificate.total_s"] = total("polynomials.norm_certificate")
    m["polynomials.norm_certificate.capped_ratio"] = ratio(
        sum(1 for _, capped in certs if capped), len(certs))
    m["polynomials.check_conditions.total_s"] = total("polynomials.check_conditions")
    m["polynomials.spectral_norm.calls"] = calls("polynomials.spectral_norm")
    m["polynomials.poly_eval.calls"] = tracer.counts["polynomials.poly_eval"]

    for fn in ("sas_run_series", "sas_run_recursion", "linear_run"):
        m[f"systems.{fn}.total_s"] = total(f"systems.{fn}")
    for fn in ("sas_functional", "linear_functional"):
        m[f"systems.{fn}.calls"] = calls(f"systems.{fn}")
        m[f"systems.{fn}.total_s"] = total(f"systems.{fn}")
    rows = sum(r for i, r in tracer.results["systems.linear_run"]
               if parent_name(i) == "systems.linear_functional")
    m["systems.linear_functional.rows_per_value"] = ratio(
        rows, calls("systems.linear_functional"))
    m["systems.sas_state.calls"] = calls("systems.sas_state")
    m["systems.linear_state.calls"] = calls("systems.linear_state")
    batch = tracer.results["systems.sas_terminal_states_batch"]
    m["systems.sas_terminal_states_batch.total_s"] = total("systems.sas_terminal_states_batch")
    m["systems.sas_terminal_states_batch.rows"] = sum(r for _, r in batch)
    m["systems.create.total_s"] = total("systems.SASSystem.create",
                                        "systems.LinearSystem.create")

    m["approximation.harvest_states.total_s"] = total("approximation.harvest_states")
    harvested = sum(r for _, r in tracer.results["approximation.harvest_states"])
    m["approximation.harvest_states.batch_ratio"] = ratio(
        sum(r for i, r in batch if parent_name(i) == "approximation.harvest_states"),
        harvested)

    for fn in ("sas_add", "sas_multiply", "linear_combine"):
        m[f"algebra.{fn}.total_s"] = total(f"algebra.{fn}")
    comps = [i for n in ("algebra.sas_add", "algebra.sas_multiply", "algebra.linear_combine")
             for i in by_name[n]]
    m["algebra.certified_ratio"] = ratio(sum(1 for i in comps if not spans[i][5]), len(comps))

    m["approximation.sample_candidate.total_s"] = total("approximation.sample_candidate")
    m["approximation.train_readout.total_s"] = total("approximation.train_readout")
    m["approximation.target_eval.total_s"] = total("approximation.TargetFilter.evaluate")
    m["approximation.sup_error.total_s"] = total("approximation.sup_error")

    for fn in ("generate_ensemble", "pathwise_apply", "transfer_check"):
        m[f"ensembles.{fn}.total_s"] = total(f"ensembles.{fn}")
    in_check = set(by_name["ensembles.transfer_check"])
    evals = 0
    for i in by_name["systems.evaluate_filter"]:
        p = spans[i][4]
        if p >= 0 and spans[p][0] in ("ensembles.pathwise_apply", "approximation.sup_error") \
                and spans[p][4] in in_check:
            evals += 1
    m["ensembles.transfer_check.evals_per_path"] = ratio(
        evals, sum(r for _, r in tracer.results["ensembles.transfer_check"]))

    m["sequences.BoundedSequence.count"] = calls("sequences.BoundedSequence.__post_init__")
    m["sequences.entry.calls"] = tracer.counts["sequences.BoundedSequence.entry"]
    m["sequences.sequence_from_csv.total_s"] = total("sequences.sequence_from_csv")
    return m
