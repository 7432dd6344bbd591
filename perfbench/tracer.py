"""Per-layer tracing from outside the library.

``Tracer.install()`` wraps chosen ``loopsl2`` functions on every binding
they have: each ``loopsl2.*`` module namespace that holds them (including
names imported from another module) and each module-level dispatch dict
such as ``loopmod._ACT`` and ``loopmod._ACT_TERMS``.  A wrapper records a
span (name, start, end, parent, op id) and folds it into per-group
``calls`` and ``self_s``: the span's duration minus the time its wrapped
children cover, with the tracer's own bookkeeping charged to the child so
a parent's self time excludes it.  Exceptions escaping a wrapped call into
a different layer (or out of the library) count as that layer's errors.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# group name -> (module, function names).  The group's first dotted part is
# its layer.
GROUPS = {
    "loopmod.push": ("loopmod", ("_push",)),
    "loopmod.attach": ("loopmod", ("_attach_pure",)),
    "loopmod.closed_act": ("loopmod", ("act_f", "act_h", "act_e", "act_word",
                                       "_act_f_terms", "_act_h_terms", "_act_e_terms")),
    "loopmod.formal_e": ("loopmod", ("formal_e", "is_singular")),
    "checks.sweep": ("checks", ("oracle_equivalence_failures", "_oracle_walk")),
    "realization.apply_sym": ("realization", ("apply_sym",)),
    "realization.theta": ("realization", ("theta",)),
    "realization.classify_hom": ("realization", ("classify_hom",)),
    "linalg.echelon": ("linalg", ("echelon",)),
    "linalg.kernel_basis": ("linalg", ("kernel_basis",)),
    "linalg.reduced_row_basis": ("linalg", ("reduced_row_basis",)),
    "singular.singular_space": ("singular", ("singular_space",)),
    "singular.discriminant_image_space": ("singular", ("discriminant_image_space",)),
    "singular.conjecture_scan": ("singular", ("conjecture_scan",)),
    "singular.window_monomials": ("singular", ("window_monomials",)),
    "singular.build_singular": ("singular", ("build_singular",)),
    "singular.theta_divisibility": ("singular", ("theta_divisibility",)),
    "symlaurent.sym_mul": ("symlaurent", ("sym_mul",)),
    "symlaurent.expand": ("symlaurent", ("expand",)),
    "symlaurent.symmetrize": ("symlaurent", ("symmetrize",)),
    "symlaurent.divide_exact": ("symlaurent", ("divide_exact",)),
    "serialize.loads": ("serialize", ("loads_element", "loads_sym",
                                      "loads_tlaurent", "loads_expfunction")),
    "serialize.dumps": ("serialize", ("dumps_element", "dumps_sym",
                                      "dumps_tlaurent", "dumps_expfunction")),
    "cli.main": ("cli", ("main",)),
    "expmod.component_dim": ("expmod", ("component_dim",)),
    "expmod.image_period": ("expmod", ("image_period",)),
}

LAYERS = ("loopmod", "checks", "realization", "linalg", "singular",
          "symlaurent", "serialize", "cli", "expmod")

# Groups that must record calls on a workload, because the metrics they feed
# are expected to move there.  A miss means a binding was not wrapped.
COVERAGE = {
    "oracle-sweep": ("loopmod.push", "loopmod.attach", "loopmod.closed_act",
                     "checks.sweep"),
    "window-scan": ("loopmod.formal_e", "realization.apply_sym", "linalg.echelon",
                    "linalg.kernel_basis", "linalg.reduced_row_basis",
                    "singular.singular_space", "singular.discriminant_image_space",
                    "singular.conjecture_scan"),
    "exact-division": ("symlaurent.sym_mul", "symlaurent.expand",
                       "symlaurent.symmetrize", "symlaurent.divide_exact",
                       "singular.build_singular", "singular.theta_divisibility",
                       "realization.theta"),
    "cli-requests": ("cli.main", "loopmod.closed_act", "realization.classify_hom",
                     "singular.build_singular", "realization.theta",
                     "serialize.loads", "serialize.dumps", "expmod.component_dim"),
}

SPAN_CAP = 20_000   # spans kept for the sidecar; later ones are only aggregated


class Tracer:
    def __init__(self):
        self.stack = []         # open frames: [child_s, layer, span_id, group]
        self.calls = dict.fromkeys(GROUPS, 0)
        self.self_s = dict.fromkeys(GROUPS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters = {"echelon.cells": 0, "echelon.max_entry_bits": 0,
                         "apply_sym.terms_out": 0, "divide_exact.quotient_terms": 0,
                         "scan.window_monomials": 0, "scan.rows": 0,
                         "scan.first_try_rows": 0, "serialize.bytes": 0,
                         "sweep.comparisons": 0,
                         "cli.usage_errors": 0}
        self.spans = []
        self.span_count = 0
        self.op_id = -1
        self.restore = []       # (namespace, key, original) of every rebinding

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "loopsl2" or name.startswith("loopsl2.")}
        for group, (modname, names) in GROUPS.items():
            mod = modules[f"loopsl2.{modname}"]
            for name in names:
                fn = getattr(mod, name)
                self.restore += _rebind(modules.values(), fn, self._wrap(fn, group))

    def uninstall(self):
        for space, key, original in reversed(self.restore):
            space[key] = original
        self.restore = []

    def _wrap(self, fn, group):
        tracer, stack = self, self.stack
        layer, post = group.split(".")[0], _POST.get(group)

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            span_id = tracer.span_count
            tracer.span_count += 1
            frame = [0.0, layer, span_id, group]
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                if parent is None or parent[1] != layer:
                    tracer.errors[layer] += 1
                if group == "cli.main" and isinstance(exc, SystemExit) and exc.code == 2:
                    tracer.counters["cli.usage_errors"] += 1
                tracer._close(group, parent, frame, span_id, t0, t1)
                raise
            t1 = perf_counter()
            stack.pop()
            if post is not None:
                post(tracer, parent, args, kwargs, result)
            tracer._close(group, parent, frame, span_id, t0, t1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        return wrapper

    def _close(self, group, parent, frame, span_id, t0, t1):
        self.calls[group] += 1
        self.self_s[group] += (t1 - t0) - frame[0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.op_id, span_id, parent[2] if parent else -1,
                               group, t0, t1))
        if parent is not None:
            parent[0] += perf_counter() - t0

    # -- results ----------------------------------------------------------

    def metrics(self, loopmod) -> dict:
        c, calls, self_s = self.counters, self.calls, self.self_s
        m = {}

        def timed(group, with_calls=True):
            if with_calls:
                m[f"{group}.calls"] = (calls[group], "count")
            m[f"{group}.self_s"] = (self_s[group], "s")

        timed("loopmod.push")
        m["loopmod.push.cache_entries"] = (len(getattr(loopmod, "_PUSH_CACHE", ())), "count")
        timed("loopmod.attach")
        m["loopmod.attach.cache_entries"] = (len(getattr(loopmod, "_ATTACH_CACHE", ())), "count")
        timed("loopmod.closed_act")
        timed("loopmod.formal_e")
        timed("checks.sweep", with_calls=False)
        m["checks.sweep.comparisons"] = (c["sweep.comparisons"], "count")
        timed("realization.apply_sym")
        m["realization.apply_sym.terms_out"] = (c["apply_sym.terms_out"], "count")
        timed("linalg.echelon")
        m["linalg.echelon.cells"] = (c["echelon.cells"], "count")
        m["linalg.echelon.max_entry_bits"] = (c["echelon.max_entry_bits"], "bit")
        timed("linalg.kernel_basis", with_calls=False)
        timed("linalg.reduced_row_basis", with_calls=False)
        timed("singular.singular_space", with_calls=False)
        timed("singular.discriminant_image_space", with_calls=False)
        timed("singular.conjecture_scan", with_calls=False)
        m["singular.scan.window_monomials"] = (c["scan.window_monomials"], "count")
        m["singular.scan.first_try_ratio"] = (
            c["scan.first_try_rows"] / c["scan.rows"] if c["scan.rows"] else 0.0, "1")
        timed("symlaurent.sym_mul")
        timed("symlaurent.expand", with_calls=False)
        timed("symlaurent.symmetrize", with_calls=False)
        timed("symlaurent.divide_exact")
        m["symlaurent.divide_exact.quotient_terms"] = (c["divide_exact.quotient_terms"], "count")
        timed("singular.build_singular")
        timed("singular.theta_divisibility", with_calls=False)
        timed("realization.theta", with_calls=False)
        timed("realization.classify_hom")
        timed("serialize.loads", with_calls=False)
        timed("serialize.dumps", with_calls=False)
        m["serialize.bytes"] = (c["serialize.bytes"], "B")
        timed("cli.main")
        m["cli.main.usage_errors"] = (c["cli.usage_errors"], "count")
        timed("expmod.component_dim", with_calls=False)
        m["expmod.calls"] = (calls["expmod.component_dim"] + calls["expmod.image_period"], "count")
        for layer in LAYERS:
            m[f"{layer}.errors"] = (self.errors[layer], "count")
        return m

    def uncovered(self, workload) -> list:
        return [g for g in COVERAGE[workload] if not self.calls[g]]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "span", "parent", "group", "start_s", "end_s"],
                       "kept": len(self.spans), "total": self.span_count,
                       "spans": self.spans}, fh)


def _rebind(modules, fn, wrapper) -> list:
    """Point every module-level name and dispatch-dict entry bound to fn at
    wrapper; returns what to restore."""
    done = []
    for mod in modules:
        space = vars(mod)
        for name, value in list(space.items()):
            if name.startswith("__"):
                continue
            if value is fn:
                done.append((space, name, fn))
                space[name] = wrapper
            elif type(value) is dict:
                for key, item in value.items():
                    if item is fn:
                        done.append((value, key, fn))
                        value[key] = wrapper
    return done


# -- counters recorded at the layer boundaries --------------------------------


def _post_echelon(tr, parent, args, kwargs, result):
    rows = args[0]
    tr.counters["echelon.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    bits = max((abs(x).bit_length() for row in result[0] for x in row), default=0)
    tr.counters["echelon.max_entry_bits"] = max(tr.counters["echelon.max_entry_bits"], bits)


def _post_apply_sym(tr, parent, args, kwargs, result):
    tr.counters["apply_sym.terms_out"] += len(result.terms)


def _post_divide(tr, parent, args, kwargs, result):
    tr.counters["divide_exact.quotient_terms"] += len(result.terms)


def _post_window(tr, parent, args, kwargs, result):
    if parent is not None and parent[3] == "singular.conjecture_scan":
        tr.counters["scan.window_monomials"] += len(result)


def _post_scan(tr, parent, args, kwargs, result):
    slack = args[5] if len(args) > 5 else kwargs["slack"]
    tr.counters["scan.rows"] += len(result)
    tr.counters["scan.first_try_rows"] += sum(r.slack == slack for r in result)


def _post_closed_act(tr, parent, args, kwargs, result):
    # the sweep walk makes one closed-action call per (word, monomial) pair
    if parent is not None and parent[3] == "checks.sweep":
        tr.counters["sweep.comparisons"] += 1


def _post_loads(tr, parent, args, kwargs, result):
    tr.counters["serialize.bytes"] += len(args[0])


def _post_dumps(tr, parent, args, kwargs, result):
    tr.counters["serialize.bytes"] += len(result)


def _post_main(tr, parent, args, kwargs, result):
    if result == 2:
        tr.counters["cli.usage_errors"] += 1


_POST = {
    "linalg.echelon": _post_echelon,
    "realization.apply_sym": _post_apply_sym,
    "symlaurent.divide_exact": _post_divide,
    "singular.window_monomials": _post_window,
    "singular.conjecture_scan": _post_scan,
    "loopmod.closed_act": _post_closed_act,
    "serialize.loads": _post_loads,
    "serialize.dumps": _post_dumps,
    "cli.main": _post_main,
}
