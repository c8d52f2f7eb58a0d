"""Span tracing of lipvar's public functions, installed from outside the package.

``Tracer.install`` replaces the public functions and methods it lists with
wrappers that record one span per call: name, start, end,
parent span, the op it belongs to, and a small note read off the call's
arguments or result.  Spans stay in memory; ``layer_metrics`` turns them into
the per-layer counts and self times, and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import weakref
from time import perf_counter


def _band_mb(domain):
    # computed, not measured: (band_rows + 1) * nx^2 float64
    return (domain.band_rows + 1) * domain.nx ** 2 * 8 / 1e6


def _quad_nodes(kernel):
    """Nodes of the accepted composite Gauss rule of a b-segment.

    Mirrors the order rule of ``kernels._b_quadrature``: 2-point panels below
    0.4 h, 4-point panels otherwise.
    """
    a, b = kernel.meta["segment"]
    n = kernel.meta["panels"]
    order = 2 if (b - a) / n < 0.4 * kernel.domain.h else 4
    return n * order


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, note]
        self.op = "setup"        # op id stamped on new spans; None = untracked
        self._stack = []
        self._serial = weakref.WeakKeyDictionary()
        self._undo = []

    def domain_id(self, domain) -> int:
        """Stable serial per domain object (ids are reused after collection)."""
        if domain not in self._serial:
            self._serial[domain] = len(self._serial) + 1
        return self._serial[domain]

    def wrap(self, name, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, perf_counter(), None, parent, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if note is not None:
                span[5] = note(args, out)
            return out

        return traced

    def _patch_function(self, module, attr, wrapped):
        """Replace a module-level function everywhere lipvar imported it."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("lipvar"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr, wrapped):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def install(self):
        from lipvar import kernels, omega, variation_measure
        from lipvar.domain_field import grid, wos

        funcs = [
            (grid, "harmonic_extension", "grid.solve",
             lambda a, o: (self.domain_id(a[0]), "reflect")),
            (grid, "harmonic_measure", "grid.solve",
             lambda a, o: (self.domain_id(a[0]), "absorb")),
            (grid, "greens_function", "grid.solve",
             lambda a, o: (self.domain_id(a[0]), "absorb")),
            (wos, "wos_harmonic_measure", "wos",
             lambda a, o: (int(a[2]), int(o.capped_walks))),
            (kernels, "build_b_segment", "kernels.b_segment",
             lambda a, o: _quad_nodes(o)),
            (kernels, "build_b", "kernels.build_b", None),
            (kernels, "build_c", "kernels.build_c", None),
            (kernels, "compose", "kernels.compose",
             lambda a, o: 2.0 * a[0].domain.nx ** 3),
            (kernels, "apply_b", "kernels.apply_b", None),
            (omega, "omega_limit", "omega.limit", None),
            (variation_measure, "nu_limit", "variation_measure.nu", None),
            (variation_measure, "vertical_variation", "variation_measure.vv",
             lambda a, o: o.n_evals),
            (variation_measure, "probe_ball", "variation_measure.probe", None),
        ]
        for module, attr, name, note in funcs:
            fn = getattr(module, attr)
            self._patch_function(module, attr, self.wrap(name, fn, note))
        methods = [
            (grid.DiscreteDomain, "kernel_table", "grid.band",
             lambda a, o: (self.domain_id(a[0]), _band_mb(a[0]))),
            (grid.DiscreteDomain, "power_rows", "grid.power",
             lambda a, o: self.domain_id(a[0])),
            (grid.DiscreteDomain, "stencil_rows", "grid.stencil", None),
            (omega.OmegaWorkspace, "omega_entries", "omega.entries", None),
            (omega.OmegaWorkspace, "omega_tilde_entries", "omega.factor", None),
            (omega.OmegaWorkspace, "pi_entries", "omega.pi", None),
            (omega.OmegaWorkspace, "b_entries", "omega.b_entries", None),
            (omega.OmegaLadder, "__init__", "omega.ladder", None),
        ]
        for cls, attr, name, note in methods:
            self._patch_method(cls, attr, self.wrap(name, cls.__dict__[attr], note))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path, meta):
        rows = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4], "note": s[5]} for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": rows}, fh, default=str)


# -- derived metrics -------------------------------------------------------------


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child[s[3]] += _dur(s)
    return [_dur(s) - c for s, c in zip(spans, child)]


def _first_spans(spans, name, key=lambda note: note):
    """The first span of ``name`` per key(note), in call order."""
    seen, out = set(), []
    for s in spans:
        if s[0] == name and s[5] is not None and key(s[5]) not in seen:
            seen.add(key(s[5]))
            out.append(s)
    return out


def _dur(span):
    return span[2] - span[1]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans, op_ids, op_wall):
    """Per-layer metrics: per-op means over the timed ops, first-call medians.

    ``op_ids`` are the ids of the timed ops and ``op_wall`` their wall
    seconds.  Times are self times, except the inclusive first-call medians
    (first solve per closure, band build, first power call; these include
    set-up spans) and the inclusive omega.limit_s and omega.ladder_s.
    """
    n_ops = max(len(op_ids), 1)
    ops = set(op_ids)
    self_t = _self_times(spans)
    count, busy = {}, {}
    for s, t in zip(spans, self_t):
        if s[4] in ops:
            count[s[0]] = count.get(s[0], 0) + 1
            busy[s[0]] = busy.get(s[0], 0.0) + t

    def per_op_count(name):
        return count.get(name, 0) / n_ops

    def per_op_s(name):
        return busy.get(name, 0.0) / n_ops

    in_ops = [i for i, s in enumerate(spans) if s[4] in ops]
    children = {}
    for i in in_ops:
        p = spans[i][3]
        if p is not None:
            children.setdefault(p, []).append(i)

    # quadrature: accepted-rule nodes against all build_b evaluations
    accepted = evaluated = 0
    for i in in_ops:
        if spans[i][0] == "kernels.b_segment":
            accepted += spans[i][5]
            evaluated += sum(spans[c][0] == "kernels.build_b" for c in children.get(i, ()))
    # b cache: b_entries calls that did not run a b-segment quadrature
    b_calls = [i for i in in_ops if spans[i][0] == "omega.b_entries"]
    b_hits = sum(not children.get(i) for i in b_calls)
    # dyadic levels: pi products per limit that was computed, not cached
    levels = [sum(spans[c][0] == "omega.pi" for c in children.get(i, ()))
              for i in in_ops if spans[i][0] == "omega.entries"]
    levels = [n for n in levels if n]
    walks = sum(spans[i][5][0] for i in in_ops if spans[i][0] == "wos")
    capped = sum(spans[i][5][1] for i in in_ops if spans[i][0] == "wos")
    wos_s = busy.get("wos", 0.0)
    gflop = sum(spans[i][5] for i in in_ops if spans[i][0] == "kernels.compose") / 1e9
    top = sum(_dur(spans[i]) for i in in_ops if spans[i][3] is None)
    wall = sum(op_wall)

    bands = _first_spans(spans, "grid.band", key=lambda note: note[0])

    def per_op_inclusive(name):
        return sum(_dur(spans[i]) for i in in_ops if spans[i][0] == name) / n_ops

    return {
        "grid.first_solve_s": _median([_dur(s) for s in _first_spans(spans, "grid.solve")]),
        "grid.solve_calls": per_op_count("grid.solve"),
        "grid.solve_s": per_op_s("grid.solve"),
        "grid.band_s": _median([_dur(s) for s in bands]),
        "grid.band_mb": _median([s[5][1] for s in bands]),
        "grid.eig_s": _median([_dur(s) for s in _first_spans(spans, "grid.power")]),
        "grid.power_calls": per_op_count("grid.power"),
        "grid.power_s": per_op_s("grid.power"),
        "grid.stencil_calls": per_op_count("grid.stencil"),
        "grid.stencil_s": per_op_s("grid.stencil"),
        "wos.s": wos_s / n_ops,
        "wos.walks_per_s": walks / wos_s if wos_s > 0 else 0.0,
        "wos.capped_frac": capped / walks if walks else 0.0,
        "kernels.b_segment_calls": per_op_count("kernels.b_segment"),
        "kernels.b_segment_s": per_op_s("kernels.b_segment"),
        "kernels.b_evals": per_op_count("kernels.build_b"),
        "kernels.quad_useful_ratio": accepted / evaluated if evaluated else 0.0,
        "kernels.build_c_s": per_op_s("kernels.build_c"),
        "kernels.compose_calls": per_op_count("kernels.compose"),
        "kernels.compose_s": per_op_s("kernels.compose"),
        "kernels.compose_gflop": gflop / n_ops,
        "kernels.apply_b_calls": per_op_count("kernels.apply_b"),
        "kernels.apply_b_s": per_op_s("kernels.apply_b"),
        "omega.limit_calls": per_op_count("omega.limit"),
        "omega.limit_s": per_op_inclusive("omega.limit"),
        "omega.levels": sum(levels) / len(levels) if levels else 0.0,
        "omega.factors": per_op_count("omega.factor"),
        "omega.pi_s": per_op_s("omega.pi"),
        "omega.b_cache_hit_ratio": b_hits / len(b_calls) if b_calls else 0.0,
        "omega.ladder_s": per_op_inclusive("omega.ladder"),
        "variation_measure.nu_s": per_op_s("variation_measure.nu"),
        "variation_measure.vv_s": per_op_s("variation_measure.vv"),
        "variation_measure.vv_evals": sum(
            spans[i][5] for i in in_ops if spans[i][0] == "variation_measure.vv") / n_ops,
        "variation_measure.probe_s": per_op_s("variation_measure.probe"),
        "trace.untraced_frac": (wall - top) / wall if wall > 0 else 0.0,
    }


def op_counts(spans, op_id):
    """Exact work counts of one op, for the same-seed repeat check."""
    names = {"grid.power": "grid.power_calls", "grid.solve": "grid.solve_calls",
             "kernels.build_b": "kernels.b_evals",
             "kernels.compose": "kernels.compose_calls",
             "omega.factor": "omega.factors"}
    out = {v: 0 for v in names.values()}
    children = {}
    for i, s in enumerate(spans):
        if s[4] != op_id:
            continue
        if s[0] in names:
            out[names[s[0]]] += 1
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)
    out["omega.levels"] = sum(
        spans[c][0] == "omega.pi"
        for i, s in enumerate(spans) if s[4] == op_id and s[0] == "omega.entries"
        for c in children.get(i, ()))
    return out
