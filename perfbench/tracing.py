"""Outside-in tracing of planebranch, done entirely from the benchmark's side.

Nothing in the library is edited.  ``Tracer.install`` replaces every
module-level binding of the traced functions, in every loaded
``planebranch`` module, with one timing wrapper.  Calls between modules
(puiseux calling ``semigroup_of``, branch calling
``intersection_multiplicity``) are therefore caught as well as calls made
by the benchmark.  On ``NumericContext`` the ``poly_roots`` method gets a
span and ``__init__`` counts one attempt per precision tier.
``uninstall`` puts every original object back.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, parent
being the index of the enclosing span or -1, and are written out when the
run ends.  A span's self time is its duration minus the durations of its
direct children; wrappers nest strictly, so children never overlap.
"""

import json
import sys
import time
from collections import Counter

#: layer (module of planebranch) -> functions traced in it.  All are public
#: except ``_expand_bipoly``, the one expansion entry point the oracle uses.
#: A name a loaded module no longer has is skipped and reported as missing.
TRACED = {
    "puiseux": ("verify_decomposition", "puiseux_expand", "_expand_bipoly"),
    "diagram": ("lower_hull",),
    "branch": ("semigroup_of", "characteristic_roots", "approximate_root", "build_test_branch"),
    "poly": ("intersection_multiplicity", "resultant_y", "jacobian_det", "milnor_number"),
    "parsing": ("parse_poly",),
    "cli": ("main",),
    "jacobian": ("jnd_formula", "jnd_family", "family_from_json_dict", "recovery_data"),
}
TIERS = (53, 128, 256, 512)


def span_names():
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    names.insert(names.index("puiseux._expand_bipoly") + 1, "puiseux.NumericContext.poly_roots")
    return names


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.tiers = Counter()
        self.missing = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of its own (the benchmark's roots)."""
        return self._wrap(name, fn)(*args)

    def install(self):
        self.missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "planebranch" or key.startswith("planebranch."))]
        for layer, fns in TRACED.items():
            home = sys.modules.get(f"planebranch.{layer}")
            if home is None:  # a module the workload never imports has no calls
                continue
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{layer}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))
        puiseux = sys.modules.get("planebranch.puiseux")
        cls = getattr(puiseux, "NumericContext", None)
        if cls is None:
            self.missing.append("puiseux.NumericContext")
            return
        init, roots = cls.__init__, cls.poly_roots
        tiers = self.tiers

        def counted_init(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            tiers[ctx.bits] += 1

        cls.__init__ = counted_init
        cls.poly_roots = self._wrap("puiseux.NumericContext.poly_roots", roots)
        self._undo += [(cls, "__init__", init), (cls, "poly_roots", roots)]

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading ---------------------------------------------------------

    def tally(self):
        """Per-name calls and self time, plus per-layer self time under op roots.

        Returns (per_name, per_layer_op_self, op_seconds, op_rooted_calls).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        root = [0] * len(spans)
        for i, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        per_name = {}
        layer_self = Counter()
        op_calls = Counter()
        op_seconds = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - child[i]
            calls, total = per_name.get(name, (0, 0.0))
            per_name[name] = (calls + 1, total + own)
            if spans[root[i]][0] == "op":
                if parent < 0:
                    op_seconds += end - start
                else:
                    layer_self[name.split(".", 1)[0]] += own
                    op_calls[name] += 1
        return per_name, layer_self, op_seconds, op_calls

    def dump(self, path):
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(start - base, 7), round(end - base, 7), parent]
                for name, start, end, parent in self.spans]
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, out,
                      separators=(",", ":"))
