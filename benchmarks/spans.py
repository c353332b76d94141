"""Spans around the public entry points of each ``transvect`` layer.

``Tracer.install`` wraps methods on their class and rebinds module
functions in every ``transvect`` module that imported them; ``remove``
puts the originals back.  Each call records a span (name, start, end,
parent) in memory, and an optional counter hook adds work counts taken
from the call's arguments and result.  Ring arithmetic is not wrapped:
it runs millions of calls, so ``probes.py`` times it instead.
"""

import functools
import sys
import time
from collections import Counter, defaultdict


def _rewrite_counts(counts, args, out):
    counts["rewrite.atoms_emitted"] += len(out.rhs.atoms)
    counts["rewrite.certificate_checks"] += len(out.checks)


def _partition_counts(counts, args, out):
    counts["orbits.orbit_partition.rows"] += len(out.universe)
    counts["orbits.orbit_partition.multiplications"] += \
        out.stats["multiplications"]
    counts["orbits.orbit_partition.bfs_rounds"] += \
        len(out.stats["frontier_sizes"])


# (module, class or None, attribute, span name, counter hook)
ENTRY_POINTS = [
    ("matrices", "SquareMatrix", "__mul__", "matrices.mul", None),
    ("words", "GeneratorWord", "eval", "words.eval",
     lambda c, args, out: c.update({"words.eval.atoms": len(args[0].atoms)})),
    ("relations", None, "verify_relation", "relations.verify_relation", None),
    ("rewrite", None, "conjugate_first_rowcol",
     "rewrite.conjugate_first_rowcol", _rewrite_counts),
    ("rewrite", None, "conjugate_square_ideal",
     "rewrite.conjugate_square_ideal", _rewrite_counts),
    ("identities", None, "splice_telescoping",
     "identities.splice_telescoping", None),
    ("normalforms", None, "reduce_alternating_local",
     "normalforms.reduce_alternating_local", None),
    ("normalforms", None, "reduce_alternating_semilocal",
     "normalforms.reduce_alternating_semilocal", None),
    ("orbits", None, "enumerate_unimodular", "orbits.enumerate_unimodular",
     lambda c, args, out: c.update({"orbits.enumerate_unimodular.rows":
                                    len(out)})),
    ("orbits", None, "generators_for", "orbits.generators_for",
     lambda c, args, out: c.update({"orbits.generators_for.generators":
                                    len(out)})),
    ("orbits", None, "orbit_partition", "orbits.orbit_partition",
     _partition_counts),
    ("orbits", None, "subgroup_closure", "orbits.subgroup_closure",
     lambda c, args, out: c.update({"orbits.subgroup_closure.elements":
                                    len(out)})),
    ("cli", None, "run", "cli.run", None),
]

SPAN_NAMES = [e[3] for e in ENTRY_POINTS]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out
        return traced

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "transvect" or k.startswith("transvect."))
                   and m is not None]
        for mod_name, cls_name, attr, name, hook in ENTRY_POINTS:
            home = sys.modules["transvect." + mod_name]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, orig, hook))
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(home, attr)
            traced = self._wrap(name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, orig))

    def remove(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    def run(self, fn):
        """Run ``fn`` under a root span; returns (result, wall seconds)."""
        root = self._wrap("root", fn, None)
        self.install()
        try:
            t0 = time.perf_counter()
            out = root()
            return out, time.perf_counter() - t0
        finally:
            self.remove()

    def self_times(self):
        """Per span name: (calls, total self seconds).

        Spans nest strictly on one thread, so a span's children are
        disjoint and its self time is its duration minus theirs.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for k, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[k]
        return calls, self_s
