"""Layer probes on fixed seeded operands, through the public API only.

``ring_probe`` times element add, mul and equality per ring kind in
nanoseconds per operation; ``word_probe`` times ``GeneratorWord.eval``
in microseconds per atom at sizes 4/6/8 over ``zmod:9`` and
``poly:dyadic``.  Each figure is the median of several repeats.
"""

import random
import statistics
import time

from transvect.rings import Dyadic, PolyRing, Zmod, sample_element
from transvect.words import GeneratorWord, se

PROBE_SEED = 20110808
SIZES = (4, 6, 8)


def _rings():
    return {"zmod": Zmod(9), "dyadic": Dyadic(),
            "poly": PolyRing(Dyadic(), ("a", "b"))}


def _per_op(fn, ops, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / ops


def ring_probe(pairs=400, repeats=7):
    rng = random.Random(PROBE_SEED)
    out = {}
    for kind, ring in _rings().items():
        xs = [sample_element(ring, rng) for _ in range(pairs)]
        ys = [sample_element(ring, rng) for _ in range(pairs)]
        zipped = list(zip(xs, ys))

        def add():
            for x, y in zipped:
                x + y

        def mul():
            for x, y in zipped:
                x * y

        out["rings.add_ns." + kind] = _per_op(add, pairs, repeats) * 1e9
        out["rings.mul_ns." + kind] = _per_op(mul, pairs, repeats) * 1e9
        if kind == "poly":
            # equal values in distinct objects: equality compares in full
            copies = list(zip(xs, [ring.element(dict(x.value)) for x in xs]))

            def eq():
                for x, y in copies:
                    x == y

            out["rings.eq_ns.poly"] = _per_op(eq, pairs, repeats) * 1e9
    return out


def word_probe(length=8, words=4, repeats=3):
    rng = random.Random(PROBE_SEED)
    rings = {"zmod": Zmod(9), "poly": _rings()["poly"]}
    out = {}
    for kind, ring in rings.items():
        for size in SIZES:
            batch = []
            for _ in range(words):
                atoms = []
                for _ in range(length):
                    i, j = rng.sample(range(1, size + 1), 2)
                    atoms.append(se(i, j, sample_element(ring, rng)))
                batch.append(GeneratorWord(ring, size, atoms))

            def evaluate():
                for w in batch:
                    w.eval()

            out["words.eval_us_per_atom.%s.n%d" % (kind, size)] = \
                _per_op(evaluate, words * length, repeats) * 1e6
    return out
