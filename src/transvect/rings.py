"""Exact arithmetic over the supported coefficient rings.

Supported rings (2 is a unit in all of them):

* ``Zmod(m)``   -- integers mod m, m odd >= 3
* ``GF(p)``     -- prime field, p an odd prime
* ``Dyadic()``  -- Z[1/2], pairs n/2^k in lowest terms
* ``PolyRing(base, vars)`` -- sparse multivariate polynomials over one of
  the above, each monomial packed into one int key in graded order

Rings are canonical: constructing or parsing the same ring twice gives
the same object, so rings compare and hash by identity.  Elements are
immutable and canonical: two elements are equal iff they lie in the same
ring and their representations are equal; an element never equals an
int.  All arithmetic is exact.
"""

from __future__ import annotations

import struct
from math import gcd


class RingError(ValueError):
    pass


class DescriptorError(RingError):
    """Malformed ring or ideal descriptor text, or a group family given a
    size or ideal that does not fit it."""


def _is_prime(n):
    return n >= 2 and prime_factors(n) == [n]


_RINGS = {}


class _Canonical(type):
    """One object per ring: a constructor call validates its arguments,
    then returns the ring already built for the same descriptor, if any."""

    def __call__(cls, *args):
        ring = super().__call__(*args)
        return _RINGS.setdefault(ring.descriptor(), ring)


class RingDescriptor(metaclass=_Canonical):
    """Base class for ring descriptors.  Instances are immutable and
    canonical, and compare by identity.  Each subclass owns its elements'
    ``value`` layout: the raw-value ``_add``, ``_neg``, ``_mul`` (each
    returns a raw value, which ``RingElement`` wraps), ``_is_zero`` and
    ``_format``, and JSON and sampling."""

    def element(self, raw):
        """Coerce ``raw`` (int, RingElement, ...) into this ring."""
        raise NotImplementedError

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def half(self):
        """The inverse of 2; exists in every constructible ring."""
        raise NotImplementedError

    def descriptor(self):
        """Serialized form, e.g. ``zmod:9`` or ``poly:dyadic:a,b``."""
        raise NotImplementedError

    def __repr__(self):
        return self.descriptor()


class Zmod(RingDescriptor):
    kind = "zmod"

    def __init__(self, m):
        if m < 3 or m % 2 == 0:
            raise RingError("Z/m requires odd m >= 3 (2 must be a unit); got m=%r" % (m,))
        self.m = m

    def element(self, raw):
        if isinstance(raw, RingElement):
            if raw.ring is not self:
                raise RingError("element of %s used in %s" % (raw.ring, self))
            return raw
        return RingElement(self, int(raw) % self.m)

    def half(self):
        return self.element((self.m + 1) // 2)

    def _add(self, a, b):
        return (a + b) % self.m

    def _neg(self, a):
        return -a % self.m

    def _mul(self, a, b):
        return a * b % self.m

    def _is_zero(self, a):
        return a == 0

    def _format(self, a):
        return str(a)

    def to_json(self, elt):
        return elt.value

    def from_json(self, data):
        return self.element(data)

    def sample(self, rng):
        """Uniform over Z/m; deterministic for a seeded ``rng``."""
        return self.element(rng.randrange(self.m))

    def is_unit(self, elt):
        return gcd(elt.value, self.m) == 1

    def invert(self, elt):
        if not self.is_unit(elt):
            raise RingError("%r is not a unit mod %d" % (elt.value, self.m))
        return self.element(pow(elt.value, -1, self.m))

    def descriptor(self):
        return "%s:%d" % (self.kind, self.m)


class GF(Zmod):
    kind = "gf"

    def __init__(self, p):
        if not _is_prime(p) or p == 2:
            raise RingError("GF(p) requires an odd prime; got %r" % (p,))
        super().__init__(p)


class Dyadic(RingDescriptor):
    """Z[1/2]: values n/2^k with n odd or zero, k >= 0."""

    def element(self, raw):
        if isinstance(raw, RingElement):
            if raw.ring is not self:
                raise RingError("element of %s used in %s" % (raw.ring, self))
            return raw
        num, k = raw if isinstance(raw, tuple) else (int(raw), 0)
        return RingElement(self, self._reduced(num, k))

    def _reduced(self, num, k):
        """The raw value of num/2^k, brought to lowest terms."""
        if num == 0:
            return (0, 0)
        if k > 0 and not num & 1:
            shift = min((num & -num).bit_length() - 1, k)
            num >>= shift
            k -= shift
        if k < 0:
            raise RingError("negative dyadic exponent")
        return (num, k)

    def half(self):
        return self.element((1, 1))

    def _add(self, a, b):
        (x, j), (y, k) = a, b
        n = max(j, k)
        return self._reduced((x << (n - j)) + (y << (n - k)), n)

    def _neg(self, a):
        return (-a[0], a[1])

    def _mul(self, a, b):
        return self._reduced(a[0] * b[0], a[1] + b[1])

    def _is_zero(self, a):
        return a[0] == 0

    def _format(self, a):
        return str(a[0]) if a[1] == 0 else "%d/2^%d" % a

    def to_json(self, elt):
        return list(elt.value)

    def from_json(self, data):
        return self.element(tuple(data))

    def sample(self, rng):
        """n/2^k with |n| <= 9, k <= 2; deterministic for a seeded ``rng``."""
        return self.element((rng.randrange(-9, 10), rng.randrange(3)))

    def is_unit(self, elt):
        num, _ = elt.value
        return num != 0 and abs(num) & (abs(num) - 1) == 0

    def invert(self, elt):
        num, k = elt.value
        if not self.is_unit(elt):
            raise RingError("%r is not a unit in Z[1/2]" % (elt,))
        sign = 1 if num > 0 else -1
        j = abs(num).bit_length() - 1
        return self.element((sign * 2 ** k, j))

    def descriptor(self):
        return "dyadic"


class PolyRing(RingDescriptor):
    """Sparse multivariate polynomials over a base ring.

    A value is a tuple of (key, coefficient) pairs in ascending key
    order, with nonzero coefficients in the base ring's raw layout.  The
    key of x_1^e_1 ... x_k^e_k is deg * W - sum(e_i * B^(k-i)), with B =
    ``EXPONENT_BOUND`` and W = B^k: keys add under products, and ascending
    keys are the graded order (total degree, then larger exponents first).
    A total degree that reaches B raises RingError rather than carry into
    a neighbouring exponent.  ``terms`` reads exponent tuples back.
    """

    # one unsigned 16-bit digit per exponent
    EXPONENT_BOUND = 1 << 16

    def __init__(self, base, names):
        if not isinstance(base, RingDescriptor) or isinstance(base, PolyRing):
            raise RingError("polynomial base must be a non-polynomial ring descriptor")
        names = tuple(names)
        if (not names or len(set(names)) != len(names)
                or any("," in v or ":" in v for v in names)):
            raise RingError("variable names must be nonempty, unique and "
                            "free of ',' and ':'")
        self.base = base
        self.names = names
        self._digits = struct.Struct(">%dH" % len(names))
        self._width = self.EXPONENT_BOUND ** len(names)
        self._var_keys = tuple(self._key([int(n == v) for n in names]) for v in names)
        # the key of x_1^B, above every key of total degree below B
        self._ceiling = (self.EXPONENT_BOUND - 1) * self._width

    def _key(self, mono):
        """The key of an exponent vector, or of an int taken as a key."""
        if isinstance(mono, int):
            if self._key(self._exponents(mono)) != mono:
                raise RingError("%d is not a monomial key" % mono)
            return mono
        try:  # packing checks the length and 0 <= e < B for every e
            digits = int.from_bytes(self._digits.pack(*mono), "big")
        except struct.error:
            digits = None
        if digits is None or sum(mono) >= self.EXPONENT_BOUND:
            raise RingError("monomial %r: exponents >= 0, total degree < %d, one per "
                            "variable" % (mono, self.EXPONENT_BOUND))
        return sum(mono) * self._width - digits

    def _exponents(self, key):
        return self._digits.unpack((-key % self._width).to_bytes(self._digits.size, "big"))

    def terms(self, elt):
        """The (exponent tuple, raw coefficient) pairs of ``elt``."""
        return [(self._exponents(m), c) for m, c in elt.value]

    def element(self, raw):
        """A dict maps exponent tuples, or int keys, to coefficients."""
        base = self.base
        if isinstance(raw, RingElement):
            if raw.ring is self:
                return raw
            if raw.ring is not base:
                raise RingError("element of %s used in %s" % (raw.ring, self))
        if not isinstance(raw, dict):  # a constant, at key 0
            c = base.element(raw).value
            return RingElement(self, () if base._is_zero(c) else ((0, c),))
        terms = {self._key(m): base.element(c).value for m, c in raw.items()}
        if len(terms) < len(raw):
            raise RingError("two monomials of %r have one key" % (raw,))
        return RingElement(self, self._from_terms(terms))

    def _from_terms(self, terms):
        """The raw value of a {key: raw coefficient} dict."""
        is_zero = self.base._is_zero
        items = [mc for mc in terms.items() if not is_zero(mc[1])]
        items.sort()
        return tuple(items)

    def var(self, name):
        key = self._var_keys[self.names.index(name)]
        return RingElement(self, ((key, self.base.one().value),))

    def half(self):
        return self.element(self.base.half())

    def _add(self, a, b):
        if not a or not b:  # adding zero needs no merge
            return a or b
        add, is_zero = self.base._add, self.base._is_zero
        terms = dict(a)
        for m, c in b:
            cur = terms.get(m)
            if cur is None:
                terms[m] = c
            elif is_zero(c := add(cur, c)):
                del terms[m]
            else:
                terms[m] = c
        return tuple(sorted(terms.items()))

    def _neg(self, a):
        # negation keeps every term nonzero and in place
        neg = self.base._neg
        return tuple([(m, neg(c)) for m, c in a])

    def _mul(self, a, b):
        # the last keys carry the top degrees, and they add
        if a and b and a[-1][0] + b[-1][0] >= self._ceiling:
            raise RingError("product of total degree >= %d" % self.EXPONENT_BOUND)
        mul, add = self.base._mul, self.base._add
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # adding one key keeps the order: a term times a sorted
            # polynomial stays sorted, with distinct keys
            (m1, c1), = a
            is_zero = self.base._is_zero
            out = []
            for m2, c2 in b:
                c = mul(c1, c2)
                if not is_zero(c):
                    out.append((m1 + m2, c))
            return tuple(out)
        terms = {}
        for m1, c1 in a:
            for m2, c2 in b:
                m = m1 + m2
                c = mul(c1, c2)
                cur = terms.get(m)
                terms[m] = c if cur is None else add(cur, c)
        return self._from_terms(terms)

    def _is_zero(self, a):
        return not a

    def _format(self, a):
        if not a:
            return "0"
        parts = []
        for m, coeff in a:
            vars_ = "*".join(
                n if e == 1 else "%s^%d" % (n, e)
                for n, e in zip(self.names, self._exponents(m)) if e
            )
            cs = self.base._format(coeff)
            parts.append(cs if not vars_ else ("%s*%s" % (cs, vars_) if cs != "1" else vars_))
        return " + ".join(parts)

    def to_json(self, elt):
        base = self.base
        return [[list(m), base.to_json(RingElement(base, c))] for m, c in self.terms(elt)]

    def from_json(self, data):
        base = self.base
        return self.element({tuple(m): base.from_json(c) for m, c in data})

    def sample(self, rng):
        """At most 3 terms of total degree <= 2, each coefficient a sample
        of the base ring; deterministic for a seeded ``rng``."""
        base = self.base
        nvars = len(self.names)
        terms = {}
        for _ in range(rng.randrange(4)):
            m = 0
            for _ in range(rng.randrange(3)):
                m += self._var_keys[rng.randrange(nvars)]
            c = base.sample(rng).value
            terms[m] = c if m not in terms else base._add(terms[m], c)
        return RingElement(self, self._from_terms(terms))

    def descriptor(self):
        return "poly:%s:%s" % (self.base.descriptor(), ",".join(self.names))


class RingElement:
    """Canonical exact element of a supported ring: its ring and a raw
    value in that ring's layout."""

    __slots__ = ("ring", "value")

    def __init__(self, ring, value):
        # _set_ring/_set_value (below the class) write the slots directly:
        # the guard below stops plain assignment, and object.__setattr__
        # is slower, since it first checks the class's own __setattr__
        _set_ring(self, ring)
        _set_value(self, value)

    def __setattr__(self, *a):
        raise AttributeError("RingElement is immutable")

    def __add__(self, other):
        ring = self.ring
        if other.__class__ is not RingElement or other.ring is not ring:
            other = ring.element(other)
        return RingElement(ring, ring._add(self.value, other.value))

    def __neg__(self):
        ring = self.ring
        return RingElement(ring, ring._neg(self.value))

    def __sub__(self, other):
        ring = self.ring
        if other.__class__ is not RingElement or other.ring is not ring:
            other = ring.element(other)
        return RingElement(ring, ring._add(self.value, ring._neg(other.value)))

    def __mul__(self, other):
        ring = self.ring
        if other.__class__ is not RingElement or other.ring is not ring:
            other = ring.element(other)
        return RingElement(ring, ring._mul(self.value, other.value))

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring is other.ring and self.value == other.value

    def __hash__(self):
        return hash((self.ring, self.value))

    def is_zero(self):
        return self.ring._is_zero(self.value)

    def halve(self):
        """Exact division by 2."""
        return self * self.ring.half()

    def __repr__(self):
        return self.ring._format(self.value)


# the slot descriptors' setters, used by RingElement.__init__
_set_ring = RingElement.ring.__set__
_set_value = RingElement.value.__set__


# -- ideals ----------------------------------------------------------


class Ideal:
    """Decidable-membership ideal of a supported ring.

    Shapes: zero, full, principal(generator) for Zmod/GF/Dyadic,
    variable-generated for polynomial rings.
    """

    def __init__(self, ring, shape, data=None):
        if shape not in ("zero", "full", "principal", "vars"):
            raise RingError("unknown ideal shape %r" % (shape,))
        if shape == "principal" and isinstance(ring, PolyRing):
            raise RingError("principal ideals unsupported in polynomial rings")
        if shape == "vars":
            if not isinstance(ring, PolyRing):
                raise RingError("variable-generated ideals require a polynomial ring")
            data = tuple(data)
            for v in data:
                if v not in ring.names:
                    raise RingError("unknown variable %r" % (v,))
        self.ring = ring
        self.shape = shape
        self.data = data

    @classmethod
    def zero(cls, ring):
        return cls(ring, "zero")

    @classmethod
    def full(cls, ring):
        return cls(ring, "full")

    @classmethod
    def principal(cls, ring, gen):
        g = ring.element(gen)
        if isinstance(ring, (Zmod, Dyadic)) and ring.is_unit(g):
            return cls(ring, "full")
        if g.is_zero():
            return cls(ring, "zero")
        return cls(ring, "principal", g)

    @classmethod
    def vars(cls, ring, names):
        return cls(ring, "vars", names)

    def is_full(self):
        return self.shape == "full"

    def contains(self, r):
        r = self.ring.element(r)
        if self.shape == "full":
            return True
        if self.shape == "zero":
            return r.is_zero()
        if self.shape == "principal":
            if isinstance(self.ring, Zmod):
                return r.value % self.modulus() == 0
            # Dyadic: 2 is a unit, so (d) = (odd part of d)
            return _odd_part(r.value[0]) % _odd_part(self.data.value[0]) == 0
        gen_idx = [self.ring.names.index(v) for v in self.data]
        return all(any(mono[i] for i in gen_idx) for mono, _ in self.ring.terms(r))

    def modulus(self):
        """The g | m with I = gZ/m over Z/m: 0 for the zero ideal, 1 for
        the full ideal, so x is in I iff g divides x."""
        if not isinstance(self.ring, Zmod):
            raise RingError("ideal modulus only over Z/m, not %s" % (self.ring,))
        if self.shape == "zero":
            return 0
        if self.shape == "full":
            return 1
        return gcd(self.data.value, self.ring.m)

    def descriptor(self):
        if self.shape == "zero":
            return "ideal:0"
        if self.shape == "full":
            return "ideal:full"
        if self.shape == "principal":
            return "ideal:%r" % (self.data,)
        return "ideal:vars:%s" % ",".join(self.data)

    def __repr__(self):
        return self.descriptor()


def _odd_part(n):
    """n with every factor 2 removed (0 stays 0)."""
    n = abs(n)
    return n // (n & -n) if n else 0


# -- parsing ---------------------------------------------------------


def _parse_int(digits, message):
    try:
        return int(digits)
    except ValueError:
        raise DescriptorError(message) from None


def parse_ring(text):
    """Parse ``zmod:9``, ``gf:5``, ``dyadic``, ``poly:dyadic:a,b,x``.

    Malformed text raises DescriptorError; a well-formed ring outside
    the supported domain (``zmod:8``) raises plain RingError.
    """
    parts = text.split(":")
    if parts[0] in ("zmod", "gf") and len(parts) == 2:
        m = _parse_int(parts[1], "cannot parse ring descriptor %r" % (text,))
        return Zmod(m) if parts[0] == "zmod" else GF(m)
    if parts == ["dyadic"]:
        return Dyadic()
    if parts[0] == "poly" and len(parts) >= 3:
        base = parse_ring(":".join(parts[1:-1]))
        return PolyRing(base, parts[-1].split(","))
    raise DescriptorError("cannot parse ring descriptor %r" % (text,))


def parse_ideal(ring, text):
    """Parse ``3`` (principal) or ``vars:x,y``; also accepts ``full``/``0``."""
    if text in ("full", "R"):
        return Ideal.full(ring)
    if text.startswith("vars:"):
        return Ideal.vars(ring, text[5:].split(","))
    gen = _parse_int(text, "cannot parse ideal descriptor %r" % (text,))
    if gen == 0:
        return Ideal.zero(ring)
    return Ideal.principal(ring, gen)


# -- localization ----------------------------------------------------


def localize_at_prime(ring, p):
    """CRT projection Z/m -> Z/p^k for the exact p-power p^k || m.

    Returns (local ring, projection map).
    """
    if not isinstance(ring, Zmod):
        raise RingError("localization implemented for Z/m only")
    if p == 2 or not _is_prime(p):
        raise RingError("p must be an odd prime")
    m = ring.m
    if m % p != 0:
        raise RingError("%d does not divide %d" % (p, m))
    pk = 1
    while m % (pk * p) == 0:
        pk *= p
    local = GF(pk) if _is_prime(pk) else Zmod(pk)

    def project(elt):
        elt = ring.element(elt)
        return local.element(elt.value % pk)

    return local, project


def prime_factors(m):
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# The conjugation calculus's two fixed indeterminates: a family's
# argument is a polynomial in X, and every rewrite step spends
# divisibility by Y.
X = "X"
Y = "Y"


# -- exact division helpers -----------------------------------------


def var_multiplicity(elt, name):
    """Largest k with name^k dividing elt (inf for 0, capped at 64)."""
    ring = elt.ring
    if not isinstance(ring, PolyRing):
        raise RingError("variable divisibility requires a polynomial ring")
    if elt.is_zero():
        return 64
    # the variable's exponent is one 16-bit digit of -key mod W
    shift = 16 * (len(ring.names) - 1 - ring.names.index(name))
    width, digit = ring._width, ring.EXPONENT_BOUND - 1
    return min((-key % width) >> shift & digit for key, _ in elt.value)


def divide_by_var(elt, name, k=1):
    """Exact division by name^k; raises if not divisible."""
    ring = elt.ring
    if var_multiplicity(elt, name) < k:
        raise RingError("%r is not divisible by %s^%d" % (elt, name, k))
    # subtracting the key of name^k from every key keeps the term order
    step = k * ring.var(name).value[0][0]
    return RingElement(ring, tuple([(m - step, c) for m, c in elt.value]))


def divide_by_unit(elt, unit):
    """Exact division of elt by a unit scalar of the (base) ring."""
    ring = elt.ring
    scalars = ring.base if isinstance(ring, PolyRing) else ring
    return elt * ring.element(scalars.invert(scalars.element(unit)))


def substitute(elt, name, value):
    """Substitute `value` (an element of the same ring) for the variable."""
    ring = elt.ring
    if not isinstance(ring, PolyRing):
        raise RingError("substitution requires a polynomial ring")
    value = ring.element(value)
    idx = ring.names.index(name)
    out = ring.zero()
    for mono, c in ring.terms(elt):
        term = RingElement(ring, ((ring._key(mono[:idx] + (0,) + mono[idx + 1:]), c),))
        for _ in range(mono[idx]):
            term = term * value
        out = out + term
    return out


# -- sampling --------------------------------------------------------


def sample_element(ring, rng):
    """``ring.sample(rng)``; ``benchmarks/probes.py`` imports this name."""
    return ring.sample(rng)
