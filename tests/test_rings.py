import random
import signal
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transvect.rings import (GF, Dyadic, Ideal, PolyRing, RingElement,
                             RingError, Zmod, _is_prime, divide_by_unit,
                             divide_by_var, localize_at_prime, parse_ideal,
                             parse_ring, prime_factors, substitute,
                             var_multiplicity)


@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_zmod_ring_axioms(a, b, c):
    R = Zmod(81)
    x, y, z = R.element(a), R.element(b), R.element(c)
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)


def test_zmod_units_and_inverse():
    R = Zmod(9)
    assert R.is_unit(R.element(2))
    assert not R.is_unit(R.element(3))
    assert R.invert(R.element(2)) * R.element(2) == R.one()
    with pytest.raises(RingError):
        R.invert(R.element(3))


def test_gf_requires_prime():
    with pytest.raises(RingError):
        GF(9)
    assert GF(7).m == 7


def test_dyadic_halving():
    D = Dyadic()
    x = D.element(3)
    assert x.halve() + x.halve() == x
    assert D.is_unit(D.element((1, 3)))  # 1/8


def test_polyring_canonical_form():
    R = PolyRing(Dyadic(), ("a", "b"))
    a, b = R.var("a"), R.var("b")
    assert a * b - b * a == R.zero()
    assert (a + b) * (a - b) == a * a - b * b


def test_var_division():
    R = PolyRing(Dyadic(), ("X", "Y"))
    x, y = R.var("X"), R.var("Y")
    e = y * y * x + y * y * y
    assert var_multiplicity(e, "Y") == 2
    assert divide_by_var(e, "Y", 2) == x + y
    with pytest.raises(RingError):
        divide_by_var(e, "Y", 3)


def test_divide_by_unit():
    R = PolyRing(Dyadic(), ("a",))
    a = R.var("a")
    assert divide_by_unit(a + a, 2) == a


def test_substitute():
    R = PolyRing(Zmod(9), ("X",))
    x = R.var("X")
    e = x * x + R.element(2) * x
    assert substitute(e, "X", R.element(3)) == R.element(9 + 6)


def test_ideal_membership_zmod():
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    assert I.contains(R.element(6))
    assert not I.contains(R.element(2))
    assert Ideal.principal(R, 2).is_full()
    assert Ideal.zero(R).contains(R.zero())


def test_ideal_modulus_is_the_zmod_generator():
    R9, R45 = Zmod(9), Zmod(45)
    assert Ideal.zero(R9).modulus() == 0
    assert Ideal.full(R9).modulus() == 1
    assert Ideal.principal(R9, 6).modulus() == 3
    assert Ideal.principal(R45, 15).modulus() == 15
    assert Ideal.principal(R45, 30).modulus() == 15
    assert Ideal.principal(GF(5), 5).modulus() == 0
    P = PolyRing(Zmod(9), ("x",))
    for ideal in (Ideal.vars(P, ("x",)), Ideal.full(P),
                  Ideal.principal(Dyadic(), 3)):
        with pytest.raises(RingError):
            ideal.modulus()


def test_ideal_membership_vars():
    R = PolyRing(Dyadic(), ("a", "x"))
    I = Ideal.vars(R, ("x",))
    assert I.contains(R.var("x") * R.var("a"))
    assert not I.contains(R.var("a"))


def test_parse_ring_and_ideal():
    R = parse_ring("zmod:15")
    assert isinstance(R, Zmod) and R.m == 15
    I = parse_ideal(R, "5")
    assert I.contains(R.element(10))
    assert isinstance(parse_ring("gf:7"), GF)


def test_localize_at_prime():
    R = Zmod(45)
    local, project = localize_at_prime(R, 3)
    assert local.m == 9
    assert project(R.element(44)).value == 44 % 9
    with pytest.raises(RingError):
        localize_at_prime(R, 2)


def test_prime_factors():
    assert prime_factors(45) == [3, 5]
    assert prime_factors(7) == [7]


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(*_):
        raise TimeoutError("still running after %d s" % seconds)
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _trial_division(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    return out + [m] if m > 1 else out


def test_prime_factors_equal_trial_division_below_10_5():
    """Every m < 10**5, including the composites of two or more primes
    above 41 that only Pollard-Brent rho splits."""
    with _deadline(60):
        for m in range(10 ** 5):
            assert prime_factors(m) == _trial_division(m), m


@pytest.mark.parametrize("factors", [
    [43, 47], [43, 43, 47], [1000003, 1000033], [1000003, 1000003],
    [65537, 2147483647, 1000003], [2305843009213693951, 1000033],
    [3, 399165290221, 798330580441],
])
def test_prime_factors_split_large_factors(factors):
    m = 1
    for p in factors:
        m *= p
    with _deadline(20):
        assert prime_factors(m) == sorted(set(factors))


PSI_12 = 318665857834031151167461  # strong pseudoprime to bases 2..37
PSI_13 = 3317044064679887385961981  # strong pseudoprime to bases 2..41


def test_is_prime_rejects_strong_pseudoprimes():
    """3,215,031,751 = 151 * 751 * 28,351 passes bases 2, 3, 5 and 7,
    and psi_12 passes every base below 41; neither is prime."""
    assert not _is_prime(3215031751)
    assert not _is_prime(PSI_12)
    assert _is_prime(2 ** 61 - 1) and _is_prime(9223372036854775783)


def test_primality_past_psi_13_is_refused_not_guessed():
    """At or above psi_13 the 13 bases no longer decide primality: a
    number with no factor below 43 raises, a prime or not, so rho never
    runs on one; a number with a small factor is still answered
    exactly."""
    for n in (PSI_13, 2 ** 89 - 1, (2 ** 61 - 1) * (2 ** 31 - 1)):
        with pytest.raises(RingError, match="too large to certify"):
            _is_prime(n)
        with pytest.raises(RingError, match="too large to certify"):
            prime_factors(n)
    assert not _is_prime(3 * PSI_13)
    assert prime_factors(3 ** 60) == [3]
    assert prime_factors(2 ** 100 * 41) == [2, 41]


def test_gf_of_a_prime_near_two_to_the_63_builds_within_a_second():
    start = time.perf_counter()
    with _deadline(5):
        ring = GF(9223372036854775783)
    assert time.perf_counter() - start < 1
    assert ring.m == 2 ** 63 - 25


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6))
def test_sampling_is_seed_deterministic(seed):
    R = Zmod(15)
    a = R.sample(random.Random(seed))
    b = R.sample(random.Random(seed))
    assert a == b


# -- principal ideal laws: Z/m and Z[1/2] ------------------------------

_dyadics = st.tuples(st.integers(-200, 200), st.integers(0, 6))


@given(st.integers(0, 80), st.integers(0, 80))
def test_zmod_principal_contains_multiples(g, x):
    R = Zmod(81)
    I = Ideal.principal(R, g)
    assert I.contains(R.element(x) * R.element(g))


@given(_dyadics, _dyadics)
def test_dyadic_principal_contains_multiples(g, x):
    D = Dyadic()
    I = Ideal.principal(D, g)
    assert I.contains(D.element(x) * D.element(g))


@given(st.integers(1, 80))
def test_zmod_unit_generates_full_ideal(u):
    R = Zmod(81)
    if R.is_unit(R.element(u)):
        assert Ideal.principal(R, u).is_full()


@given(st.sampled_from([1, -1]), st.integers(0, 40), st.integers(0, 6))
def test_dyadic_unit_generates_full_ideal(sign, e, k):
    D = Dyadic()
    assert Ideal.principal(D, (sign * 2 ** e, k)).is_full()


def test_dyadic_principal_ignores_powers_of_two():
    D = Dyadic()
    assert Ideal.principal(D, 6).contains(3)
    assert Ideal.principal(D, 2).is_full()
    assert Ideal.principal(D, 12).contains(D.element((3, 5)))
    assert not Ideal.principal(D, 6).contains(5)


def test_malformed_descriptors_raise_descriptor_error():
    from transvect.rings import DescriptorError
    for text in ("zmod:abc", "zmod", "gf:", "poly:dyadic", "nonsense"):
        with pytest.raises(DescriptorError):
            parse_ring(text)
    with pytest.raises(DescriptorError):
        parse_ideal(Zmod(9), "x")
    # well-formed but outside the domain stays a plain RingError
    with pytest.raises(RingError) as err:
        parse_ring("zmod:8")
    assert not isinstance(err.value, DescriptorError)


# -- canonical rings and strict element equality ------------------------

_RINGS = [Zmod(9), GF(5), Dyadic(), PolyRing(Zmod(9), ("x",)),
          PolyRing(Dyadic(), ("a", "b")), PolyRing(GF(7), ("x", "y"))]


@pytest.mark.parametrize("ring", _RINGS, ids=repr)
def test_parse_ring_returns_the_same_ring(ring):
    assert parse_ring(ring.descriptor()) is ring


def test_constructors_return_one_object_per_ring():
    assert Zmod(9) is parse_ring("zmod:9") is Zmod(9)
    assert Dyadic() is Dyadic()
    assert PolyRing(Dyadic(), ["a", "b"]) is parse_ring("poly:dyadic:a,b")
    assert PolyRing(Dyadic(), ("a", "b")) is not PolyRing(Dyadic(), ("b", "a"))
    assert GF(5) is not Zmod(5)
    assert GF(5).element(1) != Zmod(5).element(1)
    # a variable name with ',' or ':' would share another ring's descriptor
    for names in (["a,b"], ["a:b"]):
        with pytest.raises(RingError):
            PolyRing(Dyadic(), names)


def test_invalid_ring_raises_every_time():
    for _ in range(2):
        with pytest.raises(RingError):
            Zmod(8)
    for _ in range(2):
        with pytest.raises(RingError):
            parse_ring("zmod:8")


def test_elements_never_equal_ints():
    R = Zmod(9)
    assert R.element(1) != 1 and R.element(1) != 10
    assert 10 not in {R.element(1)}
    assert Dyadic().one() != 1
    assert PolyRing(Dyadic(), ("x",)).one() != Dyadic().one()


def test_ideal_rejects_foreign_elements():
    I = Ideal.principal(Zmod(9), 3)
    with pytest.raises(RingError):
        I.contains(Zmod(27).element(3))


_values = st.one_of(
    st.integers(-30, 30),
    st.integers(-30, 30).map(Zmod(9).element),
    st.integers(-30, 30).map(GF(5).element),
    st.integers(-30, 30).map(Zmod(5).element),
    _dyadics.map(Dyadic().element),
    st.integers(-30, 30).map(PolyRing(Zmod(9), ("x",)).element),
)


@given(_values, _values)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("text", ["gf:5", "dyadic", "poly:zmod:9:x",
                                  "poly:dyadic:a,b", "zmod:9", "zmod:15",
                                  "poly:gf:5:x,y"])
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_commutative_ring_laws(text, seed):
    R = parse_ring(text)
    rng = random.Random(seed)
    x, y, z = (R.sample(rng) for _ in range(3))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x - x == R.zero()
    assert R.one() * x == x


# -- polynomial arithmetic against a slow oracle ------------------------
# The oracle is the plain algorithm on {monomial: base RingElement} dicts,
# with zero terms dropped and the rest sorted by the graded order only at
# the end.  It shares no code with PolyRing's packed-key arithmetic, and
# results are compared through JSON, which writes exponent vectors.

_ORACLE_RINGS = {"poly:dyadic:a,b": _dyadics,
                 "poly:zmod:9:x,y": st.integers(0, 8),
                 "poly:gf:5:x": st.integers(0, 4)}


def _polys(text):
    """Pairs (element, oracle dict) over the ring ``text``."""
    ring = parse_ring(text)
    nvars = len(ring.names)
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = _ORACLE_RINGS[text].map(ring.base.element)
    return st.dictionaries(monos, coeffs, max_size=4).map(
        lambda d: (ring.element(d), d))


def _graded(mono):
    """Total degree first, then larger exponents first."""
    return (sum(mono), tuple(-e for e in mono))


def _canonical(ring, terms):
    """The JSON of the element an oracle dict stands for."""
    nonzero = [(m, c) for m, c in terms.items() if not c.is_zero()]
    return [[list(m), ring.base.to_json(c)]
            for m, c in sorted(nonzero, key=lambda mc: _graded(mc[0]))]


def _oracle_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out[m] + c if m in out else c
    return out


def _oracle_neg(p):
    return {m: -c for m, c in p.items()}


def _oracle_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return out


def _oracle_substitute(p, idx, q):
    out = {}
    for mono, c in p.items():
        term = {mono[:idx] + (0,) + mono[idx + 1:]: c}
        for _ in range(mono[idx]):
            term = _oracle_mul(term, q)
        out = _oracle_add(out, term)
    return out


@pytest.mark.parametrize("text", sorted(_ORACLE_RINGS))
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poly_arithmetic_matches_dict_oracle(text, data):
    ring = parse_ring(text)
    (x, p), (y, q) = data.draw(_polys(text)), data.draw(_polys(text))
    assert ring.to_json(x) == _canonical(ring, p)
    assert ring.to_json(x + y) == _canonical(ring, _oracle_add(p, q))
    assert ring.to_json(-x) == _canonical(ring, _oracle_neg(p))
    assert ring.to_json(x - y) == _canonical(
        ring, _oracle_add(p, _oracle_neg(q)))
    assert ring.to_json(x * y) == _canonical(ring, _oracle_mul(p, q))
    name = data.draw(st.sampled_from(ring.names))
    idx = ring.names.index(name)
    assert ring.to_json(substitute(x, name, y)) == _canonical(
        ring, _oracle_substitute(p, idx, q))
    k = data.draw(st.integers(0, 3))
    nonzero = {m: c for m, c in p.items() if not c.is_zero()}
    if all(m[idx] >= k for m in nonzero):
        shifted = {m[:idx] + (m[idx] - k,) + m[idx + 1:]: c
                   for m, c in nonzero.items()}
        assert ring.to_json(divide_by_var(x, name, k)) == _canonical(
            ring, shifted)
    else:
        with pytest.raises(RingError):
            divide_by_var(x, name, k)


# -- the element layout contract -----------------------------------------

_LAYOUT_RINGS = ["poly:dyadic:a,b", "poly:zmod:9:x,y", "poly:gf:5:x",
                 "poly:zmod:15:x"]


def _is_raw(base, c):
    if isinstance(base, Zmod):
        return type(c) is int and 0 <= c < base.m
    return (type(c) is tuple and len(c) == 2
            and Dyadic().element(c).value == c)


@pytest.mark.parametrize("text", _LAYOUT_RINGS)
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_poly_value_layout(text, seed):
    ring = parse_ring(text)
    rng = random.Random(seed)
    x, y = ring.sample(rng), ring.sample(rng)
    for z in (x, y, x + y, x * y, -x, x - y):
        keys = [m for m, _ in z.value]
        assert all(type(m) is int for m in keys)
        assert all(m1 < m2 for m1, m2 in zip(keys, keys[1:]))
        monos = [m for m, _ in ring.terms(z)]
        assert monos == sorted(monos, key=_graded)
        for m, c in z.value:
            assert _is_raw(ring.base, c)
            assert not ring.base.element(c).is_zero()
        assert ring.element(dict(z.value)) == z


# -- packed monomial keys and the degree guard ---------------------------

_B = PolyRing.EXPONENT_BOUND


def _key(ring, mono):
    """The packed key of an exponent vector, read off a one-term value."""
    (key, _), = ring.element({mono: 1}).value
    return key


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_keys_add_and_follow_the_graded_order(k, data):
    ring = PolyRing(Dyadic(), ["v%d" % i for i in range(k)])
    # two such vectors add to one of total degree below B
    monos = st.tuples(*[st.integers(0, (_B - 1) // (2 * k))] * k)
    m1, m2 = data.draw(monos), data.draw(monos)
    assert (_key(ring, m1) < _key(ring, m2)) == (_graded(m1) < _graded(m2))
    m12 = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
    assert _key(ring, m12) == _key(ring, m1) + _key(ring, m2)
    assert [m for m, _ in ring.terms(ring.element({m12: 1}))] == [m12]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_var_multiplicity_reads_the_terms_exponent(k, data):
    """The one digit ``var_multiplicity`` reads from each key is the
    variable's exponent as ``terms`` unpacks it, the least over terms."""
    ring = PolyRing(Dyadic(), ["v%d" % i for i in range(k)])
    # one exponent up to B - 1, the top of a digit, the rest small, with
    # total degree < B
    def mono(big, small, at):
        return tuple(small[:at] + [min(big, _B - 1 - sum(small))] + small[at:])

    monos = st.builds(mono, st.integers(0, _B - 1),
                      st.lists(st.integers(0, 3), min_size=k - 1,
                               max_size=k - 1), st.integers(0, k - 1))
    x = ring.element(data.draw(st.dictionaries(monos, st.integers(1, 9),
                                               min_size=1, max_size=4)))
    for idx, name in enumerate(ring.names):
        assert var_multiplicity(x, name) == min(m[idx] for m, _ in ring.terms(x))
    assert var_multiplicity(ring.zero(), ring.names[0]) == 64


def test_degree_guard_at_the_exponent_bound():
    ring = PolyRing(Dyadic(), ("x", "y", "z"))
    x, y, z = (ring.var(n) for n in ring.names)
    top = ring.element({(_B - 1, 0, 0): 1})
    below = ring.element({(_B - 2, 0, 0): 1})
    assert ring.terms(top * ring.element(3)) == [((_B - 1, 0, 0), (3, 0))]
    assert below * x == top
    assert ring.terms(below * z) == [((_B - 2, 0, 1), (1, 0))]
    half = ring.element({(0, _B // 2, 0): 1})
    last = ring.element({(0, 0, _B - 1): 1})
    # each product reaches total degree B; packed without the guard, an
    # exponent B would carry into the next variable's digit
    for lhs, rhs in [(top, x), (top, y), (top, z + 1), (last, z),
                     (half, half), (below * y, z)]:
        with pytest.raises(RingError, match="total degree"):
            lhs * rhs
        with pytest.raises(RingError, match="total degree"):
            rhs * lhs


@pytest.mark.parametrize("mono", [(_B, 0), (0, _B), (_B - 1, 1), (-1, 0),
                                  (2, -1), (1,), (1, 0, 0), (1.0, 0)])
def test_out_of_range_monomials_raise(mono):
    ring = PolyRing(Dyadic(), ("x", "y"))
    with pytest.raises(RingError):
        ring.element({mono: 1})
    with pytest.raises(RingError):
        ring.from_json([[list(mono), [1, 0]]])


def test_int_monomials_are_checked_keys():
    ring = PolyRing(Dyadic(), ("x", "y"))
    xy = ring.var("x") * ring.var("y")
    assert ring.element({xy.value[0][0]: 1}) == xy
    for key in (-1, 1, xy.value[0][0] + 1, (_B - 1) * _B ** 2):
        with pytest.raises(RingError):
            ring.element({key: 1})
    with pytest.raises(RingError):
        ring.element({0: 1, (0, 0): 2})


@pytest.mark.parametrize("text", ["zmod:9", "dyadic"] + _LAYOUT_RINGS)
def test_int_coerces_and_foreign_elements_raise(text):
    ring = parse_ring(text)
    x = ring.sample(random.Random(7))
    assert x + 1 == x + ring.one() == 1 + x
    assert x - 1 == x + ring.element(-1)
    assert 3 * x == x * ring.element(3)
    foreign = Zmod(27).element(2)
    for op in (lambda: x + foreign, lambda: x * foreign,
               lambda: x - foreign, lambda: foreign + x):
        with pytest.raises(RingError):
            op()


@pytest.mark.parametrize("text", ["zmod:9", "dyadic", "poly:dyadic:a,b"])
def test_ring_elements_are_immutable(text):
    x = parse_ring(text).one()
    for attr in ("ring", "value", "other"):
        with pytest.raises(AttributeError):
            setattr(x, attr, None)
    assert isinstance(x, RingElement) and x == parse_ring(text).one()


@pytest.mark.parametrize("text", ["zmod:9", "dyadic", "poly:zmod:9:x,y"])
def test_int_minus_element(text):
    """``3 - x`` lifts 3 and subtracts x, the reflected ``x - 3``."""
    ring = parse_ring(text)
    x = ring.sample(random.Random(3)) + ring.one()
    assert 3 - x == ring.element(3) - x == -(x - 3)
    assert 3 - x != x - 3


def test_parse_ideal_full_and_variable_texts():
    ring = parse_ring("poly:zmod:9:x,y")
    x, y = ring.var("x"), ring.var("y")
    for text in ("full", "R"):
        assert parse_ideal(ring, text).is_full()
    ideal = parse_ideal(ring, "vars:x,y")
    assert ideal.contains(x * y + y) and ideal.contains(x + 3 * y)
    assert not ideal.contains(x + 1)
