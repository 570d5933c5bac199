"""Exact scalar layer: cyclic structure of mu_N and prime-field axioms."""

import random

import pytest

from jordanlab.errors import BadGenerator, ModulusMismatch, NoRootsOfUnity
from jordanlab.scalars import (
    FpElement,
    RootOfUnity,
    discrete_log_in_mu,
    is_prime,
    mu_generator,
    multiplicative_order,
    nth_root,
    primes_up_to,
)


def test_mul_examples():
    assert RootOfUnity(4, 1) * RootOfUnity(4, 3) == RootOfUnity(4, 0)
    assert RootOfUnity(2, 1) * RootOfUnity(2, 1) == RootOfUnity(2, 0)
    assert RootOfUnity(6, 2) * RootOfUnity(6, 5) == RootOfUnity(6, 1)


def test_mixed_modulus_rejected():
    with pytest.raises(ModulusMismatch):
        RootOfUnity(2, 1) * RootOfUnity(4, 1)
    # even when one modulus divides the other: the caller embeds explicitly
    assert RootOfUnity(2, 1).embed(4) * RootOfUnity(4, 1) == RootOfUnity(4, 3)


def test_embed_requires_divisibility():
    with pytest.raises(ModulusMismatch):
        RootOfUnity(4, 1).embed(6)


@pytest.mark.parametrize("n", range(1, 25))
def test_cyclic_group_of_order_n(n):
    values = [RootOfUnity(n, e) for e in range(n)]
    identity = RootOfUnity.one(n)
    assert len(set(values)) == n
    for a in values:
        assert a * identity == a
        assert (a * a.inverse()).is_one
        assert a ** n == identity
    gen = RootOfUnity(n, 1)
    powers = {gen ** k for k in range(n)}
    assert len(powers) == n


def test_embed_in_field_examples():
    # -1 == 4 mod 5
    assert RootOfUnity(2, 1).embed_in_field(5, FpElement(5, 4)) == FpElement(5, 4)
    # derived: order of 2 in F_5 is 4 by direct powering, and 2^2 = 4
    g = FpElement(5, 2)
    assert [(g ** k).value for k in range(1, 5)] == [2, 4, 3, 1]
    assert RootOfUnity(4, 2).embed_in_field(5, g) == FpElement(5, 4)
    assert RootOfUnity(3, 0).embed_in_field(7, FpElement(7, 2)) == FpElement(7, 1)


def test_embed_in_field_errors():
    with pytest.raises(NoRootsOfUnity):
        RootOfUnity(3, 1).embed_in_field(5, FpElement(5, 2))
    with pytest.raises(BadGenerator):
        RootOfUnity(4, 1).embed_in_field(5, FpElement(5, 4))  # order 2, not 4


def test_embed_is_injective_homomorphism():
    from jordanlab.scalars import primes_up_to

    for p in primes_up_to(101):
        if p < 3:
            continue
        for n in range(1, 25):
            if (p - 1) % n != 0:
                continue
            g = mu_generator(p, n)
            images = {e: RootOfUnity(n, e).embed_in_field(p, g) for e in range(n)}
            assert len(set(images.values())) == n
            for a in range(n):
                for b in range(n):
                    lhs = (RootOfUnity(n, a) * RootOfUnity(n, b)).embed_in_field(p, g)
                    assert lhs == images[a] * images[b]


def test_field_axioms_small_primes_exhaustive():
    for p in (5, 7):
        elems = [FpElement(p, v) for v in range(p)]
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


def test_field_axioms_random_triples():
    rng = random.Random(0)
    for _ in range(300):
        p = rng.choice([11, 13, 101, 257])
        a, b, c = (FpElement(p, rng.randrange(p)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == FpElement(p, 0)
        if not a.is_zero:
            assert a * a.inverse() == FpElement(p, 1)
            assert (b / a) * a == b


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        FpElement(6, 1)
    assert is_prime(2) and not is_prime(1) and not is_prime(9)


def test_order_log_and_roots():
    assert multiplicative_order(FpElement(7, 3)) == 6
    g = mu_generator(13, 3)
    assert multiplicative_order(g) == 3
    for k in range(3):
        assert discrete_log_in_mu(g ** k, g, 3) == k
    assert nth_root(FpElement(7, 1), 2) is not None
    assert nth_root(FpElement(7, 3), 2) is None  # 3 is not a square mod 7


def test_nth_root_matches_the_plain_scan():
    # Euler's criterion refuses the values without a root; the rest keep the least root.
    # Every n dividing p - 1, and every n <= 12, which need not divide it
    for p in primes_up_to(199):
        for n in sorted({d for d in range(1, p) if (p - 1) % d == 0} | set(range(1, 13))):
            least = {}  # the plain scan's answer: the least x with x^n = v
            for x in range(p - 1, 0, -1):
                least[pow(x, n, p)] = x
            for v in range(p):
                got = nth_root(FpElement(p, v), n)
                assert (got and got.value) == least.get(v), (p, n, v)
