"""Exact scalar arithmetic: abstract roots of unity and prime fields.

Roots of unity are stored as exponents of a fixed abstract primitive root
zeta_N, never as field elements, so the symplectic/character layer stays
field-free and exact.  The identification of mu_N with a concrete subgroup
of F_p^* happens only at the curve boundary, through an element of exact
multiplicative order N.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import BadGenerator, ModulusMismatch, NoRootsOfUnity
from .frozen import Frozen, set_field


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_up_to(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if is_prime(n)]


class RootOfUnity(Frozen):
    """The value zeta_N^exponent for a fixed abstract primitive N-th root zeta_N."""

    __slots__ = ("modulus", "exponent")

    def __init__(self, modulus: int, exponent: int):
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        set_field(self, "modulus", modulus)
        set_field(self, "exponent", exponent % modulus)

    @classmethod
    def one(cls, modulus: int) -> "RootOfUnity":
        return cls(modulus, 0)

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    def order(self) -> int:
        return self.modulus // gcd(self.exponent, self.modulus)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"mu_{self.modulus} * mu_{other.modulus}: embed explicitly first"
            )
        return RootOfUnity(self.modulus, self.exponent + other.exponent)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(self.modulus, -self.exponent)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.modulus, self.exponent * k)

    def embed(self, modulus: int) -> "RootOfUnity":
        """Reinterpret in mu_M for any multiple M of the current modulus."""
        if modulus % self.modulus != 0:
            raise ModulusMismatch(f"mu_{self.modulus} does not embed in mu_{modulus}")
        return RootOfUnity(modulus, self.exponent * (modulus // self.modulus))

    def embed_in_field(self, p: int, generator: "FpElement") -> "FpElement":
        """Map into F_p^* through a validated generator of exact order N."""
        n = self.modulus
        if (p - 1) % n != 0:
            raise NoRootsOfUnity(f"F_{p} has no mu_{n}: {n} does not divide {p - 1}")
        if generator.p != p or multiplicative_order(generator) != n:
            raise BadGenerator(f"{generator!r} does not have exact order {n} in F_{p}")
        return generator ** self.exponent

    def __repr__(self):
        return f"zeta{self.modulus}^{self.exponent}"


class FpElement(Frozen):
    """An element of the prime field F_p."""

    __slots__ = ("p", "value")

    def __init__(self, p: int, value: int):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        set_field(self, "p", p)
        set_field(self, "value", value % p)

    def _coerce(self, other) -> "FpElement":
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError(f"mixed characteristics {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other):
        other = self._coerce(other)
        return FpElement(self.p, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return FpElement(self.p, self.value - other.value)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return FpElement(self.p, -self.value)

    def __mul__(self, other):
        other = self._coerce(other)
        return FpElement(self.p, self.value * other.value)

    __rmul__ = __mul__

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return FpElement(self.p, pow(self.value, -1, self.p))

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "FpElement":
        if k < 0:
            return self.inverse() ** (-k)
        return FpElement(self.p, pow(self.value, k, self.p))

    def __repr__(self):
        return f"{self.value}"


def multiplicative_order(a: FpElement) -> int:
    if a.value == 0:
        raise ZeroDivisionError("0 has no multiplicative order")
    order = 1
    acc = a
    while acc.value != 1:
        acc = acc * a
        order += 1
    return order


@lru_cache(maxsize=None)
def mu_generator(p: int, n: int) -> FpElement:
    """Smallest element of F_p^* of exact multiplicative order n."""
    if n < 1 or (p - 1) % n != 0:
        raise NoRootsOfUnity(f"F_{p} has no mu_{n}: {n} does not divide {p - 1}")
    for v in range(1, p):
        g = FpElement(p, v)
        if multiplicative_order(g) == n:
            return g
    raise NoRootsOfUnity(f"no element of order {n} in F_{p}")  # unreachable for prime p


def discrete_log_in_mu(value: FpElement, generator: FpElement, n: int) -> int:
    """Exponent k < n with generator^k == value; brute force over mu_n."""
    acc = FpElement(value.p, 1)
    for k in range(n):
        if acc == value:
            return k
        acc = acc * generator
    raise ValueError(f"{value!r} is not a power of {generator!r} in mu_{n}")


def nth_root(value: FpElement, n: int) -> FpElement | None:
    """The least x with x^n == value, or None when value is not an n-th power.

    Euler's criterion: a nonzero value is an n-th power in the cyclic group F_p^*
    exactly when value^((p - 1) / gcd(n, p - 1)) = 1, so a value without a root is
    refused before the scan."""
    p, target = value.p, value.value
    if target and pow(target, (p - 1) // gcd(n, p - 1), p) != 1:
        return None
    return next((FpElement(p, x) for x in range(1, p) if pow(x, n, p) == target), None)
