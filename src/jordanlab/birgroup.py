"""Birational automorphisms (x, t) -> (x + y, f(x) * t) of E x A^1.

These maps form a group under composition:

    compose(B, A) = A-then-B = (y_A + y_B, T_{y_A}^* f_B * f_A),
    inverse(A)    = (-y_A, T_{-y_A}^* (1 / f_A)),

and each one is only birational: applying it at a sample point inside the
support of its function is a normal Undefined outcome, not a failure.

A theta element (x, f) embeds as the automorphism (x, f); products transport
with the left factor acting first, so embed(g * h) composes embed(g) first:

    embed(theta_mul(g, h)) == compose(embed(h), embed(g)).

Equality of automorphisms is semantic (same translation, same divisor, and
the ratio of the two functions is the constant 1) because the factored
function representation has no canonical form.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .errors import CurveMismatch, EvalAtSupport, Undefined
from .ellcurve import Curve, CurvePoint, TrackedFunction, affine_points, same_function
from .frozen import Frozen, set_field
from .theta import ThetaElement


class SamplePoint(Frozen):
    """A point (x, t) of E x A^1 used to evaluate automorphisms pointwise; the fiber
    coordinate t is an int in [1, p)."""

    __slots__ = ("x", "t")

    def __init__(self, x: CurvePoint, t: int):
        set_field(self, "x", x)
        set_field(self, "t", t)


class BirAuto(Frozen):
    """The automorphism (x, t) -> (x + y, f(x) * t)."""

    __slots__ = ("y", "f")

    def __init__(self, y: CurvePoint, f: TrackedFunction):
        if y.curve is not f.curve and y.curve != f.curve:
            raise CurveMismatch("translation and function live on different curves")
        set_field(self, "y", y)
        set_field(self, "f", f)

    @property
    def curve(self) -> Curve:
        return self.y.curve

    def __matmul__(self, other: "BirAuto") -> "BirAuto":
        """self after other."""
        return compose(self, other)

    def inverse(self) -> "BirAuto":
        return inverse(self)

    def __call__(self, s: SamplePoint) -> SamplePoint:
        return apply(self, s)

    def __repr__(self):
        return f"A({self.y!r}, {self.f!r})"


def identity(curve: Curve) -> BirAuto:
    return BirAuto(curve.infinity(), TrackedFunction.one(curve))


def compose(second: BirAuto, first: BirAuto) -> BirAuto:
    """The composite applying `first` first."""
    if second.y.curve is not first.y.curve and second.curve != first.curve:
        raise CurveMismatch("cannot compose over different curves")
    return BirAuto(first.y + second.y, second.f.translate(first.y) * first.f)


def inverse(a: BirAuto) -> BirAuto:
    return BirAuto(-a.y, a.f.inverse().translate(-a.y))


def apply(a: BirAuto, s: SamplePoint) -> SamplePoint:
    """Evaluate at a sample, on the int value of a.f (CurveMismatch off its curve);
    Undefined marks the birational locus."""
    f = a.f
    try:
        factor = f.value_at(s.x)
    except EvalAtSupport as exc:
        raise Undefined(f"{a!r} is undefined at {s.x!r}") from exc
    curve = f.curve
    return SamplePoint(curve._add(s.x, a.y), factor * s.t % curve.p)


def bir_equal(a: BirAuto, b: BirAuto) -> bool:
    """Same translation and the same function."""
    return a.curve == b.curve and a.y == b.y and same_function(a.f, b.f)


def theta_embed(g: ThetaElement) -> BirAuto:
    """A theta pair (x, f) acting on E x A^1 as (x, t) -> (x + x_g, f(x) t)."""
    return BirAuto(g.x, g.f)


class Samples(Sequence):
    """count samples (x, t), drawn as ints up front; the SamplePoint at an index is
    built the first time that index is read, and kept."""

    __slots__ = ("_pool", "_draws", "_built")

    def __init__(self, pool: tuple[CurvePoint, ...], draws: list[tuple[int, int]]):
        self._pool = pool
        self._draws = draws  # (index into pool, t) per sample
        self._built: dict[int, SamplePoint] = {}

    def __len__(self) -> int:
        return len(self._draws)

    def __getitem__(self, i: int) -> SamplePoint:
        sample = self._built.get(i)
        if sample is None:
            x, t = self._draws[i]  # IndexError past the end ends iteration
            sample = self._built[i] = SamplePoint(self._pool[x], t)
        return sample


def sample_points(curve: Curve, seed: int = 0, count: int = 100) -> Samples:
    """Deterministic stream of samples with nonzero fiber coordinate: per sample, a point
    of affine_points(curve) by rng.choice, then t in [1, p) by rng.choice, which draws
    _randbelow(p - 1) as rng.randrange(1, p) does."""
    rng = random.Random(f"{seed}:{curve.p}:samples")
    pool = affine_points(curve)
    indices, fibers = range(len(pool)), range(1, curve.p)
    return Samples(pool, [(rng.choice(indices), rng.choice(fibers)) for _ in range(count)])
