"""Verdict-producing procedures with machine-checkable certificates.

For a right-angled system with more than two boundary points, the boundary
is a scrambled set exactly when the minimum finite-index parabolic is
irreducible; otherwise the infinite part splits as a product, which blocks
scrambling.  Everything a verdict asserts is carried in a certificate that
can be re-validated independently of the procedure that produced it.
"""

from dataclasses import dataclass
from math import inf

from . import core, racg
from .errors import (
    BoundaryTooSmallError,
    NotRightAngled,
    OrderNotInfinite,
)

# boundary size classes
EMPTY = "empty"
TWO_POINTS = "two-points"
MORE_THAN_TWO = "more-than-two"

SCRAMBLED = "scrambled"
NOT_SCRAMBLED = "not-scrambled"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class IrreducibleCore:
    """The infinite part of the system is a single irreducible piece."""

    members: frozenset

    def describe(self, system):
        names = " ".join(system.labels[i] for i in sorted(self.members))
        return f"irreducible-core: {{{names}}}"

    def revalidate(self, system):
        if self.members != core.infinite_support(system):
            return False
        return len(core._components_of(system, self.members)) == 1


@dataclass(frozen=True)
class ProductSplit:
    """The infinite part splits as a product of two infinite halves."""

    left: frozenset
    right: frozenset

    def describe(self, system):
        a = " ".join(system.labels[i] for i in sorted(self.left))
        b = " ".join(system.labels[i] for i in sorted(self.right))
        return f"product-split: {{{a}}} x {{{b}}}"

    def revalidate(self, system):
        entries = system.matrix.entries
        if self.left & self.right:
            return False
        if self.left | self.right != core.infinite_support(system):
            return False
        if any(entries[a][b] != 2 for a in self.left for b in self.right):
            return False
        return not core.is_spherical(system, self.left) and not core.is_spherical(
            system, self.right
        )


@dataclass(frozen=True)
class FiniteCentralizer:
    """Some generator has a finite centralizer."""

    generator: int

    def describe(self, system):
        return f"finite-centralizer: {system.labels[self.generator]}"

    def revalidate(self, system):
        return racg.generator_centralizer_finite(system, self.generator)


@dataclass(frozen=True)
class PushWitness:
    """A bounded-step push into a common one-generator descent class."""

    s0: int
    t0: int
    bound: int

    def describe(self, system):
        return (
            f"push-witness: s0={system.labels[self.s0]}"
            f" t0={system.labels[self.t0]} bound={self.bound}"
        )

    def revalidate(self, system):
        return system.order(self.s0, self.t0) == inf


@dataclass(frozen=True)
class BoundaryTooSmall:
    size_class: str

    def describe(self, system):
        return f"boundary-too-small: {self.size_class}"

    def revalidate(self, system):
        return boundary_size_class(system) == self.size_class


@dataclass(frozen=True)
class OutOfScope:
    reason: str

    def describe(self, system):
        return f"out-of-scope: {self.reason}"

    def revalidate(self, system):
        return (
            not system.right_angled
            and boundary_size_class(system) == MORE_THAN_TWO
            and find_product_split(system) is None
        )


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate: object

    def describe(self, system):
        return f"verdict: {self.outcome}\ncertificate: {self.certificate.describe(system)}"


def boundary_size_class(system):
    """Classify the boundary as empty, a two-point set, or bigger.

    The group is finite exactly when no irreducible component is infinite;
    the boundary is a two-point set exactly when the only infinite component
    is a pair of generators, necessarily of infinite order (an infinite
    dihedral factor).
    """
    infinite = core._structure(system)[1]
    if not infinite:
        return EMPTY
    if len(infinite) == 1 and len(infinite[0]) == 2:
        return TWO_POINTS
    return MORE_THAN_TWO


def decide_scrambled(system):
    """Decide whether the boundary of a right-angled system is scrambled."""
    if not system.right_angled:
        raise NotRightAngled("the full decision applies to right-angled systems")
    return analyze(system)


def find_product_split(system):
    """Partition of the infinite support into two infinite halves, if any.

    Returns (left, right) with both parabolics infinite and all cross pairs
    commuting, or None when the infinite support has a single component.
    """
    infinite = core._structure(system)[1]
    if len(infinite) < 2:
        return None
    return infinite[0], frozenset().union(*infinite[1:])


def finite_centralizer_generator(system):
    """Smallest generator whose centralizer is finite, or None.

    Implemented for right-angled systems only; a hit upgrades an unknown
    verdict to scrambled whenever the boundary has more than two points.
    """
    if not system.right_angled:
        return None
    for s in system.generators:
        if racg.generator_centralizer_finite(system, s):
            return s
    return None


def is_expansive(system):
    """Expansiveness of the boundary action, for right-angled systems.

    Coincides with hyperbolicity whenever the boundary has more than two
    points.
    """
    if not system.right_angled:
        raise NotRightAngled("expansiveness test is right-angled only")
    if boundary_size_class(system) != MORE_THAN_TWO:
        raise BoundaryTooSmallError("expansiveness needs more than two ends")
    return racg.is_hyperbolic(system)


def uniform_push_condition(system, s0, t0, bound, radius):
    """Bounded verification of the joint-push condition.

    Checks that for every pair (w, v) of elements of length <= radius there
    is an x of length <= bound with descents(w x) = descents(v x) = {s0},
    and records one witness per unordered pair.  Requires the product s0 t0
    to have infinite order.  This is a radius-bounded verification, not a
    proof for the whole group.

    Returns (ok, witnesses) where witnesses maps (w, v) canonical word pairs
    to the witness word; on failure the offending pair is absent.
    """
    if system.order(s0, t0) != inf:
        raise OrderNotInfinite(
            f"order of {system.labels[s0]} {system.labels[t0]} is not inf"
        )
    elements = core.ball(system, radius)
    target = frozenset([s0])
    constructive = (
        system.right_angled
        and racg.is_irreducible(system)
        and boundary_size_class(system) == MORE_THAN_TWO
    )
    forms = constructive and [
        racg.NormalForm(w, racg._descents(system, w)) for w in elements
    ]
    candidates = None  # exhaustive fallback, built on first use

    def lands(w, x):
        if not system.right_angled:
            return core.descent_set(system, w + x) == target
        for s in x:  # w is canonical, so this gives the canonical w x
            w = racg._append(system, w, s)
        return racg._descents(system, w) == target

    witnesses = {}
    ok = True
    for i, w in enumerate(elements):
        for j in range(i, len(elements)):
            v = elements[j]
            if constructive:
                x = racg.push_to_common_singleton(system, forms[i], forms[j], s0)
                if len(x) <= bound and lands(w, x) and lands(v, x):
                    witnesses[(w, v)] = x
                    continue
            if candidates is None:
                candidates = core.ball(system, bound)
            for x in candidates:
                if lands(w, x) and lands(v, x):
                    witnesses[(w, v)] = x
                    break
            else:
                ok = False
    return ok, witnesses


def analyze(system):
    """Full verdict pipeline, usable for any system.

    A small boundary or a product split of the infinite part settles the
    question for every system.  Otherwise the infinite part is a single
    irreducible piece: scrambled for a right-angled system, unknown for any
    other, where only those sufficient conditions are certifiable.
    """
    size = boundary_size_class(system)
    if size != MORE_THAN_TWO:
        return Verdict(NOT_SCRAMBLED, BoundaryTooSmall(size))
    split = find_product_split(system)
    if split is not None:
        return Verdict(NOT_SCRAMBLED, ProductSplit(*split))
    if system.right_angled:
        return Verdict(SCRAMBLED, IrreducibleCore(core.infinite_support(system)))
    return Verdict(
        UNKNOWN,
        OutOfScope(
            "not right-angled: only sufficient conditions are certifiable here"
        ),
    )
