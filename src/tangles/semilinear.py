"""Eventually periodic subsets of the naturals with exact set algebra.

A set of naturals that is eventually periodic is a unary regular
language, so an ultimately periodic bit pattern is an exact normal form
for it (Chrobak, "Finite automata and unary languages", TCS 1986).  A set
is stored as four Python ints ``(t, d, low, cycle)``:

* ``t`` is the least threshold from which membership is ``d``-periodic,
* ``d`` is the least eventual period,
* bit ``x`` of ``low`` says whether ``x < t`` is a member,
* bit ``i`` of the ``d``-bit ``cycle`` says whether ``t + i`` is, and so
  whether every ``t + i + k*d`` is.

Both minima make the form canonical, so equality of the four ints decides
set equality, and a set is finite exactly when its cycle is zero.  The
boolean operations align their operands to a common threshold (the
largest) and period (the lcm) by repeating each cycle, combine the masks
with ``|``, ``&`` and ``& ~``, and minimise once.  Membership and the
smallest elements are bit reads and bit scans.

The text form lists the members below ``t`` and one progression
``a+dt`` per set bit of the cycle.  :meth:`items` yields them one at a
time, read off the bits, so a text can be compared item by item without
being built (a wide period has hundreds of thousands); :attr:`progressions`
holds the progressions as a Python tuple, built on first use.

An aligned pattern is ``T + D`` bits wide; past :data:`WIDTH_CAP` bits an
operation raises :class:`ResourceGuardError` instead of allocating (the
CLI maps that error to exit code 3).  Coprime periods multiply, so a few
large ones are enough to reach it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm

# Widest aligned pattern (threshold + period, in bits) an operation builds.
WIDTH_CAP = 1 << 20

_NAT_RE = re.compile(r"0|[1-9][0-9]*")
_PROG_RE = re.compile(r"(0|[1-9][0-9]*)\+(0|[1-9][0-9]*)t")


class ResourceGuardError(RuntimeError):
    """A computation would exceed a fixed resource bound."""


def parse_nat(text: str, what: str) -> int:
    """The natural number that ``text`` writes in ASCII decimal digits with
    no leading zero.  Any other text, even one ``int`` reads (``1_0``,
    ``+4``, ``007``, non-ASCII digits), is a ValueError naming it as a
    ``what``, so each number has one text."""
    if not _NAT_RE.fullmatch(text):
        raise ValueError(f"bad {what} {text!r}")
    return int(text)


def guard_width(width: int) -> None:
    if width > WIDTH_CAP:
        raise ResourceGuardError(f"index set pattern of {width} bits exceeds the cap of {WIDTH_CAP}")


@lru_cache(maxsize=1024)
def _divisors(n: int) -> tuple[int, ...]:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return tuple(small + large)


def _repeat(cycle: int, d: int, n: int) -> int:
    """The first ``n`` bits of the ``d``-periodic pattern starting with ``cycle``."""
    while d < n:
        cycle |= cycle << d
        d <<= 1
    return cycle & ((1 << n) - 1)


def _scan_ones(m: int):
    """The positions of the set bits of ``m``, ascending, one at a time."""
    s = bin(m)[:1:-1]
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


def _ones(m: int) -> list[int]:
    """The positions of the set bits of ``m``, ascending."""
    return list(_scan_ones(m))


# A pattern ``(t, d, low, cycle)`` is the raw form of a set: its members
# below ``t`` are the bits of ``low`` and from ``t`` on it is ``d``-periodic
# with the ``d``-bit window ``cycle``, but neither ``t`` nor ``d`` need be
# least.  ``SemilinearSet.union_patterns`` unites any number of patterns
# into a canonical set, so a set built from many pieces is minimised once.


def points_pattern(xs) -> tuple[int, int, int, int]:
    """The finite set of the naturals ``xs``, guarded like :meth:`SemilinearSet.make`."""
    guard_width(max(xs, default=-1) + 1)
    low = 0
    for x in xs:
        low |= 1 << x
    return low.bit_length(), 1, low, 0


def from_pattern(a: int) -> tuple[int, int, int, int]:
    """All naturals >= a."""
    return a, 1, 0, 1


def all_but_pattern(xs) -> tuple[int, int, int, int]:
    """All naturals outside the finite set ``xs``."""
    t, _, low, _ = points_pattern(xs)
    return t, 1, ~low & ((1 << t) - 1), 1


def text_patterns(s: str) -> list[tuple[int, int, int, int]]:
    """The patterns of a set's text ``{...}``, not yet united: their union
    is :meth:`SemilinearSet.parse` of the text."""
    s = s.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"bad semilinear text: {s!r}")
    body = s[1:-1].strip()
    explicit, progs = [], []
    if body:
        for item in body.split(","):
            item = item.strip()
            m = _PROG_RE.fullmatch(item)
            if m:
                progs.append((int(m.group(1)), int(m.group(2)), 0, 1))
            else:
                explicit.append(parse_nat(item, "index item"))
    if any(p[1] < 1 for p in progs):
        raise ValueError("bad progression")
    return [points_pattern(explicit), *progs]


@dataclass(frozen=True)
class SemilinearSet:
    """Canonical eventually periodic set of naturals.

    Do not call the constructor with raw data; use :meth:`make` (or the
    convenience builders), which canonicalise.
    """

    t: int
    d: int
    low: int
    cycle: int

    # -- construction ----------------------------------------------------

    @classmethod
    def make(cls, explicit=(), progressions=()) -> "SemilinearSet":
        explicit = [int(x) for x in explicit]
        progs = [(int(a), int(d)) for a, d in progressions]
        if any(x < 0 for x in explicit):
            raise ValueError("negative element")
        if any(a < 0 or d < 1 for a, d in progs):
            raise ValueError("bad progression")
        return cls.union_patterns([points_pattern(explicit), *((a, d, 0, 1) for a, d in progs)])

    @classmethod
    def union_patterns(cls, parts) -> "SemilinearSet":
        """The union of ``(t, d, low, cycle)`` patterns, aligned and
        minimised once."""
        t = max((p[0] for p in parts), default=0)
        d = lcm(*(p[1] for p in parts))
        low = cycle = 0
        for part_low, part_cycle in _aligned(parts, t, d):
            low |= part_low
            cycle |= part_cycle
        return cls._from_bits(t, d, low, cycle)

    @classmethod
    def _from_bits(cls, t: int, d: int, low: int, cycle: int) -> "SemilinearSet":
        """The canonical set whose members below ``t`` are ``low`` and whose
        ``d``-bit window from ``t`` on is ``cycle``."""
        # least period: the smallest divisor p of d under whose rotation the
        # window is invariant (periods of a cyclic word are the multiples of
        # the least one)
        for p in _divisors(d):
            if p == d or cycle == (cycle >> p) | ((cycle & ((1 << p) - 1)) << (d - p)):
                break
        d, cycle = p, cycle & ((1 << p) - 1)
        # least threshold: continue the period below t and keep the bits
        # from the highest one where low disagrees with that continuation
        reps = -(-t // d)
        back = _repeat(cycle, d, reps * d) >> (reps * d - t)
        t2 = (low ^ back).bit_length()
        cycle = ((back | cycle << t) >> t2) & ((1 << d) - 1)
        return cls(t2, d, low & ((1 << t2) - 1), cycle)

    @classmethod
    def empty(cls) -> "SemilinearSet":
        return cls(0, 1, 0, 0)

    @classmethod
    def naturals(cls) -> "SemilinearSet":
        return cls(0, 1, 0, 1)

    @classmethod
    def of(cls, *xs: int) -> "SemilinearSet":
        return cls.make(xs)

    @classmethod
    def from_(cls, a: int) -> "SemilinearSet":
        """All naturals >= a."""
        return cls.make((), ((a, 1),))

    @classmethod
    def progression(cls, a: int, d: int) -> "SemilinearSet":
        return cls.make((), ((a, d),))

    # -- views -----------------------------------------------------------

    @cached_property
    def progressions(self) -> tuple[tuple[int, int], ...]:
        """One ``(offset, period)`` per member of ``[t, t + d)``, by offset."""
        return tuple((self.t + i, self.d) for i in _ones(self.cycle))

    # -- queries ---------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        if x < self.t:
            return x >= 0 and self.low >> x & 1 == 1
        return self.cycle >> (x - self.t) % self.d & 1 == 1

    @property
    def is_finite(self) -> bool:
        return not self.cycle

    @property
    def is_empty(self) -> bool:
        return not self.low and not self.cycle

    @property
    def is_infinite(self) -> bool:
        return bool(self.cycle)

    @property
    def bound(self) -> int:
        """Membership at and beyond this value is purely periodic.

        This is one past the last explicit member, or the last progression's
        offset plus its period, whichever is larger.
        """
        if self.cycle:
            return self.t + self.cycle.bit_length() - 1 + self.d
        return self.low.bit_length()

    def min_value(self) -> int:
        if self.low:
            return (self.low & -self.low).bit_length() - 1
        if self.cycle:
            return self.t + (self.cycle & -self.cycle).bit_length() - 1
        raise ValueError("empty set has no minimum")

    def _prefix(self, n: int) -> int:
        """The members below ``n`` as a mask."""
        if n <= self.t:
            return self.low & ((1 << max(n, 0)) - 1)
        return self.low | _repeat(self.cycle, self.d, n - self.t) << self.t

    def elements_below(self, n: int) -> list[int]:
        return _ones(self._prefix(n))

    def first(self, k: int) -> list[int]:
        """The k smallest elements (fewer if the set is smaller)."""
        periods = -(-k // self.cycle.bit_count()) if self.cycle else 0
        return self.elements_below(self.t + periods * self.d)[:k]

    # -- algebra ---------------------------------------------------------

    def union(self, other: "SemilinearSet") -> "SemilinearSet":
        return SemilinearSet.union_all((self, other))

    @classmethod
    def union_all(cls, sets) -> "SemilinearSet":
        """The union of any number of sets, aligned and minimised once."""
        return cls.union_patterns([(s.t, s.d, s.low, s.cycle) for s in sets])

    def intersection(self, other: "SemilinearSet") -> "SemilinearSet":
        t, d, (l1, c1), (l2, c2) = self._align(other)
        return SemilinearSet._from_bits(t, d, l1 & l2, c1 & c2)

    def difference(self, other: "SemilinearSet") -> "SemilinearSet":
        t, d, (l1, c1), (l2, c2) = self._align(other)
        return SemilinearSet._from_bits(t, d, l1 & ~l2, c1 & ~c2)

    def complement(self) -> "SemilinearSet":
        # negation commutes with shifts, so both minima carry over
        t, d = self.t, self.d
        return SemilinearSet(t, d, ~self.low & ((1 << t) - 1), ~self.cycle & ((1 << d) - 1))

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def _align(self, other: "SemilinearSet"):
        """Common threshold and period, and both sets' (low, cycle) there."""
        a = (self.t, self.d, self.low, self.cycle)
        b = (other.t, other.d, other.low, other.cycle)
        t, d = max(a[0], b[0]), lcm(a[1], b[1])
        return t, d, *_aligned((a, b), t, d)

    # -- text form ---------------------------------------------------------

    def items(self):
        """The items of the text form, one at a time: the members below the
        threshold, then one progression per set bit of the cycle."""
        yield from map(str, _scan_ones(self.low))
        t, d = self.t, self.d
        for i in _scan_ones(self.cycle):
            yield f"{t + i}+{d}t"

    def text(self) -> str:
        return "{" + ",".join(self.items()) + "}"

    @classmethod
    def parse(cls, s: str) -> "SemilinearSet":
        return cls.union_patterns(text_patterns(s))

    def __repr__(self) -> str:
        return f"SemilinearSet({self.text()})"


def _aligned(parts, t: int, d: int) -> list[tuple[int, int]]:
    """Each ``(t_i, d_i, low, cycle)`` part as ``(low, cycle)`` at threshold
    ``t >= t_i`` and period ``d``, a multiple of ``d_i``."""
    guard_width(t + d)
    out = []
    for pt, pd, low, cycle in parts:
        if pt == t and pd == d:
            out.append((low, cycle))
            continue
        run = _repeat(cycle, pd, t - pt + d)
        out.append((low | (run & ((1 << (t - pt)) - 1)) << pt, run >> (t - pt)))
    return out

