import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangles.finite_tangles import ResourceGuardError as FiniteTanglesGuard
from tangles.semilinear import WIDTH_CAP, ResourceGuardError, SemilinearSet

sls = st.builds(
    SemilinearSet.make,
    st.frozensets(st.integers(0, 20), max_size=6),
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(1, 4)), max_size=3
    ).map(tuple),
)


def members(s, n=200):
    return {x for x in range(n) if x in s}


def test_basic_examples():
    evens = SemilinearSet.progression(0, 2)
    odds = SemilinearSet.progression(1, 2)
    assert (evens | odds) == SemilinearSet.naturals()
    assert not (evens | odds).is_finite
    assert (evens & odds).is_empty
    assert (evens & odds).is_finite
    assert SemilinearSet.make(range(10)).complement() == SemilinearSet.from_(10)


def test_canonical_form_is_minimal():
    # {10+3t} u {11+3t} u {12+3t} is just everything from 10
    s = SemilinearSet.make((), [(10, 3), (11, 3), (12, 3)])
    assert s == SemilinearSet.from_(10)
    assert s.progressions == ((10, 1),)
    # a progression fully shadowed by explicit elements collapses
    t = SemilinearSet.make([0, 2, 4], [(0, 2)])
    assert t == SemilinearSet.progression(0, 2)


def test_finite_iff_no_progressions():
    assert SemilinearSet.of(1, 5, 9).is_finite
    assert not SemilinearSet.progression(3, 5).is_finite
    cof = SemilinearSet.naturals() - SemilinearSet.of(4)
    assert not cof.is_finite
    assert (cof & SemilinearSet.make(range(6))).is_finite


def test_membership_and_min():
    s = SemilinearSet.make([3], [(10, 4)])
    assert 3 in s and 10 in s and 14 in s
    assert 11 not in s and 0 not in s
    assert s.min_value() == 3
    assert s.elements_below(15) == [3, 10, 14]
    assert s.first(4) == [3, 10, 14, 18]


def test_parse_roundtrip():
    for text in ("{}", "{0,2,4}", "{1+2t}", "{0,5,7+3t,8+3t}"):
        s = SemilinearSet.parse(text)
        assert SemilinearSet.parse(s.text()) == s
    with pytest.raises(ValueError):
        SemilinearSet.parse("0,1")


@pytest.mark.parametrize(
    "item", ["1_0", "+4", "\u0663+2t", "3+\u0662t", "1_0+2t", "2+3", "-1", "007", "05+2t", "5+02t"]
)
def test_parse_reads_only_ascii_decimals(item):
    # int() reads 1_0, +4, 007 and non-ASCII digits; a text has one reading
    with pytest.raises(ValueError, match=re.escape(f"bad index item {item!r}")):
        SemilinearSet.parse("{0, " + item + "}")


def test_bad_inputs():
    with pytest.raises(ValueError):
        SemilinearSet.make([-1])
    with pytest.raises(ValueError):
        SemilinearSet.make((), [(0, 0)])


@given(sls, sls)
@settings(max_examples=120, deadline=None)
def test_ops_match_set_oracle(a, b):
    n = max(a.bound, b.bound) + 30
    assert members(a | b, n) == members(a, n) | members(b, n)
    assert members(a & b, n) == members(a, n) & members(b, n)
    assert members(a - b, n) == members(a, n) - members(b, n)


@given(sls, sls)
@settings(max_examples=120, deadline=None)
def test_boolean_algebra_identities(a, b):
    assert (a | a) == a
    assert (a & a) == a
    assert a.complement().complement() == a
    assert (a | b).complement() == a.complement() & b.complement()
    assert (a & b).complement() == a.complement() | b.complement()


@given(sls)
@settings(max_examples=100, deadline=None)
def test_finiteness_matches_sampling_bound(s):
    # finite exactly when nothing appears at or beyond the periodic bound
    has_large = any(x in s for x in range(s.bound, s.bound + 8))
    assert s.is_finite == (not has_large)


# -- differential check against the pointwise algorithm ------------------------
#
# The reference below canonicalises by evaluating a membership predicate at
# every point of the lcm window, as the library did before index sets became
# bit patterns.  It is slow but has no bit arithmetic to get wrong.

PERIODS = (1, 2, 3, 4, 6, 10, 15, 21, 35)  # lcms reach 420


def _ref_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _ref_canonical(pred, t0, d0):
    """(explicit, progressions) of the set that is d0-periodic from t0 on."""
    window = [pred(t0 + i) for i in range(d0)]
    if not any(window):
        return frozenset(x for x in range(t0) if pred(x)), ()
    d = next(
        dd for dd in _ref_divisors(d0)
        if all(window[i] == window[(i + dd) % d0] for i in range(d0))
    )
    t = t0
    while t > 0 and pred(t - 1) == pred(t - 1 + d):
        t -= 1
    return frozenset(x for x in range(t) if pred(x)), tuple((a, d) for a in range(t, t + d) if pred(a))


class Ref:
    """A canonical set of the reference algorithm."""

    def __init__(self, explicit, progs):
        self.explicit, self.progs = frozenset(explicit), tuple(progs)

    @classmethod
    def make(cls, explicit, progs):
        t0 = max([0, *(x + 1 for x in explicit), *(a for a, _ in progs)])
        d0 = math.lcm(*(d for _, d in progs))
        return cls(*_ref_canonical(cls(explicit, progs).__contains__, t0, d0))

    def __contains__(self, x):
        return x in self.explicit or any(x >= a and (x - a) % d == 0 for a, d in self.progs)

    @property
    def period(self):
        return math.lcm(*(d for _, d in self.progs))

    @property
    def bound(self):
        return max([0, *(x + 1 for x in self.explicit), *(a + d for a, d in self.progs)])

    def combine(self, other, op):
        pred = lambda x: op(x in self, x in other)  # noqa: E731
        return Ref(*_ref_canonical(pred, max(self.bound, other.bound), math.lcm(self.period, other.period)))

    def complement(self):
        return Ref(*_ref_canonical(lambda x: x not in self, self.bound, self.period))

    def first(self, k):
        limit = self.bound + k * max([1, *(d for _, d in self.progs)])
        return [x for x in range(limit + 1) if x in self][:k]

    def text(self):
        items = [str(x) for x in sorted(self.explicit)] + [f"{a}+{d}t" for a, d in sorted(self.progs)]
        return "{" + ",".join(items) + "}"


raw_sets = st.tuples(
    st.frozensets(st.integers(0, 20), max_size=5),
    st.lists(st.tuples(st.integers(0, 20), st.sampled_from(PERIODS)), max_size=3),
)


def assert_same(s, ref):
    assert s.text() == ref.text()
    assert frozenset(s.elements_below(s.t)) == ref.explicit and s.progressions == ref.progs
    assert s.bound == ref.bound
    assert s.first(8) == ref.first(8)
    n = ref.bound + 2 * ref.period
    assert [x in s for x in range(n)] == [x in ref for x in range(n)]
    assert s.elements_below(n) == [x for x in range(n) if x in ref]
    assert s.is_finite == (not ref.progs)


@given(raw_sets, raw_sets)
@settings(max_examples=150, deadline=None)
def test_bit_algebra_matches_pointwise_reference(a, b):
    sa, sb = SemilinearSet.make(*a), SemilinearSet.make(*b)
    ra, rb = Ref.make(*a), Ref.make(*b)
    assert_same(sa, ra)
    assert_same(sb, rb)
    assert_same(sa | sb, ra.combine(rb, lambda x, y: x or y))
    assert_same(sa & sb, ra.combine(rb, lambda x, y: x and y))
    assert_same(sa - sb, ra.combine(rb, lambda x, y: x and not y))
    assert_same(sa.complement(), ra.complement())
    assert SemilinearSet.parse(sa.text()) == sa


def test_coprime_union_counts_progressions():
    parts = [SemilinearSet.progression(a, d) for a, d in ((3, 97), (5, 89), (7, 83))]
    u = SemilinearSet.union_all(parts)
    assert u == parts[0] | parts[1] | parts[2]
    assert len(u.progressions) == 23_803
    assert u.d == 97 * 89 * 83


def test_width_cap_is_a_resource_guard():
    with pytest.raises(ResourceGuardError):
        SemilinearSet.of(WIDTH_CAP)
    wide = SemilinearSet.union_all(SemilinearSet.progression(0, p) for p in (97, 89, 83))
    with pytest.raises(ResourceGuardError):
        wide | SemilinearSet.progression(0, 79)
    assert FiniteTanglesGuard is ResourceGuardError  # existing imports keep working
