"""The rounds of a composition: the distinct per-round eps, how many rounds
take each, and the order of the rounds when they differ.  The methods of
``cli``, every bound and ``dp_optcomp_het`` take a ``Rounds`` or anything
``Rounds.of`` accepts; the solvers that pair each round with an offset or a
tree level take the list (``Rounds.as_list``).

``Rounds.of`` counts a list by one of three paths, each giving what
``Counter(map(float, ...))`` gives, keys in order of first appearance: an
equal list or tuple by one ``list.count``; an unequal list of
``SORTED_COUNT_MIN`` entries or more, with at most ``SORTED_DISTINCT_MAX``
distinct values, by sorting its float64 copy (``_sorted_counts``); and
every other input by hashing its entries."""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# The shortest unequal list counted by sorting (``_sorted_counts``).  Below
# it the fixed cost of the numpy calls loses to hashing: on a 2-core Xeon
# host, lists of 2-9 values broke even at 1000-1200 entries when they share
# a few float objects, as perfbench's lists do, and at about 500 when every
# entry is its own object.
SORTED_COUNT_MIN = 1000
# The most distinct values a sorted count takes.  Each costs one pass over
# the list for its first appearance, and at SORTED_COUNT_MIN entries 16
# values broke even with hashing (32 at 2000 entries, about 250 at 20 000);
# past the cap the list is hashed, so no count costs O(entries x values).
SORTED_DISTINCT_MAX = 16


def _sorted_counts(order: tuple) -> dict | None:
    """A long list's counts from one sort of its float64 copy, keyed by float
    in order of first appearance; None where the hashed count must decide:
    an entry that ``struct`` does not take as a float (a string, or one that
    ``float`` refuses too), or more than ``SORTED_DISTINCT_MAX`` distinct
    values."""
    if len(set(order[:4 * SORTED_DISTINCT_MAX])) > SORTED_DISTINCT_MAX:
        return None   # many distinct values show early: no conversion spent on them
    try:
        # float() of each entry at a quarter of np.fromiter's time; and
        # np.fromiter reads None as nan, where float() refuses it
        eps = np.frombuffer(struct.pack(f"{len(order)}d", *order))
    except struct.error:
        return None
    ranked = np.sort(eps)
    # -0.0 and 0.0 share a run, as they share a Counter key; a nan is a run
    # of its own, refused like any nan
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    if len(starts) > SORTED_DISTINCT_MAX:
        return None
    values = ranked[starts].tolist()
    counts = np.diff(starts, append=len(ranked)).tolist()
    first = [np.argmax(eps == e) for e in values]
    return {values[i]: counts[i] for i in sorted(range(len(values)), key=first.__getitem__)}


_NOT_1D = "eps_list must be a 1-D sequence"


@dataclass(frozen=True, init=False)
class Rounds:
    values: tuple[float, ...]   # the distinct positive eps, in order of first appearance
    counts: tuple[int, ...]     # the rounds that take each value
    order: tuple | None = None   # every round's eps in order, as given; None when all equal
    # derived once, as plain attributes: a budget or lambda search reads them per evaluation
    k: int = field(init=False, repr=False)                      # the rounds with positive eps
    equal_eps: bool = field(init=False, repr=False)             # one distinct eps
    groups: tuple[tuple[float, int], ...] = field(init=False, repr=False)   # (eps, count) pairs

    def __init__(self, values: tuple[float, ...], counts: tuple[int, ...],
                 order: tuple | None = None):
        # the fields go straight into the instance dict, here and in
        # _validated: the generated __init__ of a frozen dataclass and a
        # __post_init__ set each one through object.__setattr__, which took
        # half the time of a build
        f = self.__dict__
        f["values"], f["counts"], f["order"] = values, counts, order
        f["k"], f["equal_eps"], f["groups"] = sum(counts), len(values) == 1, tuple(zip(values, counts))

    @classmethod
    def of(cls, eps_list) -> Rounds:
        """The rounds of a list, tuple, 1-D array or iterator of eps, or of one
        scalar eps; a ``Rounds`` passes unchanged.  An equal list or tuple is
        recognised at C speed by one ``list.count``, with no hashing; an
        unequal one of ``SORTED_COUNT_MIN`` entries or more is counted in
        numpy (``_sorted_counts``), and the rest by hashing.  A 2-D array or
        a list of sequences is refused with ``ValueError``."""
        if isinstance(eps_list, Rounds):
            return eps_list
        if isinstance(eps_list, np.ndarray):
            eps_list = eps_list.tolist()   # iterating an array boxes each entry twice
        order = eps_list
        try:
            # the last entry spares most unequal lists the full count
            if (isinstance(eps_list, (list, tuple)) and eps_list and eps_list[-1] == eps_list[0]
                    and eps_list.count(eps_list[0]) == len(eps_list)):
                counts, order = {float(eps_list[0]): len(eps_list)}, None
            else:
                try:
                    order = tuple(eps_list)    # a copy, not a pass per entry
                except TypeError:              # a scalar is one round
                    order = (eps_list,)
                counts = _sorted_counts(order) if len(order) >= SORTED_COUNT_MIN else None
                if counts is None:
                    counts = Counter(order)
                    if any(type(e) is not float for e in counts):   # ints, numpy floats
                        counts = Counter(map(float, order))
        except (TypeError, ValueError):
            # a nested entry, as a 2-D array's row, fails in hash(), float() or ==
            if any(isinstance(e, (list, tuple)) or getattr(e, "ndim", 0) for e in order):
                raise ValueError(_NOT_1D) from None
            raise
        return cls._validated(counts, order)

    @classmethod
    def equal(cls, eps: float, k: int) -> Rounds:
        """k rounds of eps: ``Rounds.of([eps] * k)`` without the list."""
        # a float k, even 2.0, does not pass; the type test spares an int the isinstance
        if type(k) is not int and not isinstance(k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got {k!r}")
        return cls._validated({float(eps): int(k)} if k > 0 else {}, None)

    @classmethod
    def _validated(cls, counts: dict, order: tuple | None) -> Rounds:
        """Every build's one check: nonempty, every eps finite and nonnegative
        (once per distinct value; a nan is never merged away), and the zero
        rounds, data-independent no-ops, dropped."""
        if not counts:
            raise ValueError("eps_list must be nonempty")
        for e in counts:   # a loop: all() over a generator cost a sixth of a build
            if not 0.0 <= e < math.inf:
                raise ValueError("eps must be finite and nonnegative")
        if counts.pop(0.0, None) and order is not None:
            order = tuple(e for e in order if float(e) != 0.0)
        values, n = tuple(counts), tuple(counts.values())
        rounds = object.__new__(cls)
        f = rounds.__dict__
        f["values"], f["counts"], f["order"] = values, n, order if len(values) > 1 else None
        f["k"], f["equal_eps"], f["groups"] = sum(n), len(values) == 1, tuple(counts.items())
        return rounds

    def as_list(self) -> list[float]:
        """Every round's eps in order."""
        if self.order is None:
            return list(self.values) * self.k
        return list(map(float, self.order))

    def halved(self) -> Rounds:
        """The same rounds at eps / 2 (exact above the subnormals)."""
        return Rounds(tuple(e / 2.0 for e in self.values), self.counts,
                      None if self.order is None else tuple(float(e) / 2.0 for e in self.order))

    def total_up(self) -> float:
        """The smallest float at or above the exact sum of the eps (inf past
        the float range), from the values' integer ratios in O(distinct values)."""
        ratios = [e.as_integer_ratio() for e in self.values]
        den = max((d for _, d in ratios), default=1)   # each d is a power of two
        num = sum(a * n * (den // d) for (a, d), n in zip(ratios, self.counts))
        try:
            s = num / den   # correctly rounded
        except OverflowError:
            return math.inf
        c, d = s.as_integer_ratio()
        return s if c * den >= num * d else math.nextafter(s, math.inf)
