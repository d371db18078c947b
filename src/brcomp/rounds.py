"""The rounds of a composition: the distinct per-round eps, how many rounds
take each, and the order of the rounds when they differ.  The methods of
``cli``, every bound and ``dp_optcomp_het`` take a ``Rounds`` or anything
``Rounds.of`` accepts; the solvers that pair each round with an offset or a
tree level take the list (``Rounds.as_list``)."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Rounds:
    values: tuple[float, ...]   # the distinct positive eps, in order of first appearance
    counts: tuple[int, ...]     # the rounds that take each value
    order: tuple | None = None   # every round's eps in order, as given; None when all equal
    # derived once, as plain attributes: a budget or lambda search reads them per evaluation
    k: int = field(init=False, repr=False)                      # the rounds with positive eps
    equal_eps: bool = field(init=False, repr=False)             # one distinct eps
    groups: tuple[tuple[float, int], ...] = field(init=False, repr=False)   # (eps, count) pairs

    def __post_init__(self):
        object.__setattr__(self, "k", sum(self.counts))
        object.__setattr__(self, "equal_eps", len(self.values) == 1)
        object.__setattr__(self, "groups", tuple(zip(self.values, self.counts)))

    @classmethod
    def of(cls, eps_list) -> Rounds:
        """The rounds of a list, tuple, 1-D array or iterator of eps, or of one
        scalar eps; a ``Rounds`` passes unchanged.  An equal list or tuple is
        recognised at C speed by one ``list.count``, with no hashing."""
        if isinstance(eps_list, Rounds):
            return eps_list
        if isinstance(eps_list, np.ndarray):
            eps_list = eps_list.tolist()   # iterating an array boxes each entry twice
        # the last entry spares most unequal lists the full count
        if (isinstance(eps_list, (list, tuple)) and eps_list and eps_list[-1] == eps_list[0]
                and eps_list.count(eps_list[0]) == len(eps_list)):
            return cls._validated({float(eps_list[0]): len(eps_list)}, None)
        try:
            order = tuple(eps_list)    # a copy, not a pass per entry
        except TypeError:              # a scalar is one round
            order = (eps_list,)
        counts = Counter(order)
        if any(type(e) is not float for e in counts):   # ints, numpy floats
            counts = Counter(map(float, order))
        return cls._validated(counts, order)

    @classmethod
    def equal(cls, eps: float, k: int) -> Rounds:
        """k rounds of eps: ``Rounds.of([eps] * k)`` without the list."""
        if not isinstance(k, (int, np.integer)):   # a float k, even 2.0, does not pass
            raise ValueError(f"k must be an integer, got {k!r}")
        return cls._validated({float(eps): int(k)} if k > 0 else {}, None)

    @classmethod
    def _validated(cls, counts: dict, order: tuple | None) -> Rounds:
        """Every build's one check: nonempty, every eps finite and nonnegative
        (once per distinct value; a nan is never merged away), and the zero
        rounds, data-independent no-ops, dropped."""
        if not counts:
            raise ValueError("eps_list must be nonempty")
        if not all(0.0 <= e < math.inf for e in counts):
            raise ValueError("eps must be finite and nonnegative")
        if counts.pop(0.0, None) and order is not None:
            order = tuple(e for e in order if float(e) != 0.0)
        return cls(tuple(counts), tuple(counts.values()), order if len(counts) > 1 else None)

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
