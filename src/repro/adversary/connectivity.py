"""Reliable links and s-operational node tracking (Definitions 4–6).

The runner feeds this tracker, round by round, the set of broken nodes and
the set of unreliable links (computed by diffing sent vs. delivered
traffic, Definition 4).  The tracker maintains the inductively-defined set
of *s-operational* nodes:

- at the first communication round of the first time unit the operational
  nodes are exactly the non-broken ones (Def. 5.1);
- a node *stays* operational while it is unbroken and either (i) has
  reliable links to at least ``n - s`` nodes that were operational at the
  previous round, or (ii) has unreliable links to fewer than ``s`` nodes
  that were operational at the previous round;
- a non-operational node *becomes* operational at the end of a
  refreshment phase if it was unbroken throughout the phase and had
  reliable links, throughout the phase, to at least ``n - s`` nodes that
  were operational throughout the phase (Def. 5.3; the count matches
  Lemma 20's "a set S of at least n − t nodes").

A non-broken, non-operational node is *s-disconnected* (Def. 6).

**Cost.**  A round costs O(n + |U|), U being its unreliable-link set: one
walk over U charges each 2-element link to both endpoints, and every other
live peer is reliable.  A refreshment phase keeps the union of its rounds'
unreliable links, not the complement of all n(n−1)/2 pairs.

**A note on the two survival conditions.**  Definition 5.2(b) of the paper
gives two formulations — "reliable links with at least n − s + 1 nodes
that were also s-operational" and, parenthetically, "unreliable links to
less than s other s-operational nodes".  These coincide while *all* nodes
are operational (then ``reliable >= n - s  <=>  unreliable < s``) but
diverge once the operational set shrinks: the first becomes unsatisfiable
when fewer than ``n - s`` operational peers remain (the whole set would
collapse even with perfect links among the survivors), while the second
alone is too weak for Lemma 15's common-neighbour argument.  We therefore
take their disjunction: it is exactly the first formulation in the regime
all of the paper's lemmas are invoked in, and degrades gracefully (an
intact clique of survivors stays operational) outside it.
"""

from __future__ import annotations

from collections.abc import Container, Iterable

from repro.sim.clock import Phase, RoundInfo

__all__ = ["ConnectivityTracker"]


class ConnectivityTracker:
    """Incremental computation of the s-operational node set."""

    def __init__(self, n: int, s: int) -> None:
        if not (1 <= s <= n):
            raise ValueError(f"s must be in [1, n], got {s}")
        self.n = n
        self.s = s
        self._operational: frozenset[int] = frozenset(range(n))
        self._started = False
        # refreshment-phase accumulators (Def. 5.3)
        self._phase_op_throughout: set[int] = set()
        self._phase_unbroken: set[int] = set()
        self._phase_bad_links: set[frozenset[int]] = set()

    @property
    def operational(self) -> frozenset[int]:
        return self._operational

    def disconnected(self, broken: frozenset[int]) -> frozenset[int]:
        """s-disconnected = neither broken nor operational (Def. 6)."""
        return frozenset(range(self.n)) - self._operational - broken

    # -- per-round update ----------------------------------------------------

    def observe_round(
        self,
        info: RoundInfo,
        broken: frozenset[int],
        unreliable_links: frozenset[frozenset[int]],
    ) -> frozenset[int]:
        """Advance one round; returns the operational set *for this round*."""
        if info.phase is Phase.SETUP:
            # Adversary is inactive during set-up; everyone is operational.
            self._operational = frozenset(range(self.n))
            return self._operational

        if not self._started:
            # Def. 5.1: first communication round of the first time unit.
            self._started = True
            self._operational = frozenset(range(self.n)) - broken
            if info.phase is Phase.REFRESH and info.is_phase_start:
                self._begin_phase(broken)
                self._update_phase(self._operational, broken, unreliable_links)
            return self._operational

        # a link down because its far endpoint is broken is the *endpoint's*
        # impairment, not ours: the paper charges the adversary per node it
        # breaks into or per node whose own links it tampers with (§2.2)
        live = self._operational - broken
        bad = _bad_link_counts(live, unreliable_links, live)
        operational = frozenset(
            i for i, unreliable in bad.items()
            if len(live) - 1 - unreliable >= self.n - self.s or unreliable < self.s
        )

        if info.phase is Phase.REFRESH:
            if info.is_phase_start:
                self._begin_phase(broken)
            self._update_phase(operational, broken, unreliable_links)
            if info.is_phase_end:
                operational = self._apply_recoveries(operational)

        self._operational = operational
        return operational

    # -- refreshment-phase bookkeeping (Def. 5.3) ------------------------------

    def _begin_phase(self, broken: frozenset[int]) -> None:
        self._phase_op_throughout = set(range(self.n))
        self._phase_unbroken = set(range(self.n)) - broken
        self._phase_bad_links = set()

    def _update_phase(
        self,
        operational: frozenset[int],
        broken: frozenset[int],
        unreliable_links: frozenset[frozenset[int]],
    ) -> None:
        self._phase_op_throughout &= operational
        self._phase_unbroken -= broken
        self._phase_bad_links |= unreliable_links

    def _apply_recoveries(self, operational: frozenset[int]) -> frozenset[int]:
        # a candidate's helpers are the phase-long operational pool (which
        # never holds a candidate) less its bad links into the pool
        pool = self._phase_op_throughout
        bad = _bad_link_counts(self._phase_unbroken - operational, self._phase_bad_links, pool)
        return operational.union(
            c for c, unreliable in bad.items() if len(pool) - unreliable >= self.n - self.s
        )


def _bad_link_counts(
    nodes: Iterable[int], links: Iterable[frozenset[int]], peers: Container[int]
) -> dict[int, int]:
    """For each of ``nodes``, the number of 2-element ``links`` joining it
    to a member of ``peers`` — one pass over ``links``, no per-pair probe."""
    bad = dict.fromkeys(nodes, 0)
    for link in links:
        if len(link) == 2:
            i, j = link
            if i in bad and j in peers:
                bad[i] += 1
            if j in bad and i in peers:
                bad[j] += 1
    return bad
