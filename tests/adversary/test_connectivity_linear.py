"""The linear-time s-operational accounting against a quadratic oracle.

:class:`QuadraticTracker` is the per-pair formulation of Definitions 4–6:
every round it probes ``frozenset((i, j))`` for all pairs of live nodes,
and a refreshment phase keeps the set of links that stayed reliable out
of all n(n−1)/2 pairs.  :class:`ConnectivityTracker` must return the same
operational set at every round of every trace, while making no per-pair
membership probe on the round's unreliable-link set.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.connectivity import ConnectivityTracker
from repro.sim.clock import Phase, Schedule


class QuadraticTracker:
    """Reference oracle: the O(n²)-per-round per-pair tracker."""

    def __init__(self, n, s):
        self.n = n
        self.s = s
        self._operational = frozenset(range(n))
        self._started = False
        self._phase_op_throughout = set()
        self._phase_unbroken = set()
        self._phase_link_ok = set()

    def observe_round(self, info, broken, unreliable_links):
        if info.phase is Phase.SETUP:
            self._operational = frozenset(range(self.n))
            return self._operational
        if not self._started:
            self._started = True
            self._operational = frozenset(range(self.n)) - broken
            if info.phase is Phase.REFRESH and info.is_phase_start:
                self._begin_phase(broken)
                self._update_phase(self._operational, broken, unreliable_links)
            return self._operational
        previous = self._operational
        survivors = set()
        for i in previous:
            if i in broken:
                continue
            reliable_neighbors = 0
            unreliable_neighbors = 0
            for j in previous:
                if j == i or j in broken:
                    continue
                if frozenset((i, j)) in unreliable_links:
                    unreliable_neighbors += 1
                else:
                    reliable_neighbors += 1
            if reliable_neighbors >= self.n - self.s or unreliable_neighbors < self.s:
                survivors.add(i)
        operational = frozenset(survivors)
        if info.phase is Phase.REFRESH:
            if info.is_phase_start:
                self._begin_phase(broken)
            self._update_phase(operational, broken, unreliable_links)
            if info.is_phase_end:
                operational = self._apply_recoveries(operational)
        self._operational = operational
        return operational

    def _begin_phase(self, broken):
        everyone = set(range(self.n))
        self._phase_op_throughout = set(everyone)
        self._phase_unbroken = everyone - broken
        self._phase_link_ok = {
            frozenset((i, j)) for i in range(self.n) for j in range(i + 1, self.n)
        }

    def _update_phase(self, operational, broken, unreliable_links):
        self._phase_op_throughout &= operational
        self._phase_unbroken -= broken
        self._phase_link_ok -= unreliable_links

    def _apply_recoveries(self, operational):
        promoted = set(operational)
        helpers_pool = self._phase_op_throughout
        for candidate in range(self.n):
            if candidate in operational or candidate not in self._phase_unbroken:
                continue
            helper_count = sum(
                1
                for helper in helpers_pool
                if helper != candidate
                and frozenset((candidate, helper)) in self._phase_link_ok
            )
            if helper_count >= self.n - self.s:
                promoted.add(candidate)
        return frozenset(promoted)


def random_trace(rng):
    """A multi-unit fault trace: ``(n, s, rounds)`` with
    ``rounds = [(info, broken, unreliable_links), ...]``.

    Break-ins are sticky per phase (so refresh phases see nodes come back
    and get promoted) with per-round flips; the link-fault density of a
    round ranges from none through a cut-off star to every pair, and
    degenerate 1-element links are mixed in."""
    n = rng.randint(3, 12)
    s = rng.randint(1, n)
    schedule = Schedule(setup_rounds=rng.randint(1, 2),
                        refresh_rounds=rng.randint(1, 4),
                        normal_rounds=rng.randint(1, 5))
    units = rng.randint(2, 4)
    pairs = [frozenset((i, j)) for i in range(n) for j in range(i + 1, n)]
    rounds = []
    phase_broken = frozenset()
    for round_number in range(schedule.total_rounds(units)):
        info = schedule.info(round_number)
        if info.phase is Phase.SETUP:
            rounds.append((info, frozenset(), frozenset()))
            continue
        if info.index_in_phase == 0:
            most = n // 2 if info.phase is Phase.NORMAL else n // 4
            phase_broken = frozenset(rng.sample(range(n), rng.randint(0, most)))
        broken = set(phase_broken)
        if rng.random() < 0.2:
            broken ^= {rng.randrange(n)}
        density = rng.choice(("none", "sparse", "star", "dense", "all"))
        if density == "none":
            links = set()
        elif density == "sparse":
            links = set(rng.sample(pairs, min(len(pairs), rng.randint(1, 4))))
        elif density == "star":
            hub = rng.randrange(n)
            links = {link for link in pairs if hub in link}
        elif density == "dense":
            p = rng.random()
            links = {link for link in pairs if rng.random() < p}
        else:
            links = set(pairs)
        if rng.random() < 0.3:
            links |= {frozenset((rng.randrange(n),)) for _ in range(rng.randint(1, 2))}
        rounds.append((info, frozenset(broken), frozenset(links)))
    return n, s, rounds


def replay(trace):
    """Feed one trace to both trackers; return per-round operational sets
    after asserting they agree at every round."""
    n, s, rounds = trace
    linear, oracle = ConnectivityTracker(n, s), QuadraticTracker(n, s)
    sets = []
    for info, broken, links in rounds:
        got = linear.observe_round(info, broken, links)
        want = oracle.observe_round(info, broken, links)
        assert got == want, (info, broken, sorted(map(sorted, links)))
        assert linear.disconnected(broken) == frozenset(range(n)) - want - broken
        sets.append(got)
    return sets


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_linear_tracker_matches_quadratic_oracle(rng):
    replay(random_trace(rng))


def test_oracle_traces_exercise_every_rule():
    """The trace generator is not vacuous: across a fixed seeded sweep it
    produces s-disconnections, refresh-phase promotions, rounds with every
    pair faulty and degenerate links — and the two trackers agree on all
    of them."""
    disconnections = promotions = all_pairs = degenerate = 0
    for seed in range(200):
        trace = random_trace(random.Random(seed))
        n, _, rounds = trace
        sets = replay(trace)
        previous = frozenset(range(n))
        for (info, broken, links), operational in zip(rounds, sets):
            disconnections += bool(frozenset(range(n)) - operational - broken)
            promotions += bool(info.phase is Phase.REFRESH and operational - previous)
            all_pairs += sum(len(link) == 2 for link in links) == n * (n - 1) // 2
            degenerate += any(len(link) == 1 for link in links)
            previous = operational
    assert disconnections and promotions and all_pairs and degenerate


class CountingLinks(frozenset):
    """An unreliable-link set that counts membership probes."""

    probes = 0

    def __contains__(self, link):
        CountingLinks.probes += 1
        return super().__contains__(link)


def test_round_cost_makes_no_per_pair_probes():
    """With no faulty link at n = 64 the quadratic formulation probes the
    link set n(n−1) times per round; the linear one walks the set instead
    and never probes it — through normal rounds and a whole refresh phase
    with its recovery check."""
    n, s = 64, 8
    schedule = Schedule(setup_rounds=1, refresh_rounds=3, normal_rounds=4)
    for tracker, per_round in ((QuadraticTracker(n, s), n * (n - 1)),
                               (ConnectivityTracker(n, s), 0)):
        for round_number in range(schedule.total_rounds(2)):
            info = schedule.info(round_number)
            CountingLinks.probes = 0
            assert tracker.observe_round(info, frozenset(), CountingLinks()) == frozenset(range(n))
            expected = 0 if info.phase is Phase.SETUP or round_number == 1 else per_round
            assert CountingLinks.probes == expected, (type(tracker).__name__, info)
