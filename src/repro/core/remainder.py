"""Remainder vector, fast check and candidate enumeration (Sec. III-C1).

The initiator publishes ``r_i = h_i mod p`` for every request position.  A
relay user buckets their own profile vector by remainder and tries to build
*candidate profile vectors*: order-consistent assignments of own hashes to
request positions where

- every necessary position is assigned (Eq. 6),
- at most γ optional positions are *unknown* (Eq. 7),
- assigned own-vector indices strictly increase with the request position
  (Eq. 8, both vectors being sorted).

Theorem 1 guarantees soundness: differing remainders imply differing
hashes, so a user excluded by the fast check can never be a match.

Two enumeration modes are provided:

``strict``
    The paper's literal rule -- a position is unknown *iff* its bucket is
    empty.  Under remainder collisions this can force a wrong assignment at
    a position the user does not actually own and reject a true match.
``robust`` (default)
    Optional positions may also be treated as unknown when their bucket is
    non-empty, eliminating the false negatives at slightly higher
    enumeration cost.  The ablation bench quantifies the difference.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from collections.abc import Sequence

from repro.analysis.counters import NULL_COUNTER, OpCounter

__all__ = [
    "CandidateVector",
    "remainder_vector",
    "bucket_index",
    "buckets_for",
    "build_buckets",
    "is_candidate",
    "iter_candidates",
    "enumerate_candidates",
    "EnumerationBudget",
]

DEFAULT_MAX_CANDIDATES = 256
DEFAULT_MAX_VISITS = 100_000


def remainder_vector(values: Sequence[int], p: int, counter: OpCounter = NULL_COUNTER) -> tuple[int, ...]:
    """Compute ``[h mod p for h in values]`` (Eq. 4)."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    if counter is not NULL_COUNTER:
        counter.add("M", len(values))
    return tuple(h % p for h in values)


def bucket_index(
    participant_values: Sequence[int],
    p: int,
    counter: OpCounter = NULL_COUNTER,
) -> dict[int, list[int]]:
    """Group own-hash indices by remainder modulo *p* (the m_k mod pass).

    This is the request-independent half of bucketing: it depends only on
    the participant's vector and the prime, so concurrent episodes sharing
    a prime can reuse one pass (see
    :meth:`repro.core.profile_vector.ParticipantVector.remainder_index`).
    """
    if counter is not NULL_COUNTER:
        counter.add("M", len(participant_values))
    by_remainder: dict[int, list[int]] = {}
    for idx, h in enumerate(participant_values):
        by_remainder.setdefault(h % p, []).append(idx)
    return by_remainder


def buckets_for(
    remainders: Sequence[int], index: dict[int, list[int]]
) -> list[list[int]]:
    """Per-request-position buckets from a precomputed remainder index."""
    return [index.get(r) or [] for r in remainders]


def build_buckets(
    remainders: Sequence[int],
    participant_values: Sequence[int],
    p: int,
    counter: OpCounter = NULL_COUNTER,
    *,
    index: dict[int, list[int]] | None = None,
) -> list[list[int]]:
    """For each request position, indices of own hashes with that remainder.

    The participant reduces each own hash once (m_k mod operations) and
    groups indices by remainder, so the per-position lookup is O(1).  Pass
    *index* (from :func:`bucket_index`) to skip the mod pass entirely.
    """
    if index is None:
        index = bucket_index(participant_values, p, counter)
    return buckets_for(remainders, index)


@dataclass(frozen=True)
class CandidateVector:
    """One candidate profile vector: known hash values plus unknown slots."""

    values: tuple[int | None, ...]

    @property
    def unknown_indices(self) -> tuple[int, ...]:
        """Positions still to be recovered by the hint matrix."""
        return tuple(i for i, v in enumerate(self.values) if v is None)

    def is_complete(self) -> bool:
        """True when no position is unknown."""
        # C-speed membership test: values are ints or None, for which
        # ``in`` (identity-then-equality) is exactly the `is not None` scan.
        return None not in self.values


@dataclass
class EnumerationBudget:
    """Caps protecting a participant from adversarially explosive requests."""

    max_candidates: int = DEFAULT_MAX_CANDIDATES
    max_visits: int = DEFAULT_MAX_VISITS
    exhausted: bool = False


def is_candidate(
    remainders: Sequence[int],
    necessary_mask: Sequence[bool],
    gamma: int,
    participant_values: Sequence[int],
    p: int,
    *,
    mode: str = "robust",
    counter: OpCounter = NULL_COUNTER,
    buckets: list[list[int]] | None = None,
) -> bool:
    """Fast check: can any candidate profile vector be formed at all?

    Runs a dominance-pruned dynamic program over request positions: for
    each number of unknowns used, keep the minimal own-vector index that a
    feasible prefix can end at.  O(m_t * γ * log m_k).  Pass *buckets* to
    reuse a bucketing pass already done by the caller.
    """
    _check_mode(mode)
    if buckets is None:
        buckets = build_buckets(remainders, participant_values, p, counter)
    # state[u] = minimal last own-index used by a feasible prefix with u
    # unknowns, or INF when no such prefix exists.  A dense list beats the
    # dict the DP used to keep: gamma is tiny and this check runs once per
    # request per reached node of a flood.
    infinity = 1 << 62
    robust = mode == "robust"
    # A hostile package can imply a negative gamma (beta > optional count);
    # unknowns are then simply never allowed, as in the dict-based DP.
    width = max(gamma, 0) + 1
    state = [infinity] * width
    state[0] = -1
    for pos, bucket in enumerate(buckets):
        necessary = necessary_mask[pos]
        new_state = [infinity] * width
        alive = False
        for used, last in enumerate(state):
            if last == infinity:
                continue
            # Option 1: assign the smallest bucket index beyond `last`.
            if bucket:
                if counter is not NULL_COUNTER:
                    counter.add("CMP256")
                nxt = bisect_right(bucket, last)
                if nxt < len(bucket):
                    idx = bucket[nxt]
                    if idx < new_state[used]:
                        new_state[used] = idx
                        alive = True
            # Option 2: leave the position unknown (optional positions only).
            if used < gamma and not necessary and (robust or not bucket):
                if last < new_state[used + 1]:
                    new_state[used + 1] = last
                    alive = True
        if not alive:
            return False
        state = new_state
    return True


def iter_candidates(
    remainders: Sequence[int],
    necessary_mask: Sequence[bool],
    gamma: int,
    participant_values: Sequence[int],
    p: int,
    *,
    mode: str = "robust",
    budget: EnumerationBudget | None = None,
    counter: OpCounter = NULL_COUNTER,
    buckets: list[list[int]] | None = None,
):
    """Lazily yield candidate profile vectors in *deviation order*.

    The zero-deviation candidate is the greedy assignment: every position
    takes the smallest order-consistent bucket element, empty optional
    buckets become unknowns.  Each further deviation either (a) picks a
    later bucket element or (b) marks a non-empty optional bucket unknown
    (``robust`` mode only).  Candidates come out by deviation count, depth
    first within one count: plausible candidates first -- crucial when
    collisions make the full combination space large -- while remaining
    complete: every valid candidate vector appears.

    That is the order of iterative deepening over the deviation count, and
    the *budget* caps the search-tree nodes that deepening visits over all
    its walks, protecting an honest participant from maliciously explosive
    requests (the asymmetry Protocol 2 exploits to expose dictionary
    attackers).  The deepening itself runs only when that cap binds.
    Otherwise one walk records every leaf with its count, and a stable sort
    by count gives the same sequence: the walk adds up the m_t+1-c visits
    the deepening pays for each node of count c, and hands over to the
    deepening as soon as they exceed ``max_visits``.  Either way the
    sequence and ``budget.exhausted`` are the deepening's, for every input
    and every consumer, one that stops early included.
    """
    _check_mode(mode)
    if budget is None:
        budget = EnumerationBudget()
    if buckets is None:
        buckets = build_buckets(remainders, participant_values, p, counter)
    m_t = len(remainders)

    # Suffix feasibility bounds for pruning: minimum unknowns forced from
    # position i to the end (necessary with empty bucket => infeasible;
    # optional with empty bucket => forced unknown).
    forced_unknowns = [0] * (m_t + 1)
    infeasible_suffix = [False] * (m_t + 1)
    for i in range(m_t - 1, -1, -1):
        forced_unknowns[i] = forced_unknowns[i + 1]
        infeasible_suffix[i] = infeasible_suffix[i + 1]
        if not buckets[i]:
            if necessary_mask[i]:
                infeasible_suffix[i] = True
            else:
                forced_unknowns[i] += 1
    if infeasible_suffix[0] or forced_unknowns[0] > gamma:
        return

    # Unknown-allowance follows Eq. 7 semantics: the *bucket* (not the
    # order-filtered remainder of it) decides whether the position may be
    # unknown in strict mode, matching the is_candidate DP exactly.
    robust = mode == "robust"
    may_skip = [not necessary_mask[i] and (robust or not buckets[i]) for i in range(m_t)]
    path: list[int | None] = [None] * m_t

    def walk(depth: int):
        """Visit every node of deviation count <= *depth*, depth first.

        Yields ``(pos, count)`` per node, with the node's assignment in
        ``path[:pos]``.  An explicit stack, so a request of any length
        cannot exhaust the interpreter's recursion limit.
        """
        stack = [(0, -1, 0, 0, None)]
        while stack:
            pos, last, unknowns, cost, value = stack.pop()
            if pos:
                path[pos - 1] = value
            yield pos, cost
            if pos == m_t or infeasible_suffix[pos] or unknowns + forced_unknowns[pos] > gamma:
                continue
            bucket = buckets[pos]
            start = bisect_right(bucket, last)
            n_feasible = len(bucket) - start
            if counter is not NULL_COUNTER:
                counter.add("CMP256", n_feasible)
            # Children go on the stack in reverse visiting order: the first
            # feasible pick (free), the later picks, then the unknown (free
            # only when forced by an empty feasible list).
            if may_skip[pos] and unknowns < gamma:
                skip_cost = cost + (n_feasible > 0)
                if skip_cost <= depth:
                    stack.append((pos + 1, last, unknowns + 1, skip_cost, None))
            if n_feasible:
                if cost < depth:
                    for idx in reversed(bucket[start + 1:]):
                        stack.append((pos + 1, idx, unknowns, cost + 1, participant_values[idx]))
                idx = bucket[start]
                stack.append((pos + 1, idx, unknowns, cost, participant_values[idx]))

    def ranked_leaves() -> list[tuple[int | None, ...]] | None:
        """All leaves in deviation order, or None when the deepening's
        visits would exceed ``max_visits``."""
        by_cost: list[list[tuple[int | None, ...]]] = [[] for _ in range(m_t + 1)]
        visits = 0
        for pos, cost in walk(m_t):
            visits += m_t + 1 - cost
            if visits > budget.max_visits:
                return None
            if pos == m_t:
                by_cost[cost].append(tuple(path))
        return [leaf for leaves in by_cost for leaf in leaves]

    leaves = None if budget.exhausted else ranked_leaves()
    if leaves is not None:
        for values in leaves:
            yield CandidateVector(values=values)
            if budget.exhausted:  # spent by the consumer: stop, as the deepening does
                return
        return

    # Budget-bound: the deepening itself, one walk per deviation count.  A
    # budget exhausted before it starts ends it after the walk of count 0.
    visits = 0
    for depth in range(m_t + 1):
        for pos, cost in walk(depth):
            visits += 1
            if visits > budget.max_visits:
                budget.exhausted = True
                return
            if pos == m_t and cost == depth:  # no cross-depth duplicates
                yield CandidateVector(values=tuple(path))
                if budget.exhausted:
                    return
        if budget.exhausted:
            return


def enumerate_candidates(
    remainders: Sequence[int],
    necessary_mask: Sequence[bool],
    gamma: int,
    participant_values: Sequence[int],
    p: int,
    *,
    mode: str = "robust",
    budget: EnumerationBudget | None = None,
    counter: OpCounter = NULL_COUNTER,
) -> list[CandidateVector]:
    """Materialize :func:`iter_candidates`, capped at ``budget.max_candidates``."""
    if budget is None:
        budget = EnumerationBudget()
    results: list[CandidateVector] = []
    for candidate in iter_candidates(
        remainders, necessary_mask, gamma, participant_values, p,
        mode=mode, budget=budget, counter=counter,
    ):
        results.append(candidate)
        if len(results) >= budget.max_candidates:
            budget.exhausted = True
            break
    return results


def _check_mode(mode: str) -> None:
    if mode not in ("strict", "robust"):
        raise ValueError(f"mode must be 'strict' or 'robust', got {mode!r}")
