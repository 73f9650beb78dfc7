"""Hint matrix construction and exact solving (Sec. III-C2, Eq. 9-13).

For a fuzzy request with γ allowed misses among the γ+β optional
attributes, the initiator publishes the *hint matrix* ``M = [C, B]`` where

    C = [I_γ | R_{γ×β}],     B = C · [h_opt(1), …, h_opt(γ+β)]ᵀ

with R a γ×β matrix of random nonzero integers.  A candidate who knows at
least β of the optional hashes solves the ≤ γ unknowns from the γ linear
equations and recovers the full request vector, hence the profile key.

Solving is done over the prime field GF(q) with q = 2^521 − 1 (a Mersenne
prime comfortably above every value the system can produce), which is exact
for the 256-bit unknowns and ~30× faster than rational elimination.  Only
the part of the system the structure of C leaves open is eliminated: the
rows whose identity entry h_i is known, over the unknowns in the R block.
Each unknown h_i of the identity block then follows from its own row alone,
h_i = B_i − Σ_j R[i][j]·h_{γ+j}.  The recovered values are re-verified
against the original equations over the integers, so no field-reduction
artefact can slip through.  Any inconsistent, out-of-range or unverifiable
solution proves the candidate assignment wrong and rejects it before the
(comparatively expensive) AES trial decryption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Sequence

from repro.analysis.counters import NULL_COUNTER, OpCounter
from repro.core.exceptions import HintSolveError
from repro.crypto.hashes import HASH_BITS

__all__ = ["HintMatrix", "build_hint_matrix", "solve_candidate"]

_R_ENTRY_BITS = 32  # paper sizes the hint matrix as 32-bit entries
_FIELD_PRIME = (1 << 521) - 1  # Mersenne prime > any |B_i|; solving field


@dataclass(frozen=True)
class HintMatrix:
    """The published hint: random block R (γ×β) and right-hand side B (γ)."""

    gamma: int
    beta: int
    r_block: tuple[tuple[int, ...], ...]
    b_vector: tuple[int, ...]


def build_hint_matrix(
    optional_values: Sequence[int],
    gamma: int,
    *,
    rng: random.Random | None = None,
    counter: OpCounter = NULL_COUNTER,
) -> HintMatrix:
    """Construct ``M = [C, B]`` from the optional hash values (Eq. 9-11)."""
    total = len(optional_values)
    beta = total - gamma
    if gamma <= 0:
        raise ValueError("hint matrix only exists for fuzzy requests (gamma > 0)")
    if beta < 0:
        raise ValueError("gamma cannot exceed the number of optional attributes")
    rng = rng or random
    r_block = tuple(
        tuple(rng.randrange(1, 1 << _R_ENTRY_BITS) for _ in range(beta))
        for _ in range(gamma)
    )
    b_vector = []
    for i in range(gamma):
        # B_i = h_opt[i] + sum_j R[i][j] * h_opt[gamma + j]
        acc = optional_values[i]
        for j in range(beta):
            acc += r_block[i][j] * optional_values[gamma + j]
        if counter is not NULL_COUNTER:
            counter.add("MUL256", beta)
        b_vector.append(acc)
    return HintMatrix(gamma=gamma, beta=beta, r_block=r_block, b_vector=tuple(b_vector))


def solve_candidate(
    hint: HintMatrix,
    optional_candidate: Sequence[int | None],
    *,
    counter: OpCounter = NULL_COUNTER,
) -> list[int]:
    """Recover the unknown optional hashes of one candidate vector (Eq. 12-13).

    Parameters
    ----------
    hint:
        The published hint matrix.
    optional_candidate:
        The candidate's optional-segment values in request order; ``None``
        marks an unknown to be solved for.

    Returns the fully recovered optional segment.  Raises
    :class:`HintSolveError` when the system is inconsistent with the
    candidate's known values or the solution is not a valid hash value --
    both outcomes prove this candidate assignment cannot be the request.
    """
    gamma, beta = hint.gamma, hint.beta
    width = gamma + beta
    if len(optional_candidate) != width:
        raise ValueError(f"candidate optional segment must have {width} entries")
    n_unknown = optional_candidate.count(None)
    if n_unknown > gamma:
        raise HintSolveError(
            f"{n_unknown} unknowns exceed the {gamma} hint equations"
        )

    # Row i of C = [I_γ | R] reads h_i + Σ_j R[i][j]·h_{γ+j} = B_i.  A row
    # whose identity entry h_i is known involves only the unknowns of the
    # R part: eliminate those rows over those unknowns (mod q).  Each
    # identity-part unknown then pivots its own row alone, so the full
    # system is consistent and full-rank exactly when this one is.
    r_unknowns = [j for j in range(beta) if optional_candidate[gamma + j] is None]
    r_known = [j for j in range(beta) if optional_candidate[gamma + j] is not None]
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i in range(gamma):
        own = optional_candidate[i]
        if own is None:
            continue
        r_row = hint.r_block[i]
        acc = hint.b_vector[i] - own
        for j in r_known:
            acc -= r_row[j] * optional_candidate[gamma + j]  # type: ignore[operator]
        rows.append([r_row[j] % _FIELD_PRIME for j in r_unknowns])
        rhs.append(acc % _FIELD_PRIME)
    if counter is not NULL_COUNTER:
        counter.add("MUL256", len(rows) * len(r_known))

    upper = 1 << HASH_BITS
    recovered = list(optional_candidate)
    for j, value in zip(r_unknowns, _solve_mod_q(rows, rhs, len(r_unknowns))):
        if not 0 <= value < upper:
            raise HintSolveError("solution outside the 256-bit hash range")
        recovered[gamma + j] = value
    # Identity-part unknowns straight from their own rows, reduced mod q
    # like every other field value.
    for i in range(gamma):
        if recovered[i] is None:
            r_row = hint.r_block[i]
            acc = hint.b_vector[i]
            for j in range(beta):
                acc -= r_row[j] * recovered[gamma + j]  # type: ignore[operator]
            if counter is not NULL_COUNTER:
                counter.add("MUL256", beta)
            value = acc % _FIELD_PRIME
            if not 0 <= value < upper:
                raise HintSolveError("solution outside the 256-bit hash range")
            recovered[i] = value
    _verify_over_integers(hint, recovered, counter)
    return recovered  # type: ignore[return-value]


def _solve_mod_q(rows: list[list[int]], rhs: list[int], n_unknown: int) -> list[int]:
    """Gaussian elimination over GF(q) with full consistency checking.

    The system may be overdetermined (γ equations, ≤ γ unknowns); leftover
    equations must be satisfied or the candidate is rejected.
    """
    q = _FIELD_PRIME
    m = len(rows)
    aug = [row + [b] for row, b in zip(rows, rhs)]
    pivot_cols: list[int] = []
    rank = 0
    for col in range(n_unknown):
        pivot = next((r for r in range(rank, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        # Extended-gcd modular inverse: identical value to the Fermat
        # ladder pow(x, q-2, q) (the inverse mod a prime is unique), but
        # ~100x cheaper than a 521-bit exponentiation -- this line was a
        # third of the wall clock of a city-scale fuzzy-request flood.
        inv = pow(aug[rank][col], -1, q)
        aug[rank] = [v * inv % q for v in aug[rank]]
        for r in range(m):
            if r != rank and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(v - factor * p) % q for v, p in zip(aug[r], aug[rank])]
        pivot_cols.append(col)
        rank += 1
    # Consistency: zero rows must have zero rhs.
    for r in range(rank, m):
        if aug[r][n_unknown]:
            raise HintSolveError("inconsistent system: candidate is not the request")
    if rank < n_unknown:
        raise HintSolveError("underdetermined system: hint cannot recover candidate")
    solution = [0] * n_unknown
    for r, col in enumerate(pivot_cols):
        solution[col] = aug[r][n_unknown]
    return solution


def _verify_over_integers(hint: HintMatrix, recovered: list[int | None], counter: OpCounter) -> None:
    """Exact re-check of B = C·x over Z, eliminating field-reduction doubt."""
    for i in range(hint.gamma):
        acc = recovered[i]
        for j in range(hint.beta):
            acc += hint.r_block[i][j] * recovered[hint.gamma + j]  # type: ignore[operator]
        # Counted before the compare: a failing row still did its multiplies.
        if counter is not NULL_COUNTER:
            counter.add("MUL256", hint.beta)
        if acc != hint.b_vector[i]:
            raise HintSolveError("recovered vector fails exact verification")
