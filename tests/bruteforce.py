"""Brute-force oracles for the two exact counts, used only by the tests.

Each enumerates, one leaf per counted object, what the package computes in
closed form: the tuples `count_information_sets` sums over, and the
hidden-identity assignments `infoset_size` counts.  They read the package's
public types and `hidden_pools`, but never `multiset_arrangements` or the
count's convolution, so a fault in either cannot hide in its own oracle.
"""

from __future__ import annotations

from itertools import combinations, permutations

from jieqi import CountParams, hidden_pools
from jieqi.engine import Observation


def count_information_sets_bruteforce(
    params: CountParams,
    split_offboard_when_all_bright: bool = False,
) -> int:
    """Oracle: explicitly enumerate every tuple the closed form counts.

    Identities are labeled 0..n-1 per side; red's face-down-eligible squares
    are the first `dark_squares_per_side` board squares and black's the last
    (any two disjoint sets work -- only their sizes enter the count).  Each
    leaf of the nested enumeration is one counted configuration.  This
    validates the combinatorial identity, not game reachability.
    """
    n, s, d = params.pieces_per_side, params.board_squares, params.dark_squares_per_side
    if n > 3 or s > 10:
        raise ValueError("brute force limited to pieces_per_side <= 3, board_squares <= 10")
    ids = tuple(range(n))
    squares = tuple(range(s))
    red_dark_home = squares[:d]
    black_dark_home = squares[s - d:] if d else ()

    def subsets(items):
        for k in range(len(items) + 1):
            yield from combinations(items, k)

    count = 0
    for r_ids in subsets(ids):
        r_off = tuple(i for i in ids if i not in r_ids)
        for r_dark in subsets(r_ids):
            if not r_dark and not split_offboard_when_all_bright:
                off_splits = (None,)
            else:
                off_splits = tuple(subsets(r_off))
            for _r_off_dark in off_splits:
                for b_ids in subsets(ids):
                    for b_dark in subsets(b_ids):
                        n_bright = len(r_ids) - len(r_dark) + len(b_ids) - len(b_dark)
                        for r_sqs in combinations(red_dark_home, len(r_dark)):
                            for b_sqs in combinations(black_dark_home, len(b_dark)):
                                used = set(r_sqs) | set(b_sqs)
                                avail = [q for q in squares if q not in used]
                                for _placement in permutations(avail, n_bright):
                                    count += 1
    return count


def infoset_size_bruteforce(obs: Observation) -> int:
    """Oracle: explicitly enumerate the distinct assignments.

    Walks the assignment tree slot by slot, branching once per kind still
    available, so every distinct assignment is visited exactly once and the
    leaf count is the answer.  Only for small cases (<= 8 dark squares in
    total); independent of the closed-form arithmetic in infoset_size.
    """
    pools = hidden_pools(obs)
    if pools.own_slots + pools.opp_slots > 8:
        raise ValueError(
            f"brute force limited to 8 dark squares, got "
            f"{pools.own_slots + pools.opp_slots}"
        )
    return _enumerate_assignments(pools.own_pool, pools.own_slots) * \
        _enumerate_assignments(pools.opp_pool, pools.opp_slots)


def _enumerate_assignments(pool: tuple[int, ...], slots: int) -> int:
    counts = list(pool)

    def walk(slot: int) -> int:
        if slot == slots:
            return 1
        total = 0
        for i in range(len(counts)):
            if counts[i] > 0:
                counts[i] -= 1
                total += walk(slot + 1)
                counts[i] += 1
        return total

    return walk(0)
