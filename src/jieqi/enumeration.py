"""Exact count of the game's information sets, from Red's viewpoint.

The count enumerates, with closed-form combinatorics, every distinguishable
configuration of: which red/black identities are on the board, which of
those are face-down, which face-down squares they occupy, where the face-up
pieces stand, and (when Red still has face-down pieces on the board) how
Red's off-board losses split into face-up and face-down.  Pieces within a
side are treated as pairwise distinct, per-side face-down squares come from
that side's 15 starting squares, the two King squares are excluded from the
placement board, and face-down identities are never ordered among their
squares (no one can observe that order).  Captured black pieces do not add
a factor: whatever Red captured, Red saw.

The sum factors by side: each side's weight depends only on how many of its
pieces are on the board and how many of those are face-down, and the
placement of the face-up pieces depends only on the two sides' totals.  So
the count is one 2-D convolution of the per-side weights, then a weighted
sum over (pieces on the board, face-down pieces).

One reading question cannot be settled from the recurrence alone: when all
of Red's on-board pieces are face-up, does the face-up/face-down split of
Red's *captured* pieces still count?  The primary count says no (off-board
detail is dropped in that branch); `count_information_sets` also supports
the alternative reading that always splits, so both can be reported side by
side.  A brute-force tuple enumerator validates the closed form on
miniature boards.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, perm


@dataclass(frozen=True)
class CountParams:
    """Board abstraction: the real game is (15, 88, 15) -- 15 non-king
    pieces per side, 90 squares minus the two King squares, and 15
    face-down-eligible starting squares per side."""

    pieces_per_side: int = 15
    board_squares: int = 88
    dark_squares_per_side: int = 15

    def __post_init__(self) -> None:
        n, s, d = self.pieces_per_side, self.board_squares, self.dark_squares_per_side
        if n < 0 or s < 0 or d < 0:
            raise ValueError("parameters must be non-negative")
        if d > n:
            raise ValueError(f"dark_squares_per_side {d} > pieces_per_side {n}")
        if s < 2 * n:
            raise ValueError(f"board_squares {s} < 2 * pieces_per_side {n}")


STANDARD_PARAMS = CountParams()


def count_information_sets(
    params: CountParams = STANDARD_PARAMS,
    split_offboard_when_all_bright: bool = False,
) -> int:
    """Exact number of information sets.

    Each side's weight w[i][j] counts its choices with i pieces on the
    board, j of them face-down on j of its d home squares:
    C(n,i) * C(i,j) * C(d,j).  Red's weight also carries 2^(n-i) for the
    face-up/face-down split of its off-board pieces, except in the j == 0
    row, where that split is dropped unless
    `split_offboard_when_all_bright` selects the alternative reading.
    Convolving the two weights gives conv[a][t] over a pieces on the board,
    t of them face-down; the count is the sum of conv[a][t] * P(s-t, a-t),
    the injective placements of the face-up pieces on the squares left.
    """
    n, s, d = params.pieces_per_side, params.board_squares, params.dark_squares_per_side
    black = [[comb(n, i) * comb(i, j) * comb(d, j) for j in range(min(i, d) + 1)]
             for i in range(n + 1)]
    red = [[w if j == 0 and not split_offboard_when_all_bright else w * 2 ** (n - i)
            for j, w in enumerate(row)]
           for i, row in enumerate(black)]

    conv = [[0] * (a + 1) for a in range(2 * n + 1)]
    for r, red_row in enumerate(red):
        for b, black_row in enumerate(black):
            out = conv[r + b]
            for i, x in enumerate(red_row):
                for j, y in enumerate(black_row):
                    out[i + j] += x * y
    return sum(perm(s - t, a - t) * c
               for a, row in enumerate(conv) for t, c in enumerate(row))


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
