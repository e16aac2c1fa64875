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
the count is one 2-D convolution of the per-side weights, computed as a
single big-integer product, then a weighted sum over (pieces on the board,
face-down pieces).

One reading question cannot be settled from the recurrence alone: when all
of Red's on-board pieces are face-up, does the face-up/face-down split of
Red's *captured* pieces still count?  The primary count says no (off-board
detail is dropped in that branch); `count_information_sets` also supports
the alternative reading that always splits, so both can be reported side by
side.  The test suite checks the closed form against a brute-force tuple
enumerator on miniature boards and a term-by-term reference sum past the
full scale (`tests/bruteforce.py`, `tests/reference_count.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    Convolving the two weights, by multiplying them packed into one int
    each, gives conv[a][t] over a pieces on the board, t of them
    face-down; the count is the sum of conv[a][t] * P(s-t, a-t),
    the injective placements of the face-up pieces on the squares left.
    """
    n, s, d = params.pieces_per_side, params.board_squares, params.dark_squares_per_side
    black = [[comb(n, i) * comb(i, j) * comb(d, j) for j in range(min(i, d) + 1)]
             for i in range(n + 1)]
    red = [[w if j == 0 and not split_offboard_when_all_bright else w * 2 ** (n - i)
            for j, w in enumerate(row)]
           for i, row in enumerate(black)]

    # Kronecker substitution: each table becomes one int whose slot at
    # position i*(2d+1) + j holds w[i][j], so the product's slot at
    # a*(2d+1) + t holds conv[a][t].  t = i + j <= 2d, so no row spills into
    # the next.  Every weight is >= 0, so no coefficient of the product
    # exceeds the sum of them all, sum(red) * sum(black): a slot that wide
    # never carries into the next.
    stride = 2 * d + 1
    width = ((sum(map(sum, red)) * sum(map(sum, black))).bit_length() + 7) // 8

    def pack(table: list[list[int]]) -> int:
        return int.from_bytes(b"".join(w.to_bytes(width, "little") for row in table
                                       for w in row + [0] * (stride - len(row))), "little")

    product = (pack(red) * pack(black)).to_bytes((2 * n + 1) * stride * width, "little")
    slots = [int.from_bytes(product[k:k + width], "little")
             for k in range(0, len(product), width)]
    conv = [slots[a * stride:a * stride + min(a, 2 * d) + 1] for a in range(2 * n + 1)]
    return sum(perm(s - t, a - t) * c
               for a, row in enumerate(conv) for t, c in enumerate(row))
