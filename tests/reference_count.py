"""A second derivation of the information-set count, used only as a test
oracle.

It sums the closed form term by term: a quadruple loop over red's on-board
count, black's on-board count, black's on-board face-down count and red's
on-board face-down count, with an innermost sum over how many of red's
off-board pieces were captured face-down.  The factors come from a 3-D red
table, a 2-D black table and a table of face-up placements.  It is slow
(O(n^5) big-integer products) but each term maps one to one onto a
configuration class, so it can be audited against the counting argument.
"""

from __future__ import annotations

from math import comb, perm

from jieqi import CountParams


def reference_count(
    params: CountParams,
    split_offboard_when_all_bright: bool = False,
) -> int:
    n, s, d = params.pieces_per_side, params.board_squares, params.dark_squares_per_side
    # red[i][j][k]: C(n,i) on-board identities, C(i,j) of them face-down,
    # C(n-i,k) of the off-board ones captured face-down.
    red = [[[comb(n, i) * comb(i, j) * comb(n - i, k) for k in range(n + 1)]
            for j in range(n + 1)]
           for i in range(n + 1)]
    # black[i][j]: C(n,i) on-board identities, C(i,j) of them face-down.
    black = [[comb(n, i) * comb(i, j) for j in range(n + 1)] for i in range(n + 1)]
    # bright[a][t]: injective placements of the a-t face-up pieces on the
    # squares the t face-down ones leave free.
    bright = [[perm(s - t, a - t) if t <= a else 0 for t in range(2 * n + 1)]
              for a in range(2 * n + 1)]

    num = 0
    for r_on in range(n + 1):
        for b_on in range(n + 1):
            a_on = r_on + b_on
            for b_dk in range(min(b_on, d) + 1):
                for r_odk in range(min(r_on, d) + 1):
                    base = (black[b_on][b_dk] * bright[a_on][r_odk + b_dk]
                            * comb(d, b_dk) * comb(d, r_odk))
                    if r_odk == 0 and not split_offboard_when_all_bright:
                        num += comb(n, r_on) * base
                    else:
                        row = red[r_on][r_odk]
                        num += base * sum(row[k] for k in range(n - r_on + 1))
    return num
