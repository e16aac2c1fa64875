"""Exact size of a player's information set.

The information set of an observation is the set of hidden-identity
assignments to the face-down squares still on the board that are consistent
with everything the viewer knows.  Both unknowns factor independently:

    size = arrangements(own pool -> own dark squares)
         * arrangements(opponent pool -> opponent dark squares)

where a side's pool is its initial 15-piece multiset minus every identity
the viewer has learned (revealed pieces, public revealed captures, and --
for the opponent's pool only -- the face-down pieces the viewer captured
and saw).  The viewer's own face-down pieces captured by the opponent stay
in the viewer's pool: their identities are unknown to the viewer, so they
constrain the on-board assignment without being ordered themselves.

The pools and slot counts read only the board's count of each signed cell
code and the two capture lists.  A move that neither reveals nor captures
moves a face-up piece to an empty square, which changes none of these.  A
face-up piece taking a face-up piece moves one kind from the board count
to the public capture list, and each pool subtracts both, so that changes
none either.  Only a reveal or the capture of a face-down piece changes a
pool: self-play recomputes a size after those moves alone and reuses the
last one otherwise.

The per-ply self-play measurement is infoset_size(observe(state, mover)):
there is one definition, on the observation, and no state-level shortcut.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .board import DARK_CELL, NON_KING_CELLS, OPPONENT, START_COUNTS
from .combinatorics import multiset_arrangements
from .engine import GameState, Observation, observe


class HiddenPools(NamedTuple):
    """The two unknown-identity pools and their on-board slot counts: an
    immutable, hashable value, like the observation it is derived from.
    Each pool is a kind count vector indexed like NON_KING_KINDS."""

    own_pool: tuple[int, ...]
    own_slots: int
    opp_pool: tuple[int, ...]
    opp_slots: int


def hidden_pools(obs: Observation) -> HiddenPools:
    """Derive the unknown pools from an observation.

    Each pool is the initial count vector minus that side's revealed
    pieces on the board minus the identities the viewer learned from
    captures.  Raises ValueError on a corrupt observation: a pool with a
    negative count or a total other than its face-down squares.
    """
    cells = Counter(filter(None, obs.view))
    own = obs.viewer
    opp = OPPONENT[own]
    own_slots = cells[DARK_CELL[own]]
    opp_slots = cells[DARK_CELL[opp]]
    own_counts = [
        start - cells[code] - lost
        for start, code, lost in zip(
            START_COUNTS, NON_KING_CELLS[own], obs.own_revealed_captured_by_opp
        )
    ]
    opp_counts = [
        start - cells[code] - taken - seen
        for start, code, taken, seen in zip(
            START_COUNTS, NON_KING_CELLS[opp], obs.opp_revealed_captured,
            obs.opp_dark_captured_by_viewer,
        )
    ]
    own_squares = own_slots + obs.own_dark_lost_count
    for whose, counts, squares in (("own", own_counts, own_squares),
                                   ("opponent", opp_counts, opp_slots)):
        if min(counts) < 0 or sum(counts) != squares:
            raise ValueError(f"corrupt observation: {whose} pool {counts} "
                             f"for {squares} face-down squares")
    return HiddenPools(tuple(own_counts), own_slots, tuple(opp_counts), opp_slots)


def infoset_size(obs: Observation) -> int:
    """Exact number of hidden-identity assignments consistent with `obs`."""
    pools = hidden_pools(obs)
    return multiset_arrangements(pools.own_pool, pools.own_slots) * \
        multiset_arrangements(pools.opp_pool, pools.opp_slots)


def mover_infoset_size(state: GameState) -> int:
    """Information-set size from the viewpoint of the player to move (the
    per-ply measurement convention)."""
    return infoset_size(observe(state, state.side_to_move))
