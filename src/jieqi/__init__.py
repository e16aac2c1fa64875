"""Dark Chinese chess (JieQi): rules engine and complexity toolkit.

The package has three layers:

  * engine / jfen -- the full game rules (shuffled face-down setup,
    positional-role movement, reveal-on-move, asymmetric capture knowledge,
    three termination conditions) plus a canonical text serialization.
  * combinatorics / infoset / enumeration -- exact big-integer counting:
    the size of a player's information set and the total number of
    information sets in the game.
  * simulator / cli -- seeded uniform-random self-play measuring branching
    factor, game length, per-ply information-set size and the derived
    game-tree-complexity bound, with byte-stable CSV/JSON output.
"""

from .board import PieceKind, Side, square, square_name
from .combinatorics import (
    KindMultiset,
    START_POOL,
    binomial,
    exact_log10,
    multiset_arrangements,
)
from .engine import (
    Capture,
    GameState,
    IllegalMoveError,
    MissingHiddenInfoError,
    Move,
    Rules,
    STANDARD_RULES,
    WinReason,
    apply_move,
    initial_state,
    legal_moves,
    observe,
)
from .enumeration import (
    CountParams,
    STANDARD_PARAMS,
    count_information_sets,
)
from .infoset import (
    HiddenPools,
    hidden_pools,
    infoset_size,
    mover_infoset_size,
)
from .jfen import JfenError, decode_state, encode_state
from .simulator import (
    estimate_gtc_log10,
    game_seed,
    play_random_game,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "Capture",
    "CountParams",
    "GameState",
    "HiddenPools",
    "IllegalMoveError",
    "JfenError",
    "KindMultiset",
    "MissingHiddenInfoError",
    "Move",
    "PieceKind",
    "Rules",
    "STANDARD_PARAMS",
    "STANDARD_RULES",
    "START_POOL",
    "Side",
    "WinReason",
    "apply_move",
    "binomial",
    "count_information_sets",
    "decode_state",
    "encode_state",
    "estimate_gtc_log10",
    "exact_log10",
    "game_seed",
    "hidden_pools",
    "infoset_size",
    "initial_state",
    "legal_moves",
    "mover_infoset_size",
    "multiset_arrangements",
    "observe",
    "play_random_game",
    "run_simulation",
    "square",
    "square_name",
]
