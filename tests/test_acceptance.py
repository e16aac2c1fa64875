"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`; the PASS/FAIL lines bypass
pytest's capture so they always appear.  The 10,000-game reproduction run
executes once per session (plus a second run with a different worker count
for the determinism criterion), so the whole module takes several minutes.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from bruteforce import count_information_sets_bruteforce, infoset_size_bruteforce
from conftest import INITIAL_JFEN, with_hidden
from test_infoset import _late_game_states
from jieqi import (
    CountParams,
    Side,
    apply_move,
    count_information_sets,
    estimate_gtc_log10,
    infoset_size,
    initial_state,
    legal_moves,
    observe,
)
from jieqi.board import DARK_HOME
from jieqi.cli import run_cli

pytestmark = pytest.mark.acceptance

GAMES = 10_000
MASTER_SEED = 0


def _report(capsys, num: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="session")
def reproduction_run(tmp_path_factory) -> dict:
    """Criterion 4's run: 10,000 games, default flags, master seed 0."""
    out_dir = tmp_path_factory.mktemp("run_w1")
    t0 = time.perf_counter()
    code = run_cli([
        "simulate", "--games", str(GAMES), "--seed", str(MASTER_SEED),
        "--workers", "1", "--out-dir", str(out_dir),
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return {
        "dir": out_dir,
        "elapsed": elapsed,
        "summary": json.loads((out_dir / "summary.json").read_text()),
        "series": (out_dir / "series.csv").read_text().splitlines(),
    }


def test_criterion_1_initial_infoset_size(capsys) -> None:
    t0 = time.perf_counter()
    code = run_cli(["infoset-size", "--state", INITIAL_JFEN])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.splitlines()
    multinomial = math.factorial(15) // (math.factorial(2) ** 5 * math.factorial(5))
    ok = (
        code == 0
        and int(out[0]) == multinomial ** 2
        and multinomial == 340_540_200
        and abs(float(out[1].split("=")[1]) - 17.064) < 5e-4
        and elapsed < 1.0
    )
    _report(capsys, 1, "initial information-set size", ok)


def test_criterion_2_number_of_information_sets(capsys) -> None:
    t0 = time.perf_counter()
    code = run_cli(["count-infosets"])
    elapsed = time.perf_counter() - t0
    lines = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines()
    )
    primary = int(lines["information_sets"])
    variant = int(lines["always_split_offboard"])
    ok = (
        code == 0
        and 56.0 <= math.log10(primary) <= 58.0
        and 56.0 <= math.log10(variant) <= 58.0
        and variant != primary
        and elapsed < 1.0
    )
    _report(capsys, 2, "number of information sets (both readings)", ok)


def test_criterion_3_miniature_oracle_equivalence(capsys) -> None:
    t0 = time.perf_counter()
    ok = True
    for n in range(3):
        for s in range(2 * n, 7):
            for d in range(n + 1):
                params = CountParams(n, s, d)
                for always in (False, True):
                    if count_information_sets(params, always) != \
                            count_information_sets_bruteforce(params, always):
                        ok = False
    ok = ok and (time.perf_counter() - t0) < 10.0
    _report(capsys, 3, "miniature closed form == tuple enumeration", ok)


def test_criterion_4_self_play_reproduction(capsys, reproduction_run) -> None:
    s = reproduction_run["summary"]
    ok = (
        s["games"] == GAMES
        and 28.0 <= s["mean_branching"] <= 42.0
        and 100.0 <= s["mean_length_plies"] <= 170.0
        and (12.0 <= s["mean_log10_infoset"] <= 17.0
             or 12.0 <= s["log10_mean_infoset"] <= 17.0)
        and 185.0 <= s["log10_gtc"] <= 225.0
        and reproduction_run["elapsed"] <= 600.0
    )
    with capsys.disabled():
        print(
            f"\n  measured: b={s['mean_branching']:.2f} p={s['mean_length_plies']:.1f} "
            f"log10_mean_infoset={s['log10_mean_infoset']:.2f} "
            f"gtc={s['log10_gtc']:.1f} in {reproduction_run['elapsed']:.0f}s"
        )
    _report(capsys, 4, "10k-game self-play statistics within reference bands", ok)


def test_criterion_5_series_convergence(capsys, reproduction_run) -> None:
    rows = {
        int(line.split(",")[0]): [float(x) for x in line.split(",")[1:]]
        for line in reproduction_run["series"][1:]
    }
    half, full = rows[5000], rows[10000]
    ok = all(abs(b - a) / abs(a) < 0.05 for a, b in zip(half, full))
    _report(capsys, 5, "cumulative statistics converged (5k vs 10k)", ok)


def test_criterion_6_worker_count_determinism(
    capsys, reproduction_run, tmp_path_factory
) -> None:
    out_dir = tmp_path_factory.mktemp("run_w2")
    code = run_cli([
        "simulate", "--games", str(GAMES), "--seed", str(MASTER_SEED),
        "--workers", "2", "--out-dir", str(out_dir),
    ])
    capsys.readouterr()
    ok = code == 0
    for name in ("games.csv", "series.csv", "summary.json"):
        ok = ok and (
            (out_dir / name).read_bytes()
            == (reproduction_run["dir"] / name).read_bytes()
        )
    _report(capsys, 6, "byte-identical outputs across worker counts", ok)


def test_criterion_7_infoset_oracle(capsys) -> None:
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for state in _late_game_states(max_dark=8, want=110):
        for viewer in (Side.RED, Side.BLACK):
            obs = observe(state, viewer)
            if infoset_size(obs) != infoset_size_bruteforce(obs):
                ok = False
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked >= 100 and elapsed < 30.0
    _report(capsys, 7, "closed-form infoset size == brute force (>=100 obs)", ok)


def _invariants_ok(state) -> bool:
    """Piece conservation and dark immobility for both sides."""
    expect = (1, 2, 2, 2, 2, 2, 5)  # K G M R H C P
    totals = {Side.RED: [0] * 7, Side.BLACK: [0] * 7}
    for sq, cell in enumerate(state.board):
        if cell == 0:
            continue
        side = Side.RED if cell > 0 else Side.BLACK
        mag = cell if cell > 0 else -cell
        if mag == 8:
            if sq not in DARK_HOME[side]:
                return False
            totals[side][state.hidden[sq].value] += 1
        else:
            totals[side][mag - 1] += 1
    for kind, _ in state.captures[Side.BLACK]:
        totals[Side.RED][kind.value] += 1
    for kind, _ in state.captures[Side.RED]:
        totals[Side.BLACK][kind.value] += 1
    return tuple(totals[Side.RED]) == expect and tuple(totals[Side.BLACK]) == expect


def _shuffled_hidden(state, rng) -> object:
    hidden = list(state.hidden)
    for home in DARK_HOME:
        squares = [sq for sq in home if hidden[sq] is not None]
        kinds = [hidden[sq] for sq in squares]
        rng.shuffle(kinds)
        for sq, kind in zip(squares, kinds):
            hidden[sq] = kind
    return with_hidden(state, hidden)


def test_criterion_8_engine_suite(capsys, reproduction_run) -> None:
    ok = all(len(legal_moves(initial_state(seed))) == 46 for seed in range(3))

    # invariant sweep over >= 1e6 random plies
    target = 1_000_000
    plies = 0
    seed = 0
    rng = random.Random(0xACCE97)
    while plies < target and ok:
        state = initial_state(seed)
        seed += 1
        while not state.status.over:
            moves = legal_moves(state)
            if not _invariants_ok(state):
                ok = False
                break
            # observation sufficiency: permuting hidden identities (same
            # observation) cannot change the legal moves
            if legal_moves(_shuffled_hidden(state, rng)) != moves:
                ok = False
                break
            state, _ = apply_move(state, moves[rng.randrange(len(moves))])
            plies += 1
        ok = ok and state.ply_count < 1500 and _invariants_ok(state)

    # the three headline termination conditions all occur in the 10k run
    breakdown = reproduction_run["summary"]["result_breakdown"]
    kings = sum(v for k, v in breakdown.items() if k.endswith("king_captured"))
    marshals = sum(v for k, v in breakdown.items() if k.endswith("meet_marshals"))
    draws = breakdown.get("draw", 0)
    ok = ok and kings > 0 and marshals > 0 and draws > 0
    with capsys.disabled():
        print(
            f"\n  swept {plies} plies over {seed} games; "
            f"endings: king_captured={kings} meet_marshals={marshals} draw={draws}"
        )
    _report(capsys, 8, "engine invariants and termination conditions", ok)


def test_criterion_9_gtc_spot_check(capsys) -> None:
    value = estimate_gtc_log10(35, 133)
    ok = abs(value - 205.36) <= 0.01 and round(value) == 205
    _report(capsys, 9, "branching^length spot check (35, 133)", ok)
