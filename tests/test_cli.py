"""Command-line surface: flags, output formats and exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import INITIAL_JFEN
import jieqi
from jieqi import encode_state, initial_state
from jieqi.cli import run_cli
from jieqi.simulator import run_simulation

SEED42_JFEN = encode_state(initial_state(42))

# SHA-256 of `simulate --games 8 --seed 0`, the same digests as the
# benchmark's correctness pins (perfbench/pins.json).
GOLDEN_SHA256 = {
    "games.csv": "ff66dbc891f8b62f1e713d18a875ba9e30899e3cb85839e0dc0c8d1fab0bb043",
    "series.csv": "91f75ba62c0e44332fb875928742b08dce3c11956b7100bae247a29743439fa3",
    "summary.json": "7c1777ce591e7d8329819acc38f1a8a57c3e19fcb250dcbd22c3595edb9fdc95",
}


def _digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in GOLDEN_SHA256}


def run(capsys, *args: str) -> tuple[int, str, str]:
    code = run_cli(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_usage_error_is_one(self, capsys) -> None:
        code, _, err = run(capsys, "simulate", "--games", "0", "--out-dir", "x")
        assert code == 1
        assert "games" in err

    def test_draw_plies_below_one_is_one(self, capsys, tmp_path) -> None:
        code, _, err = run(capsys, "simulate", "--games", "1", "--draw-plies", "0",
                           "--out-dir", str(tmp_path))
        assert code == 1
        assert "draw" in err

    def test_unknown_command_is_one(self, capsys) -> None:
        code, _, _ = run(capsys, "no-such-command")
        assert code == 1

    def test_no_command_is_one(self, capsys) -> None:
        code, _, err = run(capsys)
        assert code == 1
        assert "required" in err

    def test_malformed_state_is_two(self, capsys) -> None:
        code, _, err = run(capsys, "infoset-size", "--state", "xxxx r 0 0 - - -")
        assert code == 2
        assert "bad state text" in err

    def test_perft_without_hidden_is_two(self, capsys) -> None:
        code, _, err = run(capsys, "perft", "--state", INITIAL_JFEN, "--depth", "1")
        assert code == 2
        assert "hidden" in err

    @pytest.mark.parametrize("command", [["infoset-size"], ["perft", "--depth", "1"]])
    def test_non_ascii_counter_is_two(self, capsys, command) -> None:
        state = SEED42_JFEN.replace(" r 0 0 ", " r ² 0 ", 1)
        code, _, err = run(capsys, *command, "--state", state)
        assert code == 2
        assert "counter" in err

    def test_help_exits_zero(self, capsys) -> None:
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "simulate" in out


class TestInfosetSize:
    def test_initial_observation(self, capsys) -> None:
        code, out, _ = run(capsys, "infoset-size", "--state", INITIAL_JFEN)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == str(340540200 ** 2)
        assert lines[1] == "log10=17.0643"

    def test_viewer_flag(self, capsys) -> None:
        code, out, _ = run(capsys, "infoset-size", "--state", SEED42_JFEN,
                           "--viewer", "black")
        assert code == 0
        assert out.splitlines()[0] == str(340540200 ** 2)


class TestCountInfosets:
    def test_text_format(self, capsys) -> None:
        code, out, _ = run(capsys, "count-infosets")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines())
        assert lines["log10"] == "57.6408"
        assert lines["always_split_offboard_log10"] == "57.6593"
        assert int(lines["information_sets"]) > 10 ** 56
        assert int(lines["always_split_offboard"]) > int(lines["information_sets"])

    def test_json_format(self, capsys) -> None:
        code, out, _ = run(capsys, "count-infosets", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert 56 <= payload["log10"] <= 58
        assert payload["always_split_offboard"] > payload["information_sets"]

    def test_miniature_parameters(self, capsys) -> None:
        code, out, _ = run(capsys, "count-infosets", "--pieces-per-side", "2",
                           "--board-squares", "6", "--dark-squares-per-side", "2")
        assert code == 0
        assert out.splitlines()[0] == "information_sets=2752"

    def test_invalid_parameters_usage_error(self, capsys) -> None:
        code, _, _ = run(capsys, "count-infosets", "--pieces-per-side", "50",
                         "--board-squares", "60")
        assert code == 1


class TestCompare:
    def test_csv(self, capsys) -> None:
        code, out, _ = run(capsys, "compare")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "game,branching_factor,avg_game_length,log10_gtc"
        assert len(lines) == 6
        assert "Dark Chinese chess,35,133,205" in lines
        assert lines[1].startswith("Gomoku")

    def test_md(self, capsys) -> None:
        code, out, _ = run(capsys, "compare", "--format", "md")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| game |")
        assert len(lines) == 7
        assert any("| Go | 250 | 150 | 360 |" == line for line in lines)

    def test_json(self, capsys) -> None:
        code, out, _ = run(capsys, "compare", "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert len(rows) == 5
        assert rows[3] == {"game": "Dark Chinese chess", "branching_factor": 35,
                           "avg_game_length": 133, "log10_gtc": 205}

    def test_measured_row_appended(self, capsys, tmp_path) -> None:
        code, _, _ = run(capsys, "simulate", "--games", "30", "--seed", "4",
                         "--workers", "1", "--out-dir", str(tmp_path))
        assert code == 0
        code, out, _ = run(capsys, "compare", "--measured",
                           str(tmp_path / "summary.json"))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines[-1].startswith("Dark Chinese chess (measured),")

    def test_measured_missing_file_usage_error(self, capsys) -> None:
        code, _, _ = run(capsys, "compare", "--measured", "/no/such/file.json")
        assert code == 1

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"mean_branching": {}, "mean_length_plies": 120, "log10_gtc": 190},
    ], ids=["list", "dict-valued-field"])
    def test_measured_wrong_shape_usage_error(self, capsys, tmp_path,
                                              payload) -> None:
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "compare", "--measured", str(path))
        assert code == 1
        assert "usage:" in err


class TestPerft:
    def test_depth_counts(self, capsys) -> None:
        code, out, _ = run(capsys, "perft", "--state", SEED42_JFEN, "--depth", "3")
        assert code == 0
        assert out.splitlines() == [
            "depth 1: 46",
            "depth 2: 2106",
            "depth 3: 87639",
        ]

    def test_counts_stable_across_runs(self, capsys) -> None:
        runs = []
        for _ in range(2):
            code, out, _ = run(capsys, "perft", "--state", SEED42_JFEN,
                               "--depth", "2")
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_terminal_state_counts_zero(self, capsys) -> None:
        from conftest import build_state, mv
        from jieqi import apply_move
        state = build_state(red={"e0": "K", "d4": "R"}, black={"d8": "K"})
        final, _ = apply_move(state, mv("d4d8"))
        code, out, _ = run(capsys, "perft", "--state", encode_state(final),
                           "--depth", "1")
        assert code == 0
        assert out.splitlines() == ["depth 1: 0"]

    def test_ply_count_is_not_a_bound(self, capsys) -> None:
        # the ply counter is bookkeeping; the draw rule bounds a game.  The
        # state carries 3 captures, each ending a run of at most 40 plies,
        # so its ply count may reach 3 * 40 plus the no-capture counter, 3.
        from conftest import random_state
        fields = encode_state(random_state(5, 40)).split(" ")
        assert fields[2:6] == ["3", "40", "p", "R*C"]
        counts = []
        for ply_count in ("40", "120"):
            fields[3] = ply_count
            code, out, _ = run(capsys, "perft", "--state", " ".join(fields),
                               "--depth", "2")
            assert code == 0
            counts.append(out.splitlines())
        assert counts[0] == counts[1] == ["depth 1: 37", "depth 2: 1495"]

    def test_depth_bound(self, capsys) -> None:
        code, _, _ = run(capsys, "perft", "--state", SEED42_JFEN, "--depth", "5")
        assert code == 1


class TestSimulate:
    def test_writes_three_files(self, capsys, tmp_path) -> None:
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "simulate", "--games", "120", "--seed", "7",
                           "--workers", "1", "--out-dir", str(out_dir))
        assert code == 0
        games = (out_dir / "games.csv").read_text().splitlines()
        assert len(games) == 121
        series = (out_dir / "series.csv").read_text().splitlines()
        assert len(series) == 3            # checkpoints at 100 and 120
        payload = json.loads((out_dir / "summary.json").read_text())
        assert payload["games"] == 120
        assert "mean_branching=" in out

    def test_classic_flag_recorded(self, capsys, tmp_path) -> None:
        code, _, _ = run(capsys, "simulate", "--games", "10", "--seed", "1",
                         "--workers", "1", "--classic-dark-roles",
                         "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["rules_flags"] == {"classic_dark_roles": True}

    def test_draw_plies_flag(self, capsys, tmp_path) -> None:
        code, _, _ = run(capsys, "simulate", "--games", "10", "--seed", "1",
                         "--workers", "1", "--draw-plies", "12",
                         "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["draw_plies"] == 12
        assert payload["result_breakdown"].get("draw", 0) > 0

    def test_rerun_is_byte_identical(self, capsys, tmp_path) -> None:
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir, workers in ((a, "1"), (b, "2")):
            code, _, _ = run(capsys, "simulate", "--games", "60", "--seed", "5",
                             "--workers", workers, "--out-dir", str(out_dir))
            assert code == 0
        for name in ("games.csv", "series.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_out_dir_is_file_fails_before_playing(self, capsys, tmp_path,
                                                 monkeypatch) -> None:
        def no_games(*args, **kwargs):
            pytest.fail("run_simulation called with an unusable --out-dir")

        monkeypatch.setattr("jieqi.cli.run_simulation", no_games)
        path = tmp_path / "taken"
        path.write_text("")
        code, _, err = run(capsys, "simulate", "--games", "5",
                           "--out-dir", str(path))
        assert code == 1
        assert "usage:" in err

    @pytest.mark.parametrize("affinity, expected", [({5}, 1), ({0, 2, 3}, 3), (None, 8)],
                             ids=["pinned-to-one", "pinned-to-three", "no-affinity-call"])
    def test_default_workers_count_usable_cpus(self, capsys, tmp_path, monkeypatch,
                                               affinity, expected) -> None:
        # The host has 8 CPUs; a process pinned to fewer must not fork more
        # workers than it can run.  Without sched_getaffinity the host
        # count is all there is.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        asked: list[int] = []

        def serial(games, seed, workers, rules):
            asked.append(workers)
            return run_simulation(games, seed, 1, rules)

        monkeypatch.setattr("jieqi.cli.run_simulation", serial)
        code, _, _ = run(capsys, "simulate", "--games", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert asked == [expected]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_golden_outputs(self, capsys, tmp_path, workers) -> None:
        code, _, _ = run(capsys, "simulate", "--games", "8", "--seed", "0",
                         "--workers", workers, "--out-dir", str(tmp_path))
        assert code == 0
        assert _digests(tmp_path) == GOLDEN_SHA256

    def test_golden_outputs_with_asserts_stripped(self, tmp_path) -> None:
        # `python -O` strips assert statements; the package must hold its
        # invariants and its output bytes without them.
        proc = _golden_simulate([sys.executable, "-O"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert _digests(tmp_path) == GOLDEN_SHA256

    @pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
    def test_golden_outputs_on_each_python(self, tmp_path, version: str) -> None:
        # The bytes must not depend on the interpreter (from 3.12 on, sum()
        # of floats rounds differently).  The package uses the standard
        # library only, so any python3.X on PATH that starts can run it.
        exe = shutil.which(f"python{version}")
        if exe is None or subprocess.run([exe, "-c", "pass"], capture_output=True,
                                         timeout=60).returncode != 0:
            pytest.skip(f"python{version} is not on PATH or does not start")
        proc = _golden_simulate([exe], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert _digests(tmp_path) == GOLDEN_SHA256


def _golden_simulate(interpreter: list[str], out_dir: Path) -> subprocess.CompletedProcess:
    """Run `simulate --games 8 --seed 0` in a fresh `interpreter` on this
    checkout's package."""
    src = str(Path(jieqi.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [*interpreter, "-m", "jieqi", "simulate", "--games", "8", "--seed", "0",
         "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=300,
    )


#: Characters an edit of a state text writes: the JFEN alphabet plus a few
#: foreign ones.
_EDIT_CHARS = list("0123456789/ -KGMRHCPXkgmrhcpx") + ["q", "\t", "²"]
_JUNK = st.sampled_from(["", "x", "-", "1.5", "--", "-h"])


@st.composite
def _int_arg(draw, lo: int, hi: int) -> str:
    """An integer in [lo, hi] as text, or one time in eight a non-integer."""
    if draw(st.integers(0, 7)) == 0:
        return draw(_JUNK)
    return str(draw(st.integers(lo, hi)))


@st.composite
def _state_text(draw, bases: list[str]) -> str:
    """One of `bases` as is or after one or two single-character
    replacements, insertions or deletions."""
    text = draw(st.sampled_from(bases))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(_EDIT_CHARS))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert":
            text = text[:i] + ch + text[i:]
        else:
            text = text[:i] + (ch if op == "replace" else "") + text[i + 1:]
    return text


@st.composite
def _argv(draw, out_dir: str) -> list[str]:
    """One subcommand with random flag values, bounded so that no example
    starts a child process or runs long."""

    def optional(*args: str) -> list[str]:
        return list(args) if draw(st.booleans()) else []

    command = draw(st.sampled_from(
        ["simulate", "count-infosets", "infoset-size", "compare", "perft"]))
    if command == "simulate":
        argv = ["simulate", "--workers", "1", "--out-dir", out_dir,
                "--games", draw(_int_arg(-1, 2))]
        argv += optional("--seed", draw(_int_arg(-2 ** 70, 2 ** 70)))
        argv += optional("--draw-plies", draw(_int_arg(-2, 60)))
        argv += optional("--classic-dark-roles")
    elif command == "count-infosets":
        argv = ["count-infosets", "--pieces-per-side", draw(_int_arg(-1, 4)),
                "--board-squares", draw(_int_arg(-1, 12)),
                "--dark-squares-per-side", draw(_int_arg(-1, 5))]
        argv += optional("--format", draw(st.sampled_from(["text", "json", "xml"])))
    elif command == "infoset-size":
        argv = ["infoset-size", "--state", draw(_state_text([INITIAL_JFEN, SEED42_JFEN]))]
        argv += optional("--viewer", draw(st.sampled_from(["red", "black", "blue"])))
    elif command == "compare":
        argv = ["compare"]
        argv += optional("--format", draw(st.sampled_from(["csv", "md", "json", "txt"])))
        argv += optional("--measured", draw(st.sampled_from(
            [f"{out_dir}/summary.json", f"{out_dir}/games.csv", out_dir, "no-such.json"])))
    else:
        # SEED42_JFEN carries the hidden section perft needs
        argv = ["perft", "--state", draw(_state_text([SEED42_JFEN])),
                "--depth", draw(st.sampled_from(["-1", "0", "1", "2", "5", "99", "x"]))]
    if draw(st.integers(0, 7)) == 0:
        argv.append(draw(st.sampled_from(["--games", "extra", "-q"])))
    return argv


class TestRunCliExitCodes:
    @settings(derandomize=True, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_is_zero_one_or_two(self, tmp_path, data) -> None:
        argv = data.draw(_argv(str(tmp_path)))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(argv)
        assert code in (0, 1, 2), argv
