"""Source-level guards over the package code."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import jieqi
from jieqi import Move, engine

PACKAGE_DIR = Path(jieqi.__file__).parent


def test_no_assert_statements() -> None:
    # `python -O` strips assert statements, so an invariant the package
    # relies on must be raised as an exception instead.
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_all_exports_resolve() -> None:
    missing = [name for name in jieqi.__all__ if not hasattr(jieqi, name)]
    assert missing == []


def test_no_private_cross_module_imports() -> None:
    # A module that needs a sibling's underscore-prefixed helper is sharing
    # one rule between two owners; the rule belongs in one public function.
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno} {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level > 0
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []


#: functools' memoizing decorators.
_CACHES = {"lru_cache", "cache"}


def _names_cache(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id in _CACHES
            or isinstance(node, ast.Attribute) and node.attr in _CACHES)


def test_one_count_cache() -> None:
    # multiset_arrangements caches every count a sizing needs; a cache
    # under it (on binomial, or on a helper it calls) would only ever see
    # its misses.  Every use of the decorator's name is counted, so an
    # `lru_cache(...)(f)` call outside a decorator list fails too.
    decorated, uses = [], []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _names_cache(node)]
        decorated += [f"{path.name}:{node.name}" for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and any(_names_cache(d.func if isinstance(d, ast.Call) else d)
                              for d in node.decorator_list)]
    assert decorated == ["combinatorics.py:multiset_arrangements"]
    assert len(uses) == 1, uses


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(PACKAGE_DIR.rglob("*.py"))}


def test_dark_code_named_only_in_board() -> None:
    # board.py owns the cell code; other modules read cells through its
    # tables instead of decoding magnitudes themselves.
    found = [name for name, text in _package_sources().items()
             if "DARK_CODE" in text and name != "board.py"]
    assert found == []


def test_kind_letters_spelled_once() -> None:
    spellings = {name: text.count("KGMRHCP") for name, text in _package_sources().items()}
    assert sum(spellings.values()) == 1, spellings


def test_letters_read_through_one_table() -> None:
    # jfen's letter table spells every letter of the state text and reads
    # each one back; a second reader (a case test, or a parser on the
    # piece or side type) could accept a letter the table would not write.
    readers = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE_DIR.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.FunctionDef) and node.name == "from_letter"]
    tree = ast.parse((PACKAGE_DIR / "jfen.py").read_text())
    case_tests = [f"jfen.py:{node.lineno} {node.func.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in {"isupper", "islower", "isalpha", "upper"}]
    assert readers + case_tests == []


def test_generator_builds_no_moves() -> None:
    # The generator appends the Move objects that the plan table built at
    # import; building a fresh one per generated move is the cost the table
    # removes.
    tree = ast.parse((PACKAGE_DIR / "engine.py").read_text())
    generators = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "_gen_all"]
    assert len(generators) == 1
    found = [f"{fn.name}:{node.lineno}" for fn in generators for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Move"]
    assert found == []


def _builds_state(call: ast.Call) -> bool:
    """A call that makes a GameState: `GameState(...)`, `GameState._make(...)`,
    or `tuple.__new__(GameState, ...)` by any name."""
    func = call.func
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    first = call.args[0] if call.args else None
    return (called == "GameState"
            or (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == "GameState")
            or (isinstance(first, ast.Name) and first.id == "GameState"))


def test_states_built_in_one_place() -> None:
    # A state's status and moves are derived from its other fields, and
    # `make_state` derives them; any other constructor call could build a
    # state whose derived fields disagree with the rest.
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", f"line {top.lineno}")
            found += [f"{path.name}:{owner}" for node in ast.walk(top)
                      if isinstance(node, ast.Call) and _builds_state(node)]
    assert found == ["engine.py:make_state"]


def _moves_in(node: object) -> Iterator[Move]:
    if isinstance(node, Move):
        yield node
    elif isinstance(node, (tuple, dict)):
        for item in node.values() if isinstance(node, dict) else node:
            yield from _moves_in(item)


def test_plan_table_holds_each_move_once() -> None:
    # One Move object per (from, to) pair that some movement table makes:
    # the table is built at import in the program and in every worker, so
    # a copy per cell, side or rule variant would cost memory twice over.
    moves = list(_moves_in(engine._PLANS))
    assert len({id(m) for m in moves}) == len(set(moves)) == 2550


#: Reference oracles: tests check the fast paths against them, and no
#: program path calls them.
_ORACLES = {"infoset_size_bruteforce", "count_information_sets_bruteforce"}


def _public_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name, line) of each public top-level function, class and
    assigned name, and of each public method of a public top-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(name.id, node.lineno) for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and not name.id.startswith("_")]
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def _referenced_names(path: Path, tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            names.update(alias.name for alias in node.names)
    return names


def test_public_names_have_a_program_caller() -> None:
    # A public function, class or constant that only the tests use is API
    # the program does not need.  The match is by bare name, so a name that
    # some unrelated call also spells (`add`, `count`) passes: this guards
    # against new test-only API, it does not prove that everything it
    # passes is used.
    program = sorted(PACKAGE_DIR.glob("*.py"))
    program += sorted((PACKAGE_DIR.parent.parent / "perfbench").glob("*.py"))
    referenced: set[str] = set()
    for path in program:
        referenced |= _referenced_names(path, ast.parse(path.read_text(), filename=str(path)))
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.name}:{line} {name}" for name, line in _public_definitions(tree)
                   if name.rsplit(".", 1)[-1] not in referenced | _ORACLES]
    assert unused == []
