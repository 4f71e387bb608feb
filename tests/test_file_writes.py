"""Every whole file under ``src/repro`` is written by one function.

:func:`repro.io.replace_file` writes a sibling temp file and renames
it into place, so a killed process leaves the old file or the new one,
never a torn one.  Any other write call in the package — ``os.replace``
or ``os.rename``, ``Path.write_text`` / ``write_bytes``, an ``open``
in a writing mode — would bypass that, so this walks the package's
syntax trees and fails on one.  The allow-list holds ``replace_file``
itself and the two streams that must append as they go (a reader
follows them while they grow).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: (module, qualified function) -> why it may write a file directly.
ALLOWED = {
    ("repro.io", "replace_file"): "the one whole-file write",
    ("repro.cli", "_cmd_run"):
        "run --trace-out: operations appended as they happen",
    ("repro.fleet.pool", "run_shard"):
        "a stream shard's operations archive, appended as it runs",
}


def _literal(node) -> object:
    return node.value if isinstance(node, ast.Constant) else None


def _opens_for_writing(call: ast.Call, mode_index: int) -> bool:
    """Whether an ``open`` call may write: its mode (argument
    ``mode_index`` or ``mode=``) is not a constant read mode."""
    mode = "r"
    if len(call.args) > mode_index:
        mode = _literal(call.args[mode_index])
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = _literal(keyword.value)
    return not isinstance(mode, str) or any(flag in mode
                                            for flag in "wax+")


def _is_os(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "os"


def _write_kind(call: ast.Call) -> str | None:
    """What file write ``call`` is, or None."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "open" and _opens_for_writing(call, 1):
            return "open for writing"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in ("write_text", "write_bytes"):
        return func.attr
    if _is_os(func.value) and func.attr in ("replace", "rename"):
        return f"os.{func.attr}"
    if func.attr == "open":
        if _is_os(func.value):
            # A raw descriptor; the one read-only-safe use is
            # os.devnull (restoring stdout after a broken pipe).
            (target, *_) = call.args
            devnull = (isinstance(target, ast.Attribute)
                       and _is_os(target.value)
                       and target.attr == "devnull")
            return None if devnull else "os.open"
        if _opens_for_writing(call, 0):
            return "open for writing"
    return None


def write_calls(source: str) -> list[tuple[str, int, str]]:
    """(qualified enclosing function, line, kind) of each file write
    in ``source``; module-level writes have the qualname ``""``."""
    found: list[tuple[str, int, str]] = []

    def visit(node, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            kind = _write_kind(node)
            if kind is not None:
                found.append((".".join(scope), node.lineno, kind))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def package_writes() -> list[tuple[str, str, int, str]]:
    """(module, qualname, line, kind) of every write in the package."""
    writes = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__"
                          else parts)
        for qualname, line, kind in write_calls(path.read_text()):
            writes.append((module, qualname, line, kind))
    return writes


def test_no_file_write_outside_replace_file_and_the_streams():
    stray = [f"{module}:{line} {qualname or '<module>'}: {kind}"
             for module, qualname, line, kind in package_writes()
             if (module, qualname) not in ALLOWED]
    assert stray == [], (
        "write whole files with repro.io.replace_file: "
        + "; ".join(stray))


def test_every_allowance_is_used():
    used = {(module, qualname)
            for module, qualname, _, _ in package_writes()}
    assert set(ALLOWED) <= used, set(ALLOWED) - used


def test_the_walk_sees_each_kind_of_write():
    source = '''
import os

def save(path, handle):
    path.write_text("x")
    path.write_bytes(b"x")
    os.replace("a", "b")
    open(path, "w")
    open(path, mode="ab")
    path.open("w", encoding="utf-8")
    open(path, handle.mode)
    os.open("f", os.O_WRONLY)

class Store:
    def read(self, path):
        open(path)
        open(path, "rb")
        path.open()
        path.open("r", encoding="utf-8")
        os.open(os.devnull, os.O_WRONLY)
'''
    kinds = [(scope, kind) for scope, _, kind in write_calls(source)]
    assert kinds == [
        ("save", "write_text"), ("save", "write_bytes"),
        ("save", "os.replace"), ("save", "open for writing"),
        ("save", "open for writing"), ("save", "open for writing"),
        ("save", "open for writing"), ("save", "os.open"),
    ]
