"""Every fault-injection site is a string literal the chaos matrix names.

Production code trips planted faults through ``faults.fire(site)``.  A site
computed at run time cannot be found by
reading the code, and a site ``tests/test_chaos_faults.py`` never plants is
a recovery path no test exercises.  This scan keeps both true as code moves.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MATRIX = Path(__file__).resolve().parent / "test_chaos_faults.py"


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _is_fire(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "fire"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "faults"
    )


def site_arguments() -> list[tuple[str, ast.expr | None]]:
    """``(file:line, site argument)`` for every ``faults.fire`` call."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if _is_fire(node):
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                found.append((where, node.args[0] if node.args else None))
    return found


def literal_sites() -> set[str]:
    return {
        arg.value
        for _, arg in site_arguments()
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    }


def matrix_sites() -> set[str]:
    tree = ast.parse(MATRIX.read_text(encoding="utf-8"))
    return {
        keyword.value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) == "FaultSpec"
        for keyword in node.keywords
        if keyword.arg == "site" and isinstance(keyword.value, ast.Constant)
    }


def test_every_fault_site_is_a_string_literal():
    computed = [
        where
        for where, arg in site_arguments()
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    ]
    assert computed == [], f"fault sites not given as literals: {computed}"


def test_scan_sees_every_lanes_sites():
    assert literal_sites() == {
        "plan.compile",
        "local.replay",
        "density.execute",
        "stabilizer.execute",
    }


def test_every_fault_site_is_in_the_chaos_matrix():
    missing = sorted(literal_sites() - matrix_sites())
    assert missing == [], f"fault sites the chaos matrix never plants: {missing}"
