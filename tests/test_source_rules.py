"""Rules on the source of the package: what it may import, read and assert.

Each rule walks the modules of src/qmds and names every offending line.
"""

import ast
import pathlib
import re
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qmds"
MODULES = sorted(PACKAGE.glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(), str(path))


def calls(node, name):
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_no_bare_assert():
    """Invariants are explicit checks: python -O strips every assert."""
    bad = [
        f"{path}:{lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.match(r"\s*assert\b", line)
    ]
    assert not bad, bad


def test_numpy_is_the_only_runtime_dependency():
    allowed = set(sys.stdlib_module_names) | {"numpy", "qmds"}
    bad = []
    for path in MODULES:
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            bad += [f"{path}:{node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in allowed]
    assert not bad, bad


def test_every_module_level_import_is_used():
    """__init__.py only re-exports, and is not checked."""
    bad = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = parsed(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            bad += [f"{path}:{node.lineno}: {name} is never used"
                    for name in names if name not in used]
    assert not bad, bad


def test_no_module_reads_the_gen_or_parity_rows_views():
    """The uint8 matrices are the code; the tuple views are for outside callers."""
    bad = [
        f"{path}:{node.lineno}: reads .{node.attr}"
        for path in MODULES
        for node in ast.walk(parsed(path))
        if isinstance(node, ast.Attribute) and node.attr in ("gen", "parity_rows")
    ]
    assert not bad, bad


def test_no_code_is_the_linear_code_of_a_null_space():
    """kernel_rref builds such a code in one elimination."""
    bad = [
        f"{path}:{node.lineno}: linear_code of a null_space"
        for path in MODULES
        for node in ast.walk(parsed(path))
        if calls(node, "linear_code") and any(
            calls(arg, "null_space") for arg in node.args + [kw.value for kw in node.keywords])
    ]
    assert not bad, bad


def test_search_policy_lives_in_word_search():
    """Outside linalg.py (WordSearch and the MDS check) and budgets.py, no
    module reads a budget's ceilings, a route's cost or cap, or defines or
    reads a *_gate.  Every search function takes its SearchBudget as
    `budget`."""
    policy = {"MDS_SUBSET_CAP"}
    bad = []
    for path in MODULES:
        if path.name in ("linalg.py", "budgets.py"):
            continue
        for node in ast.walk(parsed(path)):
            # a name read, an attribute, or the name a def or an import binds
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
                node, "name", None)
            if name and (name in policy or name.endswith("_gate")):
                bad.append(f"{path}:{node.lineno}: {name}")
            if (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "budget"
                    and node.attr in ("enum", "support", "samples")):
                bad.append(f"{path}:{node.lineno}: budget.{node.attr}")
    assert not bad, bad


def test_every_sample_draws_through_the_philox_stream():
    """Every sampled stream is read by kernels.PhiloxStream; numpy's own
    Generator.integers stays the oracle in tests only."""
    bad = [
        f"{path}:{node.lineno}: calls .integers"
        for path in MODULES
        for node in ast.walk(parsed(path))
        if calls(node, "integers")
    ]
    assert not bad, bad


def test_no_module_imports_the_test_oracles():
    """The oracles check the package; the package never leans on them."""
    bad = []
    for path in MODULES:
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            bad += [f"{path}:{node.lineno}: {name}" for name in names
                    if "oracles" in name.split(".")]
    assert not bad, bad
