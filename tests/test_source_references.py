"""Every public top-level function and class of the package is used by the
package itself: code that only tests reach is deleted, not kept up."""

import ast
from pathlib import Path

import mpnode

SRC = Path(mpnode.__file__).parent

# name -> why it may go unreferenced inside the package
ALLOWED = {
    "rollout": "single-trajectory reference that tests compare batches against",
    "finite_diff_check": "gradient oracle of the tests",
    "parameter": "builds trainable leaves in tests and oracles",
    "message_norms": "message-norm telemetry will call it (ROADMAP item 2)",
}


def _definitions_and_uses():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_public_names_are_used_by_the_package():
    defined, used = _definitions_and_uses()
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used and name not in ALLOWED)
    assert not unused, f"referenced only from tests or __init__.py: {unused}"
    assert set(ALLOWED) <= set(defined), "allowlist names a deleted function"
