"""Source-level checks on the etfkit package."""

import ast
import importlib
import re
from pathlib import Path

import etfkit
from etfkit.cyclo import CycMatrix

SRC = Path(etfkit.__file__).resolve().parent


def test_no_assert_statements():
    # a check that guards a certificate must not vanish under `python -O`
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in etfkit: {found}"


ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cyclo", "designs", "hadamard", "frames", "constructions",
           "fileio", "cli")


def test_every_exported_name_exists():
    # perfbench's tracer reads each name of a module's __all__ by getattr,
    # and the package re-exports names from its modules
    missing = []
    for mod in MODULES:
        module = importlib.import_module(f"etfkit.{mod}")
        missing += [f"{mod}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = importlib.import_module(f"etfkit.{node.module}")
            missing += [f"etfkit.{alias.name}" for alias in node.names
                        if not (hasattr(etfkit, alias.name)
                                and hasattr(source, alias.name))]
    assert not missing, f"exported names that do not exist: {missing}"


def _literal(path: Path, name: str):
    """The literal value assigned to a module-level name of a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


def test_traced_matrix_methods_exist():
    # perfbench's tracer wraps these CycMatrix methods by name, and counts
    # `entry`
    names = _literal(ROOT / "perfbench" / "tracing.py", "_CYCMATRIX_METHODS")
    missing = [name for name in names + ("entry",)
               if name not in CycMatrix.__dict__]
    assert not missing, f"traced methods missing from CycMatrix: {missing}"


def test_oracle_imports_nothing_from_etfkit():
    # the reference ring must not compute through the library it checks
    tree = ast.parse((ROOT / "tests" / "oracle.py").read_text(
        encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m.split(".")[0] == "etfkit"]


def test_readme_library_sketch_prints_its_comments(capsys):
    # each print of README's Python sketch prints the text of its comment
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library sketch\n\n```python\n(.*?)```", text,
                     re.S).group(1)
    want = [line.split("# ", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    assert want
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want
