"""Every module of the package, the tests and the demos uses what it
imports, and README's library example runs on what the package exports."""
import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    """Names imported by the module at path that no Name node reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # __init__.py imports only to re-export.
    paths = [p for d in ("src/relcomp", "tests", "demos")
             for p in sorted((REPO / d).glob("*.py")) if p.name != "__init__.py"]
    assert paths
    unused = {str(p.relative_to(REPO)): names for p in paths
              if (names := _unused_imports(p))}
    assert unused == {}


def test_readme_library_example_runs():
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
