"""Every module of the package, the tests and the demos uses what it
imports, README's library example runs on what the package exports, and
every public function and class of the package has a caller."""
import ast
import shutil
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


def _readme_example():
    """The code of README's library example."""
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    exec(compile(_readme_example(), "README.md", "exec"), {})


# Public names of the package that nothing in it, the demos or README's
# library example calls, each kept for a reason:
KEPT = (
    # the tests use it as a reference, and README's relation-arithmetic
    # list advertises it
    "intersect",
    # the paper's limit M(iy) -> F at i*infinity, the spectral M(iy) on
    # gap_limit's scale-free grid; it catches faults that no verify check
    # does (test_a_far_weyl_fault_is_caught_only_by_the_forbidden_asymptotics)
    # and stays out of verify for its cost, about 50 ms a verify-large pass
    "check_forbidden_asymptotics",
)


def _uncalled_public_names(package):
    """Public module-level functions and classes of the modules in package
    that no Name node reads outside their own definition, in package, in
    the demos or in README's library example."""
    trees = [ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))]
    defined = {node.name: node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    trees += [ast.parse(p.read_text()) for p in sorted((REPO / "demos").glob("*.py"))]
    trees.append(ast.parse(_readme_example()))
    own = {name: set(ast.walk(node)) for name, node in defined.items()}
    called = {node.id for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id in defined and node not in own[node.id]}
    return sorted(defined.keys() - called)


def test_every_public_name_has_a_caller():
    # a KEPT name that gains a caller leaves KEPT
    assert _uncalled_public_names(REPO / "src" / "relcomp") == sorted(KEPT)


def test_uncalled_name_guard_lists_a_name_only_its_own_body_reads(tmp_path):
    package = tmp_path / "relcomp"
    shutil.copytree(REPO / "src" / "relcomp", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "linrel.py", "a") as module:
        module.write("\n\ndef throwaway(n):\n"
                     "    return throwaway(n - 1) if n else 0\n")
    assert _uncalled_public_names(package) == sorted(KEPT + ("throwaway",))
