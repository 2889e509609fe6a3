"""The package exports only what the product reaches.

Every public function, class and method in src/homodyn must be named
somewhere a user-facing path reaches it: the package's own modules, the
benchmark harness, the acceptance suite or the README.  In Python files
only code counts, so a name that survives only in a docstring or comment
is unreached.  What only module tests call belongs in tests/helpers.py.
"""

import ast
import re
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homodyn"

# name -> why it stays although no product path names it
_ALLOWED = {
    "hitting_frequency": "the paper's cusp-hitting frequency of expanding translates, "
                         "the object goodfn's module docstring names",
}


def _public_definitions():
    """(file, line, name) of each public top-level function or class and each
    public method in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for defn in [node, *members]:
                if (isinstance(defn, (ast.FunctionDef, ast.ClassDef))
                        and not defn.name.startswith("_")):
                    yield path, defn.lineno, defn.name


def _corpus():
    """(file, line number, text) of what a product path reads: each NAME
    token of the Python files, each line of the README."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    files += [ROOT / "tests" / "test_acceptance.py"]
    for path in files:
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME:
                    yield path, tok.start[0], tok.string
    readme = ROOT / "README.md"
    for i, line in enumerate(readme.read_text(encoding="utf-8").splitlines(), 1):
        yield readme, i, line


def test_no_test_only_public_api():
    corpus = list(_corpus())
    unreached = []
    for path, lineno, name in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if name not in _ALLOWED and not any(
                word.search(text) for p, i, text in corpus if (p, i) != (path, lineno)):
            unreached.append(f"{path.name}:{lineno} {name}")
    assert not unreached, "public names only module tests reach: " + ", ".join(unreached)


def test_allowlist_names_existing_definitions():
    names = {name for _, _, name in _public_definitions()}
    assert set(_ALLOWED) <= names


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the one runtime dependency: every import in the package is
    # standard library, numpy or relative (mpmath and scipy are test oracles)
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    roots, outside = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                roots.add(name.split(".")[0])
                if name.split(".")[0] not in allowed:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert {"numpy", "math"} <= roots  # the walk sees the imports
    assert not outside, "imports outside the standard library and numpy: " + ", ".join(outside)


def test_package_root_binds_only_version():
    # the root re-exports nothing: callers import from the submodules
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    others = [ast.unparse(node) for node in tree.body
              if not isinstance(node, (ast.Assign, ast.Expr))]  # imports among them
    assert names == ["__version__"] and not others, (names, others)
