"""The package exports only what the product reaches.

Every public function, class and method in src/homodyn must be named
somewhere a user-facing path reaches it: the package's own modules, the
benchmark harness (its tests excepted), the acceptance suite or the
README.  In Python files only code counts, so a name that survives only in
a docstring or comment is unreached.  What only module tests call belongs
in tests/helpers.py.

The same holds for the fields of every dataclass and NamedTuple: each must
be read on one of those paths, by an attribute load or by unpacking the
whole record.  A read counts for the record its receiver is known to be
(see _field_reads); an unresolved read of a field name that two records
share counts for neither.
"""

import ast
import re
import shutil
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homodyn"
README = ROOT / "README.md"

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


def _corpus_files(package=PACKAGE):
    """The Python files of the product paths: the package, the benchmark
    harness without its tests, and the acceptance suite."""
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    files += [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    return files + [ROOT / "tests" / "test_acceptance.py"]


def _corpus():
    """(file, line number, text) of what a product path reads: each NAME
    token of the Python files, each line of the README."""
    for path in _corpus_files():
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME:
                    yield path, tok.start[0], tok.string
    for i, line in enumerate(README.read_text(encoding="utf-8").splitlines(), 1):
        yield README, i, line


def test_no_test_only_public_api():
    corpus = list(_corpus())
    unreached = []
    for path, lineno, name in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for p, i, text in corpus if (p, i) != (path, lineno)):
            unreached.append(f"{path.name}:{lineno} {name}")
    assert not unreached, "public names only module tests reach: " + ", ".join(unreached)


def _named(node):
    """The name an annotation or callee spells: x, m.x or 'x'."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _records(package=PACKAGE):
    """{record: (file, {field: declaration line})} of each dataclass and
    NamedTuple in the package."""
    records = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and {"dataclass", "NamedTuple"} & {
                    _named(d.func if isinstance(d, ast.Call) else d)
                    for d in node.decorator_list + node.bases}:
                records[node.name] = (path, {s.target.id: s.lineno for s in node.body
                                             if isinstance(s, ast.AnnAssign)})
    return records


def _returned(annotation, records):
    """The record a return annotation names, (record,) for tuple[record],
    else None."""
    if (isinstance(annotation, ast.Subscript) and _named(annotation.value) == "tuple"
            and _named(annotation.slice) in records):
        return (_named(annotation.slice),)
    return _named(annotation) if _named(annotation) in records else None


def _returns(package, records):
    """{function or method: record or (record,)} where the return annotation
    names a record or a 1-tuple of one."""
    return {node.name: kind
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef) and (kind := _returned(node.returns, records))}


def _scope_nodes(scope):
    """The nodes of one scope: nested functions are yielded, not entered."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.Lambda)):
            yield from _scope_nodes(child)


def _field_reads(tree, records, returns):
    """(record, field) of each attribute load and whole-record unpacking in
    tree.  The record is the receiver's, known from a parameter annotation,
    the first parameter of a record's method, or an assignment from a
    constructor or from a call whose return annotation names a record (a
    name assigned two ways is unknown); None when unknown.  (x,) = f() on a
    callee annotated tuple[record] binds x to the record and reads no field."""
    methods = {id(f): c.name for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef) and c.name in records for f in c.body}
    reads = []

    def visit(scope, env):
        env = dict(env)
        if not isinstance(scope, ast.Module):
            args = scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs
            for a in args:
                env[a.arg] = _named(a.annotation) if _named(a.annotation) in records else None
            if id(scope) in methods and args:
                env[args[0].arg] = methods[id(scope)]
        nodes = list(_scope_nodes(scope))

        def type_of(node):
            if isinstance(node, ast.Name):
                return env.get(node.id)
            if isinstance(node, ast.Call):
                callee = _named(node.func)
                return callee if callee in records else returns.get(callee)
            return None

        assigned = {}
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    kind = type_of(node.value)
                    if (isinstance(target, (ast.Tuple, ast.List)) and len(target.elts) == 1
                            and isinstance(kind, tuple)):
                        target, kind = target.elts[0], kind[0]
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, set()).add(kind)
                        known = assigned[target.id]
                        env[target.id] = next(iter(known)) if len(known) == 1 else None
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((type_of(node.value), node.attr))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, (ast.Tuple, ast.List)) for t in node.targets):
                rec = type_of(node.value)
                reads.extend((rec, f) for f in records.get(rec, (None, {}))[1])
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                visit(node, env)

    visit(tree, {})
    return reads


def _unread_fields(package=PACKAGE):
    """'file:line Record.field' of each record field that no product path
    reads."""
    records = _records(package)
    returns = _returns(package, records)
    reads = []
    for path in _corpus_files(package):
        reads += _field_reads(ast.parse(path.read_text(encoding="utf-8")), records, returns)
    # the README's x.field mentions are reads whose receiver is unknown
    reads += [(None, m) for m in re.findall(r"\w\.(\w+)", README.read_text(encoding="utf-8"))]
    owners = {}
    for rec, (_, fields) in records.items():
        for f in fields:
            owners.setdefault(f, []).append(rec)
    read = set()
    for rec, f in reads:
        if rec in records:
            read.add((rec, f))
        elif len(owners.get(f, ())) == 1:  # a shared name read unresolved counts for neither
            read.add((owners[f][0], f))
    return [f"{path.name}:{line} {rec}.{f}"
            for rec, (path, fields) in records.items() for f, line in fields.items()
            if (rec, f) not in read]


def test_no_test_only_record_fields():
    unread = _unread_fields()
    assert not unread, "record fields only module tests read: " + ", ".join(unread)


@pytest.mark.parametrize("module, record, field", [
    pytest.param("fractal", "CoverSumResult", "planted", id="planted"),
    # a name another record's field shares (DimensionBound.value, read as bound.value)
    pytest.param("fractal", "CoverSumResult", "value", id="value"),
    # run_dio binds the record by (witness,) = point_type_check(...), which
    # reads no field: only witness.mu and the like do
    pytest.param("diophantine", "DiophantineWitness", "planted", id="witness-planted"),
])
def test_field_census_sees_a_planted_field(tmp_path, module, record, field):
    # a field no product path reads fails the census
    package = tmp_path / "homodyn"
    shutil.copytree(PACKAGE, package)
    path = package / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    declared = f"class {record}:\n"
    assert source.count(declared) == 1
    path.write_text(source.replace(declared, declared + f"    {field}: float\n"), encoding="utf-8")
    assert [u.split()[1] for u in _unread_fields(package)] == [f"{record}.{field}"]


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
