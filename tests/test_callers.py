"""Every top-level name of the package has a use in the package or its
scripts.

Each top-level function, class and assignment of a module in src/hecsim,
and each name a module imports, must be read in src/hecsim or scripts/
outside its own statement: in its module, or in a file that imports it
from there, or as an attribute of its module. Uses in tests and perfbench
do not count, so code kept only for them shows. ALLOWED names each
exception and why it stays.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

ALLOWED = {
    ("hecsim", "__version__"): "the package's public version string",
    ("hecsim.mesh", "topic_matches"):
        "perfbench's mesh-storm job counts the deliveries it expects with it",
    ("hecsim.harness", "detect_stream"):
        "not called; perfbench's tracer wraps this binding",
    ("hecsim.harness", "synth_rumble_stream"):
        "not called; perfbench's tracer wraps this binding",
    ("hecsim.detection", "compute_stft"):
        "not called; perfbench's tracer wraps this binding",
}


def _bound(stmt) -> set:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target]
        return {n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    if isinstance(stmt, ast.Import):
        return {a.asname or a.name.split(".")[0] for a in stmt.names}
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return {a.asname or a.name for a in stmt.names}
    return set()


def _imports(tree, module: str):
    """local name -> (module, name) of each `from ... import` of a package
    name in a file; module is the importing module's dotted name."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:  # relative to the importing module's package
                package = module.rsplit(".", node.level)[0]
                source = f"{package}.{source}" if source else package
            for alias in node.names:
                if f"{source}.{alias.name}".startswith("hecsim."):
                    found[alias.asname or alias.name] = (source, alias.name)
    return found


def unused(modules: dict, scripts: dict) -> set:
    """(module, name) of each top-level binding of the modules, given as
    dotted name -> source, that no module or script (name -> source) reads
    outside the statement that binds it."""
    trees = {**{m: ast.parse(src) for m, src in modules.items()},
             **{f"script {s}": ast.parse(src) for s, src in scripts.items()}}
    reads = {}  # file -> {name: lines of its reads}
    attrs = set()  # (file, object name, attribute)
    imported = {}  # (module, name or None) -> {(file, local name)}
    for file, tree in trees.items():
        mine = reads.setdefault(file, {})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                mine.setdefault(node.id, []).append(node.lineno)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name):
                attrs.add((file, node.value.id, node.attr))
        for local, (source, name) in _imports(tree, file).items():
            imported.setdefault((source, name), set()).add((file, local))
            # in `from hecsim import mesh`, the name is a module
            imported.setdefault((f"{source}.{name}", None), set()).add(
                (file, local))

    missing = set()
    for module in modules:
        for stmt in trees[module].body:
            own = range(stmt.lineno, stmt.end_lineno + 1)
            for name in _bound(stmt):
                here = any(line not in own
                           for line in reads[module].get(name, ()))
                elsewhere = any(
                    local in reads[file]
                    for file, local in imported.get((module, name), ()))
                by_module = any(
                    (file, local, name) in attrs
                    for file, local in imported.get((module, None), ()))
                if not (here or elsewhere or by_module):
                    missing.add((module, name))
    return missing


def package_sources():
    modules = {}
    for path in sorted((REPO / "src/hecsim").glob("*.py")):
        name = "hecsim" if path.stem == "__init__" else f"hecsim.{path.stem}"
        modules[name] = path.read_text(encoding="utf-8")
    scripts = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((REPO / "scripts").glob("*.py"))}
    return modules, scripts


def test_every_top_level_name_has_a_use_in_the_package_or_scripts():
    assert unused(*package_sources()) == set(ALLOWED)


def test_an_uncalled_function_is_reported():
    modules, scripts = package_sources()
    modules["hecsim.mesh"] += "\n\ndef orphan():\n    return orphan\n"
    assert unused(modules, scripts) - set(ALLOWED) == {("hecsim.mesh",
                                                        "orphan")}


def test_uses_count_through_imports_and_module_attributes():
    modules = {
        "hecsim": "",
        "hecsim.a": "import math\nA = 1\nB = 2\nC = 3\nD = 4\n"
                    "def f():\n    return math.pi\n",
        "hecsim.b": "from .a import A, f\nfrom . import a\nX = a.B\n"
                    "from .a import C\nf()\nprint(A, X)\n",
    }
    scripts = {"s.py": "from hecsim.a import D as d\nd\n"}
    # C is imported but never read, so both its binding in a and its import
    # in b are unused
    assert unused(modules, scripts) == {("hecsim.a", "C"), ("hecsim.b", "C")}
