"""No module imports a name it never uses, no frozen object is written to
after it is built, no package function but two keeps a module-level
cache, no package definition goes unnamed outside the tests, and no
record field goes unread.

A pure-stdlib AST scan (read only) of the package, the tests and the
benchmark: every name an import binds must be referenced elsewhere in the
same file.  `from __future__` imports are exempt, and so are the package
`__init__.py` files, whose imports are their public re-exports.  In the
package, `object.__setattr__` may appear only inside a `__post_init__`,
where a frozen dataclass finishes building itself.  Only
`norms.calculator`, which `calculator.cache_clear()` empties, and
`freegroup.word_tree`, which depends on nothing but (rank, horizon), may
carry `functools.lru_cache` or `functools.cache`.  Any other such cache
would outlive `calculator.cache_clear()`, from which every benchmark
operation starts as a fresh CLI process would, so a later pass would run a
different program from the first.  Every function, method and class the
package defines must be named somewhere in the package or the benchmark,
other than by its own definition or in a docstring: as a name, an
attribute, an imported name or an identifier inside a string (the
benchmark's tracer names its layers in strings).  A name used only by the
tests does not count, so code that only the tests run lives in the tests
(reference code in oracles.py).  Dunder methods are called by the language
and are exempt.  Every field of a package `@dataclass` or `NamedTuple`
must be read as an attribute (`x.field`, loaded, not stored) somewhere in
the package or the benchmark: a field that is only written is a value
nobody uses.  The same holds for every attribute a package `__post_init__`
sets through `object.__setattr__`, the memos and tables a frozen object
keeps beside its fields included.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "perfbench")
               for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """[(line, name)] of the imported names that are never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_finds_unused_imports():
    source = "import os.path\nimport sys\nfrom a import b, c as d\nsys.exit(d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "imported but unused:\n" + "\n".join(found)


def _is_object_setattr(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object")


def setattr_outside_post_init(source):
    """Lines of the object.__setattr__ calls not inside a __post_init__."""
    tree = ast.parse(source)
    allowed = {id(n) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
               for n in ast.walk(f)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if _is_object_setattr(n) and id(n) not in allowed)


def test_scanner_finds_setattr_outside_post_init():
    source = ("class A:\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'x', 1)\n"
              "def f(a):\n"
              "    object.__setattr__(a, 'y', 2)\n")
    assert setattr_outside_post_init(source) == [5]


def test_no_setattr_outside_post_init():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in FILES if path.is_relative_to(ROOT / "src")
             for line in setattr_outside_post_init(path.read_text(encoding="utf-8"))]
    assert not found, "object.__setattr__ outside __post_init__:\n" + "\n".join(found)


CACHED_FUNCTIONS = {("freegroup", "word_tree"), ("norms", "calculator")}


def cached_functions(source):
    """[(line, name)] of the functions decorated with lru_cache or cache,
    bare or as attributes of functools, called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(
                target, "id", None)
            if name in ("lru_cache", "cache"):
                found.append((node.lineno, node.name))
    return sorted(found)


def test_scanner_finds_cached_functions():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@functools.lru_cache(maxsize=8)\n"
              "def a(): pass\n"
              "@functools.cache\n"
              "def b(): pass\n"
              "class C:\n"
              "    @lru_cache\n"
              "    def c(self): pass\n"
              "@cache\n"
              "def d(): pass\n"
              "@functools.wraps(a)\n"
              "def e(): pass\n")
    assert cached_functions(source) == [(4, "a"), (6, "b"), (9, "c"), (11, "d")]


def test_no_module_level_caches_but_the_cleared_ones():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES if path.is_relative_to(ROOT / "src")
             for line, name in cached_functions(path.read_text(encoding="utf-8"))
             if (path.stem, name) not in CACHED_FUNCTIONS]
    assert not found, "module-level cache on a package function:\n" + "\n".join(found)


IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def named_identifiers(source):
    """The identifiers a source names: its names, attributes and imported
    names, and the identifiers inside its strings but for docstrings."""
    tree = ast.parse(source)
    docstrings = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.update(IDENTIFIER.findall(n.name))
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in docstrings):
            found.update(IDENTIFIER.findall(n.value))
    return found


def dead_definitions(defining, sources):
    """[(path, line, name)] of the functions, methods and classes defined in
    the {path: source} of defining that no source of sources names; dunder
    methods are exempt."""
    used = set().union(*map(named_identifiers, sources))
    return sorted((path, n.lineno, n.name) for path, source in defining.items()
                  for n in ast.walk(ast.parse(source))
                  if isinstance(n, DEFINITIONS) and n.name not in used
                  and not (n.name.startswith("__") and n.name.endswith("__")))


def test_scanner_finds_dead_definitions():
    defining = ("class A:\n"
                "    def __init__(self): pass\n"
                "    def used(self): pass\n"
                "    def traced(self): pass\n"
                "    def documented(self):\n"
                "        'named only in a docstring, as documented'\n"
                "def imported(): pass\n"
                "def unused(): pass\n"
                "class B: pass\n")
    referencing = ("from m import imported\n"
                   "A().used()\n"
                   "LAYERS = {'m': ['A.traced']}\n")
    assert dead_definitions({"m.py": defining}, [defining, referencing]) == [
        ("m.py", 5, "documented"), ("m.py", 8, "unused"), ("m.py", 9, "B")]


def test_no_dead_definitions():
    everything = sorted(p for d in ("src", "perfbench")
                        for p in (ROOT / d).rglob("*.py"))
    defining = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
                for p in everything if p.is_relative_to(ROOT / "src")}
    found = [f"{path}:{line}: {name}" for path, line, name in dead_definitions(
        defining, [p.read_text(encoding="utf-8") for p in everything])]
    assert not found, "defined but never named:\n" + "\n".join(found)


def record_fields(source):
    """[(line, class, field)] of the annotated fields of the @dataclass and
    NamedTuple classes a source defines."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if not isinstance(n, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d for d in n.decorator_list]
        marks += n.bases
        if not {getattr(d, "id", getattr(d, "attr", None)) for d in marks} & {
                "dataclass", "NamedTuple"}:
            continue
        found += [(stmt.lineno, n.name, stmt.target.id) for stmt in n.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return found


def attribute_reads(source):
    """The attribute names a source reads (loads, not stores)."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_scanner_finds_record_fields_and_reads():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\n"
              "class A:\n"
              "    x: int\n"
              "    y: int = 0\n"
              "    Z = 1\n"
              "class B(typing.NamedTuple):\n"
              "    w: tuple\n"
              "class C:\n"
              "    v: int\n"
              "a.x = a.y\n")
    assert record_fields(source) == [(4, "A", "x"), (5, "A", "y"), (8, "B", "w")]
    assert attribute_reads(source) == {"NamedTuple", "y"}


def test_no_unread_fields():
    everything = sorted(p for d in ("src", "perfbench")
                        for p in (ROOT / d).rglob("*.py"))
    sources = {p: p.read_text(encoding="utf-8") for p in everything}
    read = set().union(*map(attribute_reads, sources.values()))
    found = [f"{path.relative_to(ROOT)}:{line}: {cls}.{field}"
             for path, source in sources.items() if path.is_relative_to(ROOT / "src")
             for line, cls, field in record_fields(source) if field not in read]
    assert not found, "record field never read:\n" + "\n".join(found)


def post_init_attributes(source):
    """[(line, name)] of the attributes a __post_init__ sets through
    object.__setattr__ with a constant name."""
    return sorted((n.lineno, n.args[1].value)
                  for f in ast.walk(ast.parse(source))
                  if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                  for n in ast.walk(f)
                  if _is_object_setattr(n) and len(n.args) > 1
                  and isinstance(n.args[1], ast.Constant))


def test_scanner_finds_post_init_attributes():
    source = ("class A:\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'names', 1)\n"
              "        if self.flag:\n"
              "            object.__setattr__(self, '_memo', {})\n"
              "    def f(self):\n"
              "        object.__setattr__(self, '_late', 0)\n"
              "        return self._memo\n")
    assert post_init_attributes(source) == [(3, "names"), (5, "_memo")]
    assert {name for _, name in post_init_attributes(source)} - attribute_reads(
        source) == {"names"}


def test_no_unread_post_init_attributes():
    everything = sorted(p for d in ("src", "perfbench")
                        for p in (ROOT / d).rglob("*.py"))
    sources = {p: p.read_text(encoding="utf-8") for p in everything}
    read = set().union(*map(attribute_reads, sources.values()))
    set_here = [(path, line, name) for path, source in sources.items()
                if path.is_relative_to(ROOT / "src")
                for line, name in post_init_attributes(source)]
    assert {"_translates", "_stab_sets", "_orbit_table", "_scans", "_forests",
            "_blowups"} <= {name for _, _, name in set_here}
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path, line, name in set_here if name not in read]
    assert not found, "set in __post_init__ but never read:\n" + "\n".join(found)
