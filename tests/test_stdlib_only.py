"""The package stays pure standard library: every module it imports is its
own or ships with Python, ``kernel`` imports no module of the package (so
imports go from ``constants`` to ``kernel``, never back), every name a
module imports is used there and bound nowhere else in it, every private
module-level name is read somewhere in the package, no module memoizes with
``functools``' caches, one function refuses the term cap, one function,
``constants._subset_sum``, walks the kernel (``kernel._walk``), one method,
``constants._Run.get``, constructs the run's ``ProcessPoolExecutor``, one
function, ``constants._deal``, maps work on it (a sum's classes and a
criterion's whole sums alike), two functions write the run's one memo
(``constants._in_run`` and ``constants._prewalk``), no module but
``constants`` names the open run, its memo or ``_in_run``, one function,
``constants._processes``, reads the CPU count, one function,
``weylpoly.make_dim_poly``, packs roots into factors (``_pack_roots``), and
no module writes a float literal or reads ``float``."""

import ast
import pathlib
import sys

import orbitconst

PACKAGE = pathlib.Path(orbitconst.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _imported_modules(tree):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _unused_imports(tree):
    """Names an import binds in one source file that the file never reads."""
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def _private_definitions(tree):
    """Module-level names with one leading underscore a source file binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from (n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Store))


def _reads(tree):
    """Names a source file reads, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_package_imports_only_the_standard_library():
    assert len(SOURCES) >= 8
    foreign = {(path.name, name) for path in SOURCES
               for name in _imported_modules(_tree(path))
               if name != "orbitconst" and name not in sys.stdlib_module_names}
    assert foreign == set()


def _package_imports(tree):
    """Modules of the package one source file imports, relatively or by
    name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names
                        if alias.name.split(".")[0] == "orbitconst")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "orbitconst"):
            yield "." * node.level + (node.module or "")


def test_the_kernel_imports_nothing_of_the_package():
    # constants imports the kernel to plan and walk each sum; an import back
    # would make the two modules import each other
    assert list(_package_imports(_tree(PACKAGE / "kernel.py"))) == []
    assert ".kernel" in _package_imports(_tree(PACKAGE / "constants.py"))


def test_every_imported_name_is_used():
    # __init__ imports to re-export, so it is the one module exempt
    unused = {(path.name, name) for path in SOURCES
              if path.name != "__init__.py"
              for name in _unused_imports(_tree(path))}
    assert unused == set()


def _imports_bound_again(tree):
    """Names one source file imports at module level and also binds, as a
    variable or a parameter."""
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    bound = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    return imported & (bound | {node.arg for node in ast.walk(tree)
                                if isinstance(node, ast.arg)})


def test_no_module_binds_a_name_it_imports():
    # CPython 3.11 compiles ``x.get(k)`` without its method-call fast path
    # wherever the module imports a name ``x``, even where ``x`` is a
    # local: an imported helper named ``pairs`` slowed the kernel's leaf,
    # whose ``pairs.get`` then built a bound method per call, by 4-5% on
    # heavy-generic's sums
    bound = {(path.name, name) for path in SOURCES
             for name in _imports_bound_again(_tree(path))}
    assert bound == set()


def test_every_private_module_name_is_read():
    trees = {path.name: _tree(path) for path in SOURCES}
    read = {name for tree in trees.values() for name in _reads(tree)}
    dead = {(module, name) for module, tree in trees.items()
            for name in _private_definitions(tree)
            if name.startswith("_") and not name.startswith("__")
            and name not in read}
    assert dead == set()


def _functools_caches(tree):
    """``lru_cache`` or ``cache`` taken from ``functools`` in one source file,
    imported by name or reached as an attribute."""
    caches = {"lru_cache", "cache"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (a.name for a in node.names if a.name in caches)
        elif (isinstance(node, ast.Attribute) and node.attr in caches
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            yield node.attr


def test_no_module_memoizes_with_functools():
    # evaluations and sums are memoized in the run a worker_pool() block
    # opens, and nowhere that outlives it
    cached = {(path.name, name) for path in SOURCES
              for name in _functools_caches(_tree(path))}
    assert cached == set()


def _cap_refusals(tree):
    """Functions of one source file that ``raise TermCapExceeded(...)``,
    by name or as an attribute; a nested raise names each enclosing one."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if (isinstance(node, ast.Raise)
                        and isinstance(node.exc, ast.Call)
                        and "TermCapExceeded" in (
                            getattr(node.exc.func, "id", None),
                            getattr(node.exc.func, "attr", None))):
                    yield func.name


def test_the_term_cap_is_refused_in_one_place():
    # the set-up the kernel and the pruned walk share decides the refusal;
    # a second copy could drift from it
    refusals = [(path.name, name) for path in SOURCES
                for name in _cap_refusals(_tree(path))]
    assert refusals == [("constants.py", "_prepare_enumeration")]


def _readers(tree, name):
    """Module-level functions and classes of one source file that read
    ``name``, as a name or an attribute; "<module>" for a read outside them."""
    for node in tree.body:
        if any((isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                and n.id == name)
               or (isinstance(n, ast.Attribute) and n.attr == name)
               for n in ast.walk(node)):
            yield getattr(node, "name", "<module>")


def test_the_kernel_is_walked_in_one_place():
    # the function that decides whether a sum is dealt to workers walks it;
    # a second caller of the walk could split a sum by another rule
    readers = [(path.name, name) for path in SOURCES
               for name in _readers(_tree(path), "_walk")]
    assert readers == [("constants.py", "_subset_sum")]


def _calls(tree, name, methods_only=False):
    """Functions of one source file that call ``name(...)``, by name (unless
    ``methods_only``) or as an attribute, each named with its enclosing
    classes, as ``_Run.get``; "<module>" for a call outside them."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope += (node.name,)
        elif isinstance(node, ast.Call) and name in (
                None if methods_only else getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            yield ".".join(scope) or "<module>"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    yield from visit(tree, ())


def test_the_executor_is_constructed_in_one_place():
    # a run starts at most one executor, and every pooled sum shares it; a
    # second construction could start another beside it
    starts = [(path.name, name) for path in SOURCES
              for name in _calls(_tree(path), "ProcessPoolExecutor")]
    assert starts == [("constants.py", "_Run.get")]


def test_the_run_executor_is_mapped_in_one_place():
    # a sum's classes and a criterion's whole sums are dealt by one rule; a
    # second map could deal work by a rule of its own
    maps = [(path.name, name) for path in SOURCES
            for name in _calls(_tree(path), "map", methods_only=True)]
    assert maps == [("constants.py", "_deal")]


def test_the_process_count_is_decided_in_one_place():
    # the sums and the batch take min(workers, CPUs) from one helper, which
    # counts the CPUs this process may run on where it can
    reads = [(path.name, call, name) for path in SOURCES
             for call in ("sched_getaffinity", "cpu_count")
             for name in _calls(_tree(path), call)]
    assert reads == [("constants.py", "sched_getaffinity", "_processes"),
                     ("constants.py", "cpu_count", "_processes")]


def _memo_writes(tree):
    """Functions of one source file that store into ``<x>.memo[...]`` or call
    a method of ``<x>.memo`` that changes it, named as ``_calls`` names
    them."""
    changes = {"update", "setdefault", "pop", "popitem", "clear"}

    def is_memo(node):
        return isinstance(node, ast.Attribute) and node.attr == "memo"

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope += (node.name,)
        elif ((isinstance(node, ast.Subscript) and is_memo(node.value)
               and isinstance(node.ctx, (ast.Store, ast.Del)))
              or (isinstance(node, ast.Attribute) and node.attr in changes
                  and is_memo(node.value))):
            yield ".".join(scope) or "<module>"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    yield from visit(tree, ())


def test_the_run_memo_is_written_in_two_places():
    # every memoized value goes in through one helper, and a batch's sums,
    # under the keys that helper reads, in the other; a third writer could
    # file a value under a key no reader builds
    writes = [(path.name, name) for path in SOURCES
              for name in _memo_writes(_tree(path))]
    assert writes == [("constants.py", "_in_run"),
                      ("constants.py", "_prewalk")]


def test_the_run_is_named_only_in_constants():
    # one module decides what the run holds, under which key and how it is
    # dealt; a module that read the open run or its memo, or filed a value
    # through ``_in_run``, could skip or file a value by a key of its own
    named = {(path.name, node.id if isinstance(node, ast.Name) else node.attr)
             for path in SOURCES for node in ast.walk(_tree(path))
             if (isinstance(node, ast.Name)
                 and node.id in ("_open_run", "_in_run"))
             or (isinstance(node, ast.Attribute)
                 and node.attr in ("_open_run", "_in_run", "memo"))}
    assert named == {("constants.py", "_open_run"), ("constants.py", "memo"),
                     ("constants.py", "_in_run")}


def test_roots_are_packed_in_one_place():
    # a dimension polynomial carries its packed factors, and the kernel and
    # the evaluation read them from it; a second packing could drift
    packs = [(path.name, name) for path in SOURCES
             for name in _calls(_tree(path), "_pack_roots")]
    assert packs == [("weylpoly.py", "make_dim_poly")]


def _floats(tree):
    """Float literals, and reads of the name ``float``, in one source file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield repr(node.value)
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id == "float"):
            yield "float"


def test_no_module_uses_a_float():
    # arithmetic is exact everywhere: integers and Fractions, no tolerances
    floats = [(path.name, found) for path in SOURCES
              for found in _floats(_tree(path))]
    assert floats == []
