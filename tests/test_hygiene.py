"""Source hygiene: the package's checks survive ``python -O``, its
refusals use the package's own error types, one gate raises every cap
refusal, it imports only the standard library, it keeps no unused import,
no private definition without a caller, no public name without a reader
and no unbounded cache, the test oracles
use none of its search kernels and each has a reader, every function the
benchmark's tracer wraps exists, the benchmark's separator oracle reads only
what WeightFn has, and every dataclass field has a reader."""

from __future__ import annotations

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import treealpha

SOURCES = sorted(Path(treealpha.__file__).resolve().parent.glob("*.py"))
BUILTIN_RAISES = {"ValueError", "TypeError", "KeyError", "IndexError"}
ORACLES = Path(__file__).resolve().parent / "oracles.py"
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").rglob("*.py"))
SEARCH_KERNELS = {"_max_weight_stable", "_subset_tree_alpha", "_backtrack_induced",
                  "_peel_simplicial", "is_chordal", "minimal_triangulations",
                  "_mwis_td", "_stable_subsets"}


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"graphs.py", "patterns.py", "treedecomp.py"}


def test_no_assert_and_no_builtin_raise():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                if _raised_name(node) in BUILTIN_RAISES:
                    found.append(f"{path.name}:{node.lineno}: raise {_raised_name(node)}")
    assert found == []


def test_no_environment_reads():
    # every cap and option is a call argument: no source reads the
    # process environment
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [node.attr] if isinstance(node, ast.Attribute) else (
                [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [])
            if {"environ", "environb", "getenv", "getenvb"} & set(names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_caps_is_the_only_cap_gate():
    # caps.enforce alone reads the default caps and raises a cap refusal: no
    # other module names DEFAULT_CAPS or CapExceededError, as a name, an
    # attribute, an import under any alias or a getattr string; errors.py
    # defines the class, which names neither
    found = []
    for path in SOURCES:
        if path.name == "caps.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name for a in node.names}
            elif isinstance(node, ast.Constant):
                names = {node.value}
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            found += [f"{path.name}:{node.lineno}: {name}"
                      for name in names & {"DEFAULT_CAPS", "CapExceededError"}]
    assert found == []


def test_every_cache_is_bounded():
    # every lru_cache names a maxsize, an int or a module constant bound to
    # one, and no source uses functools.cache: an unbounded cache keyed by a
    # call's size keeps what the largest call built for the process's life
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        ints = {t.id: node.value.value for node in tree.body if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            for dec in getattr(node, "decorator_list", ()):
                call = dec if isinstance(dec, ast.Call) else None
                names = _used_names(call.func if call else dec)
                if not names & {"cache", "lru_cache"}:
                    continue
                sizes = [k.value for k in call.keywords if k.arg == "maxsize"] if call else []
                size = (sizes + (call.args if call else []) + [None])[0]
                value = getattr(size, "value", ints.get(getattr(size, "id", None)))
                if "cache" in names or type(value) is not int:
                    found.append(f"{path.name}:{dec.lineno}")
    assert found == []


def _module_trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _name_reads(node: ast.AST) -> Counter:
    """How many times each name is read under node, as a name or an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _used_names(node: ast.AST) -> set[str]:
    """Every name read under node, and every attribute name."""
    return set(_name_reads(node))


def test_imports_only_the_standard_library():
    # the package declares no dependencies (pyproject.toml), so it imports
    # only standard-library modules and its own: networkx, of the test
    # extra, must not leak into it
    found = []
    for name, tree in _module_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found += [f"{name}:{node.lineno}: {root}" for root in roots
                      if root not in sys.stdlib_module_names and root != "treealpha"]
    assert found == []
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert "\ndependencies = []\n" in pyproject


def test_no_unused_imports():
    # __init__.py imports the package's public names in order to export them
    found = []
    for name, tree in _module_trees().items():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = _used_names(tree)
        found += [f"{name}:{line}: {imp}" for imp, line in imported.items() if imp not in used]
    assert found == []


def test_private_definitions_have_callers():
    # a module-level _name function or class is read somewhere in the
    # package outside its own body
    found = []
    trees = _module_trees()
    reads = [(stmt, _used_names(stmt)) for tree in trees.values() for stmt in tree.body]
    for name, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            if not any(node.name in used for stmt, used in reads if stmt is not node):
                found.append(f"{name}:{node.lineno}: {node.name}")
    assert found == []


def test_public_definitions_have_readers():
    # a public function or class, and a public method, is read in the
    # package outside its own body, or named in the tests or their oracles
    trees = _module_trees()
    package_reads = Counter()
    for tree in trees.values():
        package_reads.update(_name_reads(tree))
    named_in_tests = set()
    for path in TESTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        named_in_tests |= _used_names(tree)
        named_in_tests.update(a.name for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom) for a in node.names)
    found = []
    for name, tree in trees.items():
        defs = [(node, "") for node in tree.body]
        defs += [(item, f"{node.name}.") for node in tree.body if isinstance(node, ast.ClassDef)
                 for item in node.body]
        for node, owner in defs:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            outside = package_reads[node.name] - _name_reads(node)[node.name]
            if not outside and node.name not in named_in_tests:
                found.append(f"{name}:{node.lineno}: {owner}{node.name}")
    assert found == []


def test_oracles_use_no_search_kernel():
    # the oracles are what the kernels are checked against, so they import
    # none of them, under any alias, and reach none through a module
    # attribute or a getattr string
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    named = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    assert SEARCH_KERNELS & named == set()


def test_oracles_have_readers():
    # every public function of tests/oracles.py is named in a test module,
    # read by AST, as _traced reads bench/tracing.py
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    named = set()
    for path in TESTS:
        if path.name.startswith("test_"):
            named |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    unread = [f"oracles.py:{node.lineno}: {node.name}" for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in named]
    assert unread == []


def _traced() -> dict[str, tuple[str, ...]]:
    """bench/tracing.TRACED, read from the file, so that no test runs
    anything of bench/."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets))


def test_traced_names_exist():
    # bench/tracing.TRACED maps a package module to the functions the traced
    # run wraps, and Tracer.install fails on a name the module lacks
    traced = _traced()
    assert traced
    missing = [f"{home}.{name}" for home, names in traced.items() for name in names
               if not hasattr(importlib.import_module(f"treealpha.{home}"), name)]
    assert missing == []


def test_tree_alpha_exact_calls_no_traced_function():
    # the traced run wraps each TRACED name wherever a module binds it, so a
    # traced function that tree_alpha_exact reaches would add spans to every
    # traced tree_alpha round, and bench/run.py's per_layer scans the spans
    # once per round. Walk the module-level functions that tree_alpha_exact
    # calls, following the package's own imports. This test can go once
    # that scan is linear in the spans.
    trees = _module_trees()
    defs = {(name, node.name): node for name, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    imported = {name: {a.asname or a.name: f"{node.module}.py" for node in tree.body
                       if isinstance(node, ast.ImportFrom) and node.level == 1
                       for a in node.names}
                for name, tree in trees.items()}
    reached, todo = set(), [("treedecomp.py", "tree_alpha_exact")]
    while todo:
        home, fn = todo.pop()
        for node in ast.walk(defs[(home, fn)]):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            callee = node.func.id
            key = (imported[home].get(callee, home), callee)
            if key in defs and key not in reached:
                reached.add(key)
                todo.append(key)
    names = {fn for _, fn in reached}
    assert {"_subset_tree_alpha", "_reach", "enforce"} <= names  # the walk follows imports
    traced = {fn for fns in _traced().values() for fn in fns}
    assert sorted(names & traced) == []


def test_bench_sep_oracle_reads_only_weightfn_attributes():
    # bench/workloads.Bench.sep_oracle is the benchmark's separator oracle;
    # assemble_td hands it a WeightFn, so every attribute it reads on that
    # argument must exist on the class. Read from the file, as _traced does.
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    bench = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                 and node.name == "Bench")
    oracle = next(node for node in bench.body if isinstance(node, ast.FunctionDef)
                  and node.name == "sep_oracle")
    w = oracle.args.args[2].arg  # after self and the graph
    read = {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == w}
    assert read  # today, weight
    assert sorted(a for a in read if not hasattr(treealpha.WeightFn, a)) == []


def _attribute_reads(node: ast.AST) -> Counter:
    """How many times each attribute name is read under node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_dataclass_fields_have_readers():
    # every field of a package dataclass is read as an attribute outside its
    # own class body, in the package, the tests or the benchmark; the files
    # are read by AST, as _traced does, so nothing of bench/ runs
    reads = Counter()
    for path in SOURCES + TESTS + BENCH:
        reads.update(_attribute_reads(ast.parse(path.read_text(), filename=str(path))))
    fields, found = set(), []
    for name, tree in _module_trees().items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in _used_names(d) for d in cls.decorator_list)):
                continue
            own = _attribute_reads(cls)
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    field = item.target.id
                    fields.add(f"{cls.name}.{field}")
                    if reads[field] == own[field]:
                        found.append(f"{name}:{item.lineno}: {cls.name}.{field}")
    assert {"AssembleResult.td", "LtVerdict.notes", "MWISInstance.weights"} <= fields
    assert found == []
