"""The public surface: what the benchmark's tracer, its tests and the README
rely on still exists after a refactor, and the input guards raise."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import satloc
from helpers import at, cl, tm
from satloc.entailment import ground_sat
from satloc.oracle import HerbrandBound
from satloc.orderings import Ordering
from satloc.rewriting import RewriteSystem, reach_clause
from satloc.terms import Var, match_onto, mgu, substitute, vars_in_order

ROOT = Path(__file__).resolve().parent.parent


def satloc_modules() -> dict:
    return {
        info.name: importlib.import_module(f"satloc.{info.name}")
        for info in pkgutil.iter_modules(satloc.__path__)
        if not info.name.startswith("_")  # __main__ runs the CLI on import
    }


def names_imported_from_satloc(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "satloc"
        for alias in node.names
    }


def readme_library_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library", 1)[1].split("\n## ", 1)[0]


def bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_attribute_exists():
    # bench/run.py --trace 1 rebinds each (owner, attribute) pair in place;
    # a missing one makes the traced benchmark fail before it runs
    targets = bench_tracing()._targets(satloc_modules())
    assert targets
    for owner, attr, _, _ in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr)


WORKED = "order: f > g > a\nclause: -> p(g(W,W))\nclause: p(g(X,Y)), q(f(Y),X) ->\n"
CHAIN = "clause: -> p0(a)\n" + "".join(f"clause: p{i}(X) -> p{i + 1}(X)\n" for i in range(3))


def test_tracer_records_every_layer():
    # a traced function reached by another route (say entailment.subsumes
    # called directly from the saturation loop) would make its layer read
    # zero in bench/run.py --trace 1; run every phase as bench/run.py does,
    # through the module objects.  WORKED settles no conclusion by
    # subsumption and CHAIN runs no local proof; g_horn_07's saturate does
    # both (test_saturate_and_verify_call_the_traced_names).
    horn = (ROOT / "tests" / "corpus" / "g_horn_07.p").read_text(encoding="utf-8")
    tracing = bench_tracing()
    m = satloc_modules()
    par, sat = m["parsing"], m["saturation"]
    tracer = tracing.Tracer()
    installation = tracing.Installation(tracer, m)
    installation.install()
    tracer.phase = "run"
    try:
        for text, query in ((WORKED, "q(f(a),a) ->"), (CHAIN, "-> p3(a)"), (horn, "-> p(f(b))")):
            problem = par.parse_problem(text)
            state = sat.saturate(problem.ordering, problem.clauses)
            state = par.parse_state(par.serialize_state(state))
            assert sat.verify_saturated(state.ordering, state.clauses, state.rules).ok
            goal = par.parse_clause_text(query, m["cli"].state_signature(state))
            assert m["query"].entails(state, goal).verdict == "entailed"
    finally:
        tracer.phase = None
        installation.uninstall()
    layers = {layer for _, _, layer, _ in tracing._targets(m)}
    missing = sorted(layer for layer in layers if f"run.{layer}_s" not in tracer.totals)
    assert not missing, missing


def unused_sibling_imports(path: Path, used_elsewhere=()) -> list[str]:
    """The names a module imports from a sibling module (from .x import y)
    and never reads, except those in used_elsewhere."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= set(used_elsewhere)
    return [
        f"{path.name}: {alias.asname or alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if (alias.asname or alias.name) not in read
    ]


def test_src_imports_are_used():
    # an import left behind when code moves to another module or to the
    # tests reads as a dependency that is not there; __init__ re-exports
    # through __all__, and saturation imports a_priori_factors for the
    # benchmark's tracer alone
    used_elsewhere = {"__init__.py": satloc.__all__, "saturation.py": ["a_priori_factors"]}
    unused = [
        name
        for path in sorted((ROOT / "src" / "satloc").glob("*.py"))
        for name in unused_sibling_imports(path, used_elsewhere.get(path.name, ()))
    ]
    assert not unused, unused


def src_definitions(tree: ast.Module) -> list[str]:
    """The module-level functions and classes of a module, and the methods
    of its classes but the dunder ones."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            ]
    return out


def names_read(tree: ast.AST) -> set[str]:
    """Every name a module reads: names, attributes, imported names, and
    strings that are identifiers (the benchmark's tracer names its targets
    in strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def test_src_definitions_are_read():
    # a function left behind when its last caller goes reads as code that
    # runs; only the public surface may be defined and not read in src/
    # or the benchmark
    src = [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "src" / "satloc").glob("*.py")]
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "bench").glob("*.py")]
    defined = [name for tree in src for name in src_definitions(tree)]
    read = set(satloc.__all__).union(*map(names_read, src + bench))
    assert len(defined) > 100, len(defined)
    unread = sorted(set(defined) - read)
    assert not unread, unread


def self_calls(tree: ast.Module) -> list[str]:
    """The functions, nested ones and methods included, that call
    themselves by their bare name or as self.<their name>."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            by_name = isinstance(f, ast.Name) and f.id == fn.name
            by_self = (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
            )
            if by_name or by_self:
                out.append(fn.name)
                break
    return out


def test_no_src_function_calls_itself():
    # a recursive function takes a frame per level of its input, so a deep
    # term or a wide clause would meet the interpreter's recursion limit;
    # every walk in src/ is a loop
    found = [
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "satloc").glob("*.py"))
        for name in self_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, found


def test_every_exported_name_resolves():
    assert len(set(satloc.__all__)) == len(satloc.__all__)
    for name in satloc.__all__:
        assert getattr(satloc, name, None) is not None, name


def test_bench_tests_and_readme_import_exported_names():
    bench_tests = (ROOT / "bench" / "test_bench.py").read_text(encoding="utf-8")
    used = names_imported_from_satloc(bench_tests)
    (example,) = re.findall(r"```python\n(.*?)```", readme_library_section(), re.S)
    used |= names_imported_from_satloc(example)
    assert used and used <= set(satloc.__all__), sorted(used - set(satloc.__all__))


def test_readme_lists_every_exported_name():
    section = readme_library_section()
    missing = [name for name in satloc.__all__ if f"`{name}`" not in section]
    assert not missing, missing


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ground_sat([cl("-> p(X)")]), ValueError),
        (lambda: reach_clause(RewriteSystem(), cl("p(a) -> q(X)")), ValueError),
        (lambda: HerbrandBound(-1), ValueError),
        (lambda: Ordering(["f", "#1"]), ValueError),
        (lambda: vars_in_order([Var("X")]), TypeError),
        (lambda: substitute({}, "p(X)"), TypeError),
        (lambda: mgu(at("p(X)"), tm("a")), TypeError),
        (lambda: match_onto(tm("X"), at("p(a)")), TypeError),
    ],
    ids=[
        "ground_sat-non-ground",
        "reach_clause-non-ground",
        "herbrand-negative-depth",
        "ordering-frozen-name",
        "vars_in_order-list",
        "substitute-string",
        "mgu-atom-term",
        "match_onto-term-atom",
    ],
)
def test_input_guards_raise(call, error):
    with pytest.raises(error):
        call()
