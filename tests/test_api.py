"""The public surface: what the benchmark's tracer, its tests and the README
rely on still exists after a refactor."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import satloc

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


def test_every_traced_attribute_exists():
    # bench/run.py --trace 1 rebinds each (owner, attribute) pair in place;
    # a missing one makes the traced benchmark fail before it runs
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets(satloc_modules())
    assert targets
    for owner, attr, _, _ in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr)


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
