"""Public-API hygiene: exports resolve, docstrings exist, README works."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_readme_quickstart_snippet():
    from repro import MultiCycleDetector
    from repro.circuit.library import fig1_circuit

    result = MultiCycleDetector(fig1_circuit()).run()
    assert result.connected_pairs == 9
    assert len(result.multi_cycle_pair_names()) == 5


def _walk_modules():
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        if module_info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        yield module_info.name


def test_every_module_imports_and_has_docstring():
    for name in _walk_modules():
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} is missing a module docstring"


def test_every_public_callable_documented():
    """Public functions/classes of every module carry docstrings."""
    import inspect

    missing = []
    for name in _walk_modules():
        module = importlib.import_module(name)
        for attr_name, attr in vars(module).items():
            if attr_name.startswith("_"):
                continue
            if getattr(attr, "__module__", None) != name:
                continue
            if inspect.isclass(attr) or inspect.isfunction(attr):
                if not attr.__doc__:
                    missing.append(f"{name}.{attr_name}")
    assert not missing, f"undocumented public items: {missing}"


def test_version_string():
    assert repro.__version__.count(".") == 2


# --- module reachability ---------------------------------------------------

#: src modules that no command or public API reaches, kept only because a
#: named experiment in EXPERIMENTS.md runs them: module -> experiment id.
EXPERIMENT_ONLY = {"repro.atpg.transition": "X4"}

_REPO = Path(__file__).resolve().parents[1]
_SRC = _REPO / "src"


def _src_modules() -> dict[str, Path]:
    modules = {}
    for path in (_SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(_SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _imported_modules(path: Path, package: str, known) -> set[str]:
    """``repro.*`` modules a file imports anywhere, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module or ""
            found.add(target)
            found.update(f"{target}.{alias.name}" for alias in node.names)
    # Importing a module imports every package above it.
    closed = set()
    for name in found:
        parts = name.split(".")
        closed.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return {name for name in closed if name in known}


def _reach(roots, modules) -> set[str]:
    seen: set[str] = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        path = modules[name]
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        stack.extend(_imported_modules(path, package, modules) - seen)
    return seen


def _experiment_section(experiment: str) -> str:
    text = (_REPO / "EXPERIMENTS.md").read_text()
    match = re.search(rf"^## [^\n]*\b{re.escape(experiment)}\b[^\n]*\n(.*?)(?=^## |\Z)",
                      text, re.M | re.S)
    assert match, f"EXPERIMENTS.md has no {experiment} row"
    return match.group(1)


def test_every_src_module_is_reached():
    """Every src module is reached from the CLI or the public API, or runs
    in an experiment that EXPERIMENTS.md names (and that experiment's bench
    file really imports it)."""
    modules = _src_modules()
    reached = _reach(["repro", "repro.cli", "repro.__main__"], modules)
    orphans = sorted(set(modules) - reached - set(EXPERIMENT_ONLY))
    assert not orphans, f"src modules nothing reaches: {orphans}"
    for module, experiment in EXPERIMENT_ONLY.items():
        assert module in modules, f"{module} no longer exists"
        assert module not in reached, f"{module} is reached; drop it from the map"
        benches = re.findall(r"benchmarks/bench_\w+\.py", _experiment_section(experiment))
        assert benches, f"the {experiment} row names no bench file"
        importers = [
            bench for bench in benches
            if module in _imported_modules(_REPO / bench, "", modules)
        ]
        assert importers, f"{module}: no bench file of {experiment} imports it"
