"""Whole-repository checks: no assert statement, no unused parameter, no
function that only tests call, no private name imported across modules, no
function-level re-import, no environment read, no sampling outside `core`,
no lazily filled dict outside `core` and no unread CLI option in the
package, no subcommand layer loaded at CLI start-up, soundness checks
survive `python -O`, and the demos run."""

import argparse
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hyperramsey

PACKAGE = Path(hyperramsey.__file__).parent
DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so checks must be explicit raises
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []


def test_no_unused_parameters_in_the_package():
    # a parameter its function never names is a setting that does nothing
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found.extend(f"{path.name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({p})"
                         for p in params if p not in ("self", "cls") and p not in named)
    assert found == []


def test_every_package_function_has_a_caller():
    # a module-level function or a method of a package class that nothing in
    # the package (outside its own body), the demos or the benchmark names is
    # called only by tests, and belongs with them; dunders are called by
    # Python, and `cli._Parser.error` overrides argparse's
    def names(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    package = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    others = DEMOS + sorted(p for p in PERFBENCH.rglob("*.py") if "tests" not in p.parts)
    used = sum((names(tree) for tree in package.values()), Counter())
    used += sum((names(ast.parse(p.read_text())) for p in others), Counter())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = [(path, "", fn) for path, tree in package.items() for fn in tree.body if isinstance(fn, functions)]
    defined += [(path, f"{cls.name}.", fn) for path, tree in package.items() for cls in tree.body
                if isinstance(cls, ast.ClassDef) for fn in cls.body
                if isinstance(fn, functions) and not fn.name.startswith("__")
                and (path.name, cls.name, fn.name) != ("cli.py", "_Parser", "error")]
    found = [f"{path.name}:{fn.lineno} {owner}{fn.name}" for path, owner, fn in defined
             if used[fn.name] == names(fn)[fn.name]]
    assert found == []


def test_no_private_names_across_modules():
    # a `_`-prefixed name is private to its module: another package module
    # that needs it needs it public
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hyperramsey")):
                found.extend(f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                             if alias.name.startswith("_"))
    assert found == []


def test_no_unused_imports_in_the_package():
    # an imported name its module never reads is a leftover of deleted code;
    # __init__.py imports to re-export, so it is left out
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno} {name}" for name in names if name not in read)
    assert found == []


def package_modules(node) -> set[str]:
    """The package modules an import statement reads from, by bare name."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names if alias.name.startswith("hyperramsey.")]
        return {name.split(".")[1] for name in dotted}
    if not isinstance(node, ast.ImportFrom) or not (node.level or (node.module or "").startswith("hyperramsey")):
        return set()
    module = (node.module or "").removeprefix("hyperramsey").lstrip(".")
    # `from . import search` reads the modules it names
    return {module.split(".")[0]} if module else {alias.name for alias in node.names}


def test_no_function_level_reimports():
    # an import inside a function from a package module the file already
    # imports at its top redoes the import on every call; a lazy import of
    # a module the file does not import at its top (cli's `.table`) stays
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set().union(*(package_modules(node) for node in tree.body))
        inner = {node for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)}  # a set, so a nested function's import counts once
        found.extend(f"{path.name}:{node.lineno} {module}" for node in inner
                     for module in package_modules(node) & top)
    assert sorted(found) == []


def test_the_package_reads_no_environment():
    # a setting read from the environment is one no caller passes and no
    # test of the call site sees, and a rule that reads the interpreter's
    # stack makes a result depend on where the call is made; `os.path`,
    # `sys.argv` and the like stay allowed
    reads = {"os": {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"},
             "sys": {"_getframe", "getrecursionlimit", "setrecursionlimit"}}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.attr in reads.get(node.value.id, ()):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in reads:
                found.extend(f"{path.name}:{node.lineno} from {node.module} import {alias.name}"
                             for alias in node.names if alias.name in reads[node.module])
    assert found == []


def test_only_core_imports_random():
    # engine output depends on its inputs alone: only `core` samples, for its
    # seeded `TwoColoring.random`, so no seed knob can grow back elsewhere
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.extend(f"{path.name}:{node.lineno} import {alias.name}"
                             for alias in node.names if alias.name.split(".")[0] == "random")
            elif isinstance(node, ast.ImportFrom) and not node.level \
                    and (node.module or "").split(".")[0] == "random":
                found.append(f"{path.name}:{node.lineno} from {node.module} import")
    assert found == []


def test_only_core_defines_a_lazy_dict():
    # a dict that fills itself in on lookup is an index; `core` keeps the one
    # per colouring (`TwoColoring.link`), so no second one can grow elsewhere
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) \
                    and any(isinstance(base, ast.Name) and base.id == "dict" for base in node.bases) \
                    and any(isinstance(fn, ast.FunctionDef) and fn.name == "__missing__" for fn in node.body):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


def test_every_cli_option_is_read():
    # an option or positional whose value nothing reads is a flag or word
    # that does nothing; a read is `args.<dest>` in cli.py or a key string
    # _write_manifest looks up
    from hyperramsey import cli
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    read = {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"}
    manifest = next(fn for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and fn.name == "_write_manifest")
    read |= {n.value for n in ast.walk(manifest) if isinstance(n, ast.Constant)}
    unread = []
    parsers = [cli.build_parser()]
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif not isinstance(action, argparse._HelpAction) and action.dest not in read:
                unread.append(f"{parser.prog} {'/'.join(action.option_strings) or action.dest}")
    assert unread == []


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return env


def test_cli_start_up_imports_no_subcommand_layer():
    # every CLI start compiles what `hyperramsey.cli` imports at its top;
    # chains, engines and table load only for the subcommands that use them
    code = ("import sys, hyperramsey.cli; "
            "print(sorted(m for m in ('hyperramsey.chains', 'hyperramsey.engines', 'hyperramsey.table') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_acceptance_slice_under_optimize():
    # criteria 3 (directed Ramsey values and gaps) and 4 (lower-bound
    # freeness) in a `python -O` child; `report` asserts, which -O strips,
    # so the child's PASS lines are what count
    code = f"""
import sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
assert False, "assert statements must be stripped"
import test_acceptance
test_acceptance.test_criterion_3_directed_ramsey_values()
test_acceptance.test_criterion_4_lower_bound_freeness()
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line] == [
        "ACCEPTANCE 3 (directed Ramsey values and consecutive gaps): PASS",
        "ACCEPTANCE 4 (lower-bound colourings verify free at desk scale): PASS",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
