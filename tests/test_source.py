import ast
import builtins
import importlib
import re
from pathlib import Path

import pytest

import sgfcf

PACKAGE = Path(__file__).parents[1] / "src" / "sgfcf"


def _unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports, at any depth, and never reads.
    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "source",
    [
        "import math",
        "import os.path",
        "import numpy as np\nnumpy.ones(1)",
        "from .filters import power_clamped",
        "from .filters import eval_filter as ev\neval_filter(0, 1)",
        "def f():\n    import csv\n    return 1",
        "import math\nx = 'math.pi'",
    ],
)
def test_unused_import_finder_sees_each_form(source):
    assert _unused_imports(source)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is the one exception
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    del unused["__init__.py"]
    assert {name: found for name, found in unused.items() if found} == {}
    assert _unused_imports(
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .errors import ConfigError as CE\nos.sep, np.ones, CE\n"
        "def f(x: 'str') -> None:\n    import csv\n    csv.writer(x)"
    ) == []


def _unread_private_names(sources: dict) -> list[str]:
    """Module-level private names (``_x``, dunders excluded) that a source
    in ``sources`` (file name -> text) defines, by def, class or
    assignment, and no source reads, by name or as an attribute."""
    defined, read = [], set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(file, node.lineno, name) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{file}:{line}: {name}"
        for file, line, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


@pytest.mark.parametrize(
    "source",
    [
        "def _f():\n    pass",
        "class _C:\n    pass",
        "_X = 1",
        "_x: int = 1",
        "_a, _b = 1, 2\nprint(_a)",
        "_x = 1\n_x = 2",
        "def f():\n    _y = 1\n    return 'x._y'\n_y = 0",
    ],
)
def test_unread_private_name_finder_sees_each_form(source):
    assert _unread_private_names({"a.py": source})


def test_every_private_module_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _unread_private_names(sources) == []
    # a name read in another module, or as an attribute, counts as read;
    # dunders and names local to a function are not module-level private names
    assert _unread_private_names({
        "a.py": "_x = 1\n_y = 2\n__all__ = []\ndef f():\n    _z = 1",
        "b.py": "from .a import _x\nimport a\nprint(_x, a._y)",
    }) == []


def _unresolved_names(markdown: str) -> list[str]:
    """Inline code spans of ``markdown`` that name something the package
    lacks: ``module.NAME`` for a module of sgfcf, ``sgfcf.NAME``, or a
    CamelCase class in any module, each with any attributes after it.
    Builtins such as ``ValueError`` are exempt; other spans (file names,
    numpy calls, flags) are not names of the package."""
    modules = {path.stem: importlib.import_module(f"sgfcf.{path.stem}") for path in PACKAGE.glob("[!_]*.py")}
    missing = []
    for span in re.findall(r"`([^`\n]+)`", markdown):
        match = re.match(r"\w+(\.\w+)*", span)
        if match is None:
            continue
        head, *chain = match[0].split(".")
        if head == "sgfcf":
            owners = [sgfcf]
        elif head in modules and chain:
            owners = [modules[head]]
        elif re.fullmatch(r"(?=.*[a-z])[A-Z]\w*[A-Z]\w*", head) and not hasattr(builtins, head):
            owners, chain = list(modules.values()), [head, *chain]
        else:
            continue
        if not any(_has_chain(owner, chain) for owner in owners):
            missing.append(span)
    return missing


def _has_chain(owner, chain: list[str]) -> bool:
    for name in chain:
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


@pytest.mark.parametrize(
    "markdown",
    [
        "`model.no_such_name`",
        "`spectral.SLAB.no_such_attribute`",
        "`sgfcf.NoSuchFilter`",
        "`NoSuchFilter`",
        "`NoSuchFilter(k=1)`",
        "`KNoSuch`",
        "`TruncatedSpectrum.no_such_method`",
    ],
)
def test_unresolved_name_finder_sees_each_form(markdown):
    assert _unresolved_names(markdown)


def test_every_name_the_readme_gives_resolves_in_the_package():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert _unresolved_names(readme) == []
    # builtins, a submodule, an attribute chain and spans that are no
    # package names all pass
    assert _unresolved_names(
        "`ValueError`, `sgfcf.cli`, `sgfcf.run_all_checks(seed=...)`, `errors.KTooLarge`, "
        "`TruncatedSpectrum.truncate`, `MonomialFilter(0.0)`, `model.top_k`, `model_summary.json`, "
        "`np.argsort(-s)`, `--filter`, `Pareto`, `README`"
    ) == []
