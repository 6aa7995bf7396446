import ast
from pathlib import Path

import pytest


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
    package = Path(__file__).parents[1] / "src" / "sgfcf"
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    del unused["__init__.py"]
    assert {name: found for name, found in unused.items() if found} == {}
    assert _unused_imports(
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .errors import ConfigError as CE\nos.sep, np.ones, CE\n"
        "def f(x: 'str') -> None:\n    import csv\n    csv.writer(x)"
    ) == []
