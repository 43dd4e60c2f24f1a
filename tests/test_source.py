"""Static checks of the package source."""

import ast
import re
from pathlib import Path

import pytest

import fermiball

SOURCES = sorted(Path(fermiball.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads and does not list in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unbound_exports(tree: ast.Module) -> list[str]:
    """Names in a module's __all__ that its top level never binds by a def,
    a class, an assignment or an import."""
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private names (one leading underscore, not dunder) that a module's top
    level binds by a def, a class or an assignment, each with its line."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def dead_helpers(modules: dict[str, ast.Module]) -> list[str]:
    """Private top-level names of the modules that no module reads, as a
    name or as an attribute."""
    read = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}: {name} (line {line})"
        for module, tree in modules.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]


def test_no_unused_imports():
    assert {p.name for p in SOURCES} >= {"__init__.py", "experiments.py", "lattice.py"}
    found = {
        path.name: unused
        for path in SOURCES
        if (unused := unused_imports(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_unused_import_check_catches_a_leftover():
    code = (
        "from .lattice import EncodedSet, FermiBall\n"
        "import numpy as np\n"
        "def f(b: FermiBall):\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(ast.parse(code)) == ["EncodedSet (line 1)"]


def test_every_export_is_bound():
    found = {
        path.name: unbound
        for path in SOURCES
        if (unbound := unbound_exports(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_unbound_export_check_catches_a_leftover():
    code = (
        "from .lattice import FermiBall\n"
        "import numpy as np\n"
        "__all__ = ['EncodedSet', 'FermiBall', 'np', 'TWO_PI', 'Spec', 'pair_counts']\n"
        "TWO_PI: float = 6.28\n"
        "class Spec:\n"
        "    EncodedSet = None\n"
        "def pair_counts():\n"
        "    EncodedSet = 1\n"
    )
    assert unbound_exports(ast.parse(code)) == ["EncodedSet"]


def test_every_private_helper_is_read():
    modules = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert dead_helpers(modules) == []


def test_dead_helper_check_catches_a_leftover():
    lattice = (
        "_BLOCK_ROWS = 8\n"
        "_a, (_b, c) = 1, (2, 3)\n"
        "def _runs(first):\n"
        "    return first\n"
        "def _fill(x):\n"
        "    return x + _BLOCK_ROWS\n"
        "class _Unused:\n"
        "    _fill = None\n"
    )
    patches = "from . import lattice\nfrom .lattice import _fill\ndef f():\n    return _fill(lattice._a)\n"
    modules = {"lattice.py": ast.parse(lattice), "patches.py": ast.parse(patches)}
    assert dead_helpers(modules) == [
        "lattice.py: _b (line 2)",
        "lattice.py: _runs (line 3)",
        "lattice.py: _Unused (line 7)",
    ]


#: the layer modules whose private names `experiments.py` may not read
LAYERS = {"lattice", "patches", "bogokernel", "rpa"}


def layer_breaches(modules: dict[str, ast.Module]) -> list[str]:
    """Private names of a layer module (`LAYERS`) that `experiments.py`
    imports or reads as an attribute of the module, and reads of
    `_clearance` by a module other than `patches.py`: each engine stays
    behind the layer that owns it."""
    found = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                owner, names = node.module, [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner, names = node.value.id, [node.attr]
            elif isinstance(node, ast.Name):
                owner, names = None, [node.id]
            else:
                continue
            for name in names:
                if module == "experiments.py" and name.startswith("_") and owner in LAYERS:
                    found.append(f"{module}: {owner}.{name} (line {node.lineno})")
                elif module != "patches.py" and name == "_clearance":
                    found.append(f"{module}: _clearance (line {node.lineno})")
    return found


def test_experiments_reach_no_layer_engine():
    modules = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert layer_breaches(modules) == []


def test_layer_check_catches_a_leftover():
    experiments = (
        "from . import bogokernel, lattice, patches\n"
        "from .lattice import FermiBall, _band_blocks, _isqrt\n"
        "from .patches import _MU_MIN_FLOOR\n"
        "def f(r, mu):\n"
        "    return patches._clearance(r, mu, 0.0), lattice._ball_count(4), lattice.sample_band\n"
        "def g(u, v):\n"
        "    return bogokernel._solve(u, v, 0.1), bogokernel.diagonalize, np._NoValue\n"
    )
    rpa = "from .patches import _clearance\ndef g(r, mu):\n    return _clearance(r, mu, 0.0)\n"
    patches = "def _clearance(r, mu, mu_min):\n    return r\ndef h(r):\n    return _clearance(r, r, 0.0)\n"
    modules = {name: ast.parse(code) for name, code in [
        ("experiments.py", experiments), ("rpa.py", rpa), ("patches.py", patches)
    ]}
    assert layer_breaches(modules) == [
        "experiments.py: lattice._band_blocks (line 2)",
        "experiments.py: lattice._isqrt (line 2)",
        "experiments.py: patches._MU_MIN_FLOOR (line 3)",
        "experiments.py: patches._clearance (line 5)",
        "experiments.py: lattice._ball_count (line 5)",
        "experiments.py: bogokernel._solve (line 7)",
        "rpa.py: _clearance (line 1)",
        "rpa.py: _clearance (line 3)",
    ]


#: the interpreter's built-in SHA-256 modules, which load no OpenSSL
BUILTIN_SHA = {"_sha2", "_sha256"}


def hashlib_imports(modules: dict[str, ast.Module]) -> list[str]:
    """Imports of hashlib, which loads OpenSSL through _hashlib, except the
    fallback of `experiments.py`: a statement of an `except ImportError`
    handler whose `try` imports a built-in SHA-256 module (`BUILTIN_SHA`)."""
    found = []
    for module, tree in modules.items():
        fallback = set()
        for node in ast.walk(tree):
            if (
                module == "experiments.py"
                and isinstance(node, ast.Try)
                and any(isinstance(s, ast.ImportFrom) and s.module in BUILTIN_SHA for s in node.body)
            ):
                fallback |= {
                    id(stmt)
                    for handler in node.handlers
                    if isinstance(handler.type, ast.Name)
                    and handler.type.id in {"ImportError", "ModuleNotFoundError"}
                    for stmt in handler.body
                }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if id(node) not in fallback and any(n.split(".")[0] == "hashlib" for n in names):
                found.append((module, node.lineno))
    return [f"{module}: hashlib (line {line})" for module, line in sorted(found)]


def test_no_module_imports_hashlib():
    modules = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert hashlib_imports(modules) == []


def test_hashlib_check_catches_a_leftover():
    fallback = (
        "try:\n"
        "    from _sha2 import sha256\n"
        "except ImportError:\n"
        "    try:\n"
        "        from _sha256 import sha256\n"
        "    except ImportError:\n"
        "        from hashlib import sha256\n"
    )
    experiments = (
        "import hashlib\n"
        + fallback
        + "try:\n"
        "    from _sha256 import sha256\n"
        "except ValueError:\n"
        "    import hashlib.sha256\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    import hashlib as h\n"
        "def f(data):\n"
        "    from hashlib import sha256\n"
        "    return sha256(data)\n"
    )
    modules = {"experiments.py": ast.parse(experiments), "rpa.py": ast.parse(fallback)}
    assert hashlib_imports(modules) == [
        "experiments.py: hashlib (line 1)",
        "experiments.py: hashlib (line 12)",
        "experiments.py: hashlib (line 16)",
        "experiments.py: hashlib (line 18)",
        "rpa.py: hashlib (line 7)",
    ]


def numpy_random_uses(modules: dict[str, ast.Module]) -> list[str]:
    """Imports of numpy.random, which maps OpenSSL through secrets -> hmac
    -> _hashlib, and reads of it as an attribute of a name bound to numpy:
    the run's draws come from the interpreter's random.Random."""
    found = []
    for module, tree in modules.items():
        numpy_names = {
            alias.asname or "numpy"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "numpy" or (alias.name.startswith("numpy.") and not alias.asname)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                hit = any(alias.name.startswith("numpy.random") for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                hit = (node.module or "").startswith("numpy.random") or (
                    node.module == "numpy" and any(alias.name == "random" for alias in node.names)
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hit = node.value.id in numpy_names and node.attr == "random"
            else:
                continue
            if hit:
                found.append((module, node.lineno))
    return [f"{module}: numpy.random (line {line})" for module, line in sorted(found)]


def test_no_module_uses_numpy_random():
    modules = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert numpy_random_uses(modules) == []


def test_numpy_random_check_catches_a_leftover():
    experiments = (
        "import random\n"
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy import random as npr, zeros\n"
        "from numpy.random import default_rng\n"
        "def f(seed):\n"
        "    import numpy as xp\n"
        "    return np.random.default_rng(seed), xp.random, np.zeros(1), random.Random(seed)\n"
    )
    lattice = "import numpy.linalg\nimport random as np\ndef g(ranks):\n    return numpy.random, np.random\n"
    modules = {"experiments.py": ast.parse(experiments), "lattice.py": ast.parse(lattice)}
    assert numpy_random_uses(modules) == [
        "experiments.py: numpy.random (line 3)",
        "experiments.py: numpy.random (line 4)",
        "experiments.py: numpy.random (line 5)",
        "experiments.py: numpy.random (line 8)",
        "experiments.py: numpy.random (line 8)",
        "lattice.py: numpy.random (line 4)",
    ]


def python_floor() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's requires-python floor."""
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', pyproject.read_text(), re.M)
    assert found, "pyproject.toml names no requires-python floor"
    return int(found[1]), int(found[2])


def test_every_module_parses_at_the_python_floor():
    # no interpreter at the floor may be at hand, so its grammar is checked here
    floor = python_floor()
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=floor)


def test_python_floor_check_catches_newer_syntax():
    # except* is 3.11 syntax: it parses at 3.11, not at 3.10
    code = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(code, feature_version=(3, 11))
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse(code, feature_version=(3, 10))
