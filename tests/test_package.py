"""What ``import orb2d`` loads, and how its group, cover and reduce names resolve.

The package loads only the classifier layers; the group, cover and reduce
names load their module on first use. The import checks run in a fresh
interpreter, since this test session has imported every module already.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orb2d

# The child imports the same orb2d as this session.
_ENV = dict(os.environ, PYTHONPATH=str(Path(orb2d.__file__).resolve().parents[1]))


def fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter, which must exit 0."""
    done = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def added_modules(statement: str, setup: str = "") -> set[str]:
    """Modules that ``statement`` adds to ``sys.modules`` after ``setup``."""
    code = f"import sys\n{setup}\nbefore = set(sys.modules)\n{statement}\n"
    code += "print(*sorted(set(sys.modules) - before))"
    return set(fresh(code).split())


def test_import_loads_only_the_classifier():
    added = added_modules("import orb2d")
    assert {"orb2d.signature", "orb2d.classify"} <= added
    assert not {"orb2d.group", "orb2d.cover", "orb2d.reduce", "json"} & added


def test_cli_import_loads_neither_cover_nor_reduce():
    added = added_modules("import orb2d.cli")
    assert "orb2d.cli" in added
    assert not {"orb2d.group", "orb2d.cover", "orb2d.reduce"} & added


def test_cover_import_loads_no_group():
    added = added_modules("import orb2d.cover")
    assert "orb2d.cover" in added
    assert "orb2d.group" not in added


@pytest.mark.parametrize(
    "name, module",
    [
        ("abelianization", "orb2d.group"),
        ("manifold_cover_search", "orb2d.cover"),
        ("reduce_to_closed", "orb2d.reduce"),
    ],
)
def test_lazy_name_loads_its_own_module_only(name, module):
    added = added_modules(f"orb2d.{name}", setup="import orb2d")
    assert {m for m in added if m.startswith("orb2d")} == {module}


def test_every_name_is_its_defining_modules_object():
    lines = fresh(
        "import importlib, orb2d\n"
        "for name in orb2d.__all__:\n"
        "    obj = getattr(orb2d, name)\n"
        "    same = getattr(importlib.import_module(obj.__module__), name) is obj\n"
        "    print(name, obj.__module__, same, name in vars(orb2d))\n"
    ).splitlines()
    rows = [line.split() for line in lines]
    assert [name for name, *_ in rows] == orb2d.__all__
    for name, module, same, stored in rows:
        assert module.startswith("orb2d.") and same == "True", name
        # A group, cover or reduce name is looked up on every access, never
        # stored; group_order_if_finite is classify's, so it is stored.
        assert stored == str(module not in ("orb2d.group", "orb2d.cover", "orb2d.reduce")), name


def test_star_import_binds_all():
    missing = fresh(
        "from orb2d import *\n"
        "import orb2d\n"
        "print(*(n for n in orb2d.__all__ if globals().get(n) is not getattr(orb2d, n)))\n"
    )
    assert missing.split() == []


def test_dir_lists_every_name():
    assert fresh("import orb2d\nprint(*sorted(set(orb2d.__all__) - set(dir(orb2d))))").split() == []


def test_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'orb2d' has no attribute 'no_such_name'$"):
        orb2d.no_such_name
    assert getattr(orb2d, "no_such_name", None) is None


@pytest.mark.parametrize(
    "module, name",
    [
        ("orb2d.group", "smith_normal_form"),
        ("orb2d.cover", "manifold_cover_search"),
        ("orb2d.reduce", "reduce_to_closed"),
    ],
)
def test_module_patch_shows_through_and_is_undone(monkeypatch, module, name):
    # The benchmark's tracer wraps a layer function in its module only, so
    # the package must read it from there on every access.
    original = getattr(orb2d, name)
    stub = object()
    with monkeypatch.context() as patch:
        patch.setattr(f"{module}.{name}", stub)
        assert getattr(orb2d, name) is stub
    assert getattr(orb2d, name) is original
    assert name not in vars(orb2d)


@pytest.mark.parametrize(
    "name, module",
    [("manifold_cover_search", "orb2d.cover"), ("reduce_to_closed", "orb2d.reduce")],
)
def test_lazy_name_found_by_the_normal_lookup(name, module):
    # A module __getattr__ runs only after the normal lookup has raised an
    # AttributeError, which Python 3.11 builds and clears on every access;
    # object.__getattribute__ is that lookup alone, with no fallback.
    assert object.__getattribute__(orb2d, name) is getattr(importlib.import_module(module), name)
