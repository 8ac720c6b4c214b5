"""The top-level ``cclab`` namespace: its names match README's "Python
API" list, and no exported name hides a submodule."""

import importlib
import pathlib
import re
import sys
import types

import pytest

import cclab

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# The names perfbench/ reads from the top level.
PERFBENCH_NAMES = ("BoolFun", "make_family", "parse_bfn", "format_bfn",
                   "rank", "distinct_row_count", "distinct_col_count",
                   "fooling_set_bound", "build_protocol", "balance",
                   "tree_to_obj")


def _documented_api() -> dict:
    """{module: [names]} from the bullets of README's "Python API"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    api = {}
    for bullet in section.split("\n- ")[1:]:
        bullet = bullet.split("\n\n", 1)[0]  # the text after the list
        module, *names = re.findall(r"`([^`]+)`", bullet)
        api[module] = names
    return api


def _exported() -> set:
    return {name for name, value in vars(cclab).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)}


def test_exports_equal_readme_list():
    api = _documented_api()
    documented = [name for names in api.values() for name in names]
    assert len(documented) == len(set(documented))
    assert set(documented) == _exported()
    for module, names in api.items():
        mod = importlib.import_module(module)
        for name in names:
            assert getattr(mod, name) is getattr(cclab, name), (module, name)


def test_perfbench_names_stay_exported():
    assert set(PERFBENCH_NAMES) <= _exported()


@pytest.mark.parametrize("name", ["errors", "limits", "matrix", "rectangles",
                                  "entropy", "protocol", "builder", "cli"])
def test_submodule_is_not_shadowed(name):
    # The statement form reads the attribute of the package, so a
    # top-level name equal to a submodule's would be bound instead.
    ns = {}
    exec(f"import cclab.{name} as m", ns)
    m = ns["m"]
    assert isinstance(m, types.ModuleType)
    assert m is sys.modules[f"cclab.{name}"]
    assert getattr(cclab, name) is m


def test_import_entropy_as_binds_the_module():
    import cclab.entropy as m
    assert m.extract_rectangle is cclab.extract_rectangle
