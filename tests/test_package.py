"""Package surface: the exported names, the import footprint, the demos."""

import ast
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pathsig
from pathsig import classifier, errors, signature, skeleton, transforms

MODULES = (signature, transforms, skeleton, classifier)
REPO = Path(__file__).resolve().parent.parent


def run_python(*args):
    """Run this interpreter with the imported ``pathsig`` first on its path."""
    src = os.path.dirname(os.path.dirname(pathsig.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_package_exports_are_the_module_exports():
    expected = {"FormatError", "InputError"}.union(*(m.__all__ for m in MODULES))
    assert sorted(pathsig.__all__) == sorted(expected)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pathsig, name) is getattr(module, name), name
    assert pathsig.FormatError is errors.FormatError
    assert pathsig.InputError is errors.InputError


def test_import_loads_no_scipy():
    result = run_python("-c", "import sys, pathsig, pathsig.cli; print(sorted("
                        "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", ["01_signature_basics.py", "02_path_transforms.py",
                                  "03_skeleton_features.py", "04_training_demo.py",
                                  "05_benchmark.py"])
def test_demo_runs(demo):
    result = run_python(str(REPO / "demos" / demo))
    assert result.returncode == 0, result.stderr


def test_benchmark_wraps_find_every_target(monkeypatch):
    """The benchmark's tracer wraps pathsig functions by attribute name; a
    refactor that drops or renames one would only show when it runs."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import tracer
    import workloads

    originals = skeleton.temporal_spatial_features, skeleton.path_signature_batch
    trace = tracer.Tracer()
    try:
        workloads.install_wraps(trace)
        assert skeleton.temporal_spatial_features is not originals[0]
    finally:
        trace.restore()
    assert (skeleton.temporal_spatial_features, skeleton.path_signature_batch) == originals


def test_no_module_imports_a_name_it_does_not_use():
    """pyflakes' F401 in the stdlib: every name a module imports is used in
    it, named in its ``__all__``, or on a line marked ``# noqa: F401``."""
    unused = []
    for path in sorted((REPO / "src" / "pathsig").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(
                    node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert not unused


def test_only_errors_spells_out_a_bound():
    """Each bound is checked by ``errors.check_number`` and worded by its
    ``_BOUNDS`` table: no other module writes a bound message of its own."""
    bounds = ("must be >=", "must be >", "must be <=", "must be <")
    found = []
    for path in sorted((REPO / "src" / "pathsig").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and any(
                    bound in node.value for bound in bounds):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found


def test_only_published_renames_or_deletes_a_file():
    """``io.published`` is the one publish path: no other code in the package
    names ``os.replace``, ``os.rename``, ``os.remove`` or ``os.unlink``."""
    names = {"replace", "rename", "remove", "unlink"}
    found, inside = [], []
    for path in sorted((REPO / "src" / "pathsig").glob("*.py")):
        tree = ast.parse(path.read_text())
        publish = {id(node) for func in ast.walk(tree)
                   if path.name == "io.py" and isinstance(func, ast.FunctionDef)
                   and func.name == "published" for node in ast.walk(func)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                (inside if id(node) in publish else found).append(
                    f"{path.name}:{node.lineno}: os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                          for alias in node.names if alias.name in names]
    assert inside and not found


def test_only_uniform_sample_rounds():
    """``transforms.uniform_sample`` owns the split rule, round half up: no
    other code in the package calls ``floor`` or ``round``, from ``math``,
    numpy or the builtins."""
    found, inside = [], []
    for path in sorted((REPO / "src" / "pathsig").glob("*.py")):
        tree = ast.parse(path.read_text())
        sampler = {id(node) for func in ast.walk(tree)
                   if path.name == "transforms.py" and isinstance(func, ast.FunctionDef)
                   and func.name == "uniform_sample" for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and {"floor", "round"} & {
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)}:
                (inside if id(node) in sampler else found).append(f"{path.name}:{node.lineno}")
    assert inside and not found


def test_only_the_commands_publish():
    """Writers write where they are told; only ``cli`` calls ``published``."""
    callers = set()
    for path in sorted((REPO / "src" / "pathsig").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "published" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                callers.add(path.name)
    assert callers == {"cli.py"}


def test_only_skeleton_names_a_feature_block():
    """``skeleton.feature_layout`` owns the block names: no other module spells one."""
    blocks = {"pair_sig", "triple_sig", "joint_motion_sig", "spatial_evolution_sig"}
    found = []
    for path in sorted((REPO / "src" / "pathsig").glob("*.py")):
        if path.name == "skeleton.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in blocks:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found


def test_forward_builds_one_map_then_allocates_fixed_blocks():
    """``forward`` builds a model's D x C map once, in its own mapping, which
    tracemalloc does not see, so its size is checked directly.  Every call
    allocates one fixed-size block buffer and row-sized outputs, whatever the
    rows, so no W1-sized float64 array exists."""
    D, H, C = 200_000, 64, 3
    model = classifier.init_model(D, C, classifier.TrainConfig(), hidden_dim=H)
    x = np.random.default_rng(25).standard_normal((64, D))
    block = 8 * classifier._MAP_ROWS * classifier._CHUNK_ROWS  # the reused float64 buffer
    maps = []
    for rows in (1, 1, 8, 64):
        tracemalloc.start()
        try:
            classifier.forward(model, x[:rows])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        maps.append(model._map[1])
        assert block <= peak < block + 32 * 1024, rows
    assert all(a is maps[0] for a in maps)
    assert maps[0].nbytes == 8 * D * C


def test_only_the_field_parser_catches_a_value_error():
    """``io._parse`` reads every text field of every reader: no other handler
    in ``io`` or ``classifier`` catches ValueError."""
    found = []
    for name in ("io.py", "classifier.py"):
        tree = ast.parse((REPO / "src" / "pathsig" / name).read_text())
        parser = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name == "_parse"
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ExceptHandler) and id(node) not in parser
                    and node.type is not None and any(
                        isinstance(n, ast.Name) and n.id == "ValueError"
                        for n in ast.walk(node.type))):
                found.append(f"{name}:{node.lineno}")
    assert not found


def test_only_the_line_helpers_word_a_file_rule():
    """Each rule about a text file's lines has one home: ``io._parse_key_values``
    raises every unknown-, duplicate- and missing-key FormatError, and
    ``io._data_lines`` every FormatError for a file with no data line."""
    homes = {"_parse_key_values": re.compile(r"\b(unknown|duplicate|missing)\b.*\bkey\b"),
             "_data_lines": re.compile(r"\b(no|empty)\b")}
    found, inside = [], set()
    for path in sorted((REPO / "src" / "pathsig").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): func.name for func in ast.walk(tree)
                 if path.name == "io.py" and isinstance(func, ast.FunctionDef)
                 and func.name in homes for node in ast.walk(func)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "FormatError"):
                continue
            for text in (c.value for c in ast.walk(node.exc) if isinstance(c, ast.Constant)
                         and isinstance(c.value, str)):
                for home, rule in homes.items():
                    if rule.search(text):
                        if owner.get(id(node)) == home:
                            inside.add(home)
                        else:
                            found.append(f"{path.name}:{node.lineno}: {text!r}")
    assert not found
    assert inside == set(homes)


def test_loc_tool_splits_lines_into_code_docstring_and_blank_or_comment(tmp_path):
    """``tools/loc.py`` counts every docstring line, blank ones included, as
    docstring, and a line that starts with ``#`` once indented as a comment."""
    source = '''"""Module docstring,

two lines apart."""

import os  # a trailing comment is code


class Thing:
    """One line."""

    # a comment
    def method(self):
        """Two
        lines."""
        text = """not a docstring"""
        return os.sep + text


async def waiter():
    """Async too."""
'''
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(source)
    result = subprocess.run([sys.executable, str(REPO / "tools" / "loc.py"), str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == (
        "total: 20 total, 6 code, 7 docstring, 7 blank_or_comment")
