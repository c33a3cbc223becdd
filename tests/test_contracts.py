"""What code outside the package relies on: the benchmark's tracer and
workloads, which look package names up by string, and the README's library
snippet. Removing or renaming a name they use fails here, not only in a
traced benchmark run or in a reader's session. Also what must read the pin
table of pins.py rather than copy it: the CI job and the README's example;
and the README's grid limits, which must be the check registry's."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import spechtgb
from spechtgb import verify
from spechtgb.polyring import Poly

import pins
from pins import PINS

ROOT = Path(__file__).resolve().parents[1]


def load(relative: str):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(f"_contract_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load("bench/tracer.py")


class TestBenchContract:
    def test_every_span_target_resolves(self, tracer):
        assert tracer.PACKAGE == "spechtgb"
        for name, module_name, attr, _ in tracer.FUNCTIONS:
            module = sys.modules[f"spechtgb.{module_name}"]
            assert callable(getattr(module, attr, None)), (name, module_name, attr)

    def test_every_span_method_is_defined_on_poly(self, tracer):
        for name, attr, _ in tracer.METHODS:
            assert attr in Poly.__dict__, (name, attr)

    def test_uninstall_puts_every_original_back(self, tracer):
        modules = [m for key, m in sys.modules.items()
                   if key == "spechtgb" or key.startswith("spechtgb.")]
        before = {m.__name__: dict(vars(m)) for m in modules}
        methods = dict(Poly.__dict__)
        t = tracer.Tracer()
        t.install()
        try:
            assert Poly.__dict__["__mul__"] is not methods["__mul__"]
            assert spechtgb.shape_generators is not before["spechtgb"]["shape_generators"]
        finally:
            t.uninstall()
        for m in modules:
            now = vars(m)
            changed = [k for k, v in before[m.__name__].items() if now.get(k) is not v]
            assert not changed, (m.__name__, changed)
        assert all(Poly.__dict__[k] is v for k, v in methods.items())

    def test_every_package_name_the_workloads_use_exists(self):
        # loading runs the workloads' `from spechtgb import ...`
        workloads = load("bench/workloads.py")
        tree = ast.parse(Path(workloads.__file__).read_text(encoding="utf-8"))
        used = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "spechtgb"}
        assert used
        assert [name for name in sorted(used) if not hasattr(spechtgb, name)] == []


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md (Library use)", "exec"), {})


def test_ci_pin_job_runs_the_table():
    workflow = (ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8")
    job = re.split(r"\n  \S", workflow.split("\n  pinned-hashes:\n", 1)[1], maxsplit=1)[0]
    assert "python tests/pins.py" in job
    assert "determinism sha256:" not in job


def test_ci_tier1_job_runs_the_oldest_and_newest_pinned_python():
    # only one Python is installed where the tests run, so this reads the matrix
    workflow = (ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8")
    tier1, pinned = workflow.split("\n  tier1:\n", 1)[1].split("\n  pinned-hashes:\n", 1)

    def versions(job):
        (matrix,) = re.findall(r"python-version: \[(.*?)\]", job)
        return sorted(re.findall(r'"(3\.\d+)"', matrix), key=lambda v: int(v.split(".")[1]))

    assert versions(tier1) == ["3.10", "3.11", "3.13"]
    assert set(versions(tier1)) <= set(versions(pinned))
    assert versions(pinned)[0] == versions(tier1)[0] and versions(pinned)[-1] == versions(tier1)[-1]


def test_a_pin_row_that_outlasts_its_time_is_named(monkeypatch, capsys):
    monkeypatch.setattr(pins, "TIMEOUT_S", 0.01)
    monkeypatch.setattr(pins, "PINS", (("lexgb --n 3", "3 pass"),))
    monkeypatch.setattr(pins, "CI_ONLY_PINS", ())
    assert pins.main() == 1
    out = capsys.readouterr().out
    assert "\n  timed out after 0.01 s\n" in out
    assert out.endswith("pin differs: verify lexgb --n 3\n")


def test_readme_example_line_is_the_pinned_row():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Determinism\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"```text\n(.*?)\n```", section, re.S) == [
        dict(PINS)["all --max-n 4 --seed 7"]]


def test_readme_grid_limits_are_the_registrys():
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    (sentence,) = re.findall(r"The grid runs (`\w+` up to n=\d+(?:(?:,| and) `\w+` up to n=\d+)*)\.",
                             readme)
    stated = {name: int(n) for name, n in re.findall(r"`(\w+)` up to n=(\d+)", sentence)}
    assert stated == {name: spec.max_n for name, spec in verify._CHECKS.items()
                      if spec.max_n is not None}
