"""The unrun-line finder of tools/program_lines.py, on a small module.

The whole trace runs every program and is not part of this suite."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "program_lines.py"

SOURCE = """\
def used(x):
    return x + 1


def unused(x):
    y = x * 2
    return y


class Box:
    def get(self):
        return [v for v in (1, 2)]

    def put(self, v):
        if v:
            raise ValueError(v)


used(1)
Box().get()
"""


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unrun_lines_are_the_bodies_never_called(tmp_path):
    tool = _load(TOOL, "program_lines")
    path = tmp_path / "small.py"
    path.write_text(SOURCE)
    ran = tool.run_traced(lambda: _load(path, "small"), tmp_path)
    # def and class lines run at import; only the bodies never called stay
    assert tool.unrun_lines(path, ran) == [6, 7, 15, 16]
    assert tool.spans([6, 7, 15, 16, 20]) == "6-7, 15-16, 20"
    # a file the tracer never entered has every executable line unrun
    assert tool.unrun_lines(path, {}) == sorted(tool.executable_lines(path))
    assert {1, 2, 12, 19, 20} <= tool.executable_lines(path)
