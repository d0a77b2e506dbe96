"""List the library lines that no program runs.

    python3 tools/program_lines.py

Under sys.settrace, runs tools/output_matrix.py's run_matrix, the one
list of programs: the library's pipeline runs and every `sslasr`
subcommand, all on tiny inputs. Then prints, per src/sslasr file, the
executable lines (those the compiled code objects' co_lines attribute
bytecode to) that none of them ran. A line listed here runs only under the
tests, or never: a candidate for deletion, or a guard that only outside
input reaches.
Takes about 4 s on 2 vCPUs.
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sslasr"

def executable_lines(path) -> set[int]:
    """Line numbers that hold bytecode in any code object compiled from path."""
    code = compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(fn, under) -> dict[str, set[int]]:
    """Call fn() under sys.settrace; return the lines run, per file under `under`."""
    prefix = str(Path(under).resolve())
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local(frame, event, arg) if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return ran


def unrun_lines(path, ran: dict[str, set[int]]) -> list[int]:
    return sorted(executable_lines(path) - ran.get(str(Path(path).resolve()), set()))


def spans(lines: list[int]) -> str:
    """[3, 4, 5, 9] -> '3-5, 9'."""
    out, start = [], None
    for i, n in enumerate(lines):
        start = n if start is None else start
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(n) if n == start else f"{start}-{n}")
            start = None
    return ", ".join(out)


def _programs() -> None:
    """Every program on tiny inputs; imports happen here, under the tracer."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("output_matrix", ROOT / "tools" / "output_matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    with tempfile.TemporaryDirectory() as tmp:
        matrix.run_matrix(tmp)


def main() -> int:
    ran = run_traced(_programs, PACKAGE)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = unrun_lines(path, ran)
        total += len(lines)
        print(f"{path.relative_to(ROOT)}: {len(lines)} lines not run" + (f": {spans(lines)}" if lines else ""))
    print(f"{total} executable lines in {PACKAGE.relative_to(ROOT)} run by no program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
