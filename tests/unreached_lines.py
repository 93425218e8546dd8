"""A pytest plugin that fails the session when a line of ``src/qmkit`` runs in no test.

Run it as ``PYTHONPATH=src:tests python -m pytest -q -p unreached_lines``.  Tracing starts
when this module is imported, before ``conftest.py`` imports qmkit, so the lines that run
at import count.  A statement over several lines counts as its first line, and may stay
unreached when that line's text is a key of ``ALLOWED``.
"""

import ast
import sys
import types
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qmkit"
_ROOT = str(SOURCE)
ALLOWED = {
    'raise InvalidParameter(f"embedded d={d} fiducial fails the SIC condition: "':
        "_sic_orbit checks the embedded fiducials, and every one of them passes",
    'raise RuntimeError(f"stratified draws do not cross {c!r} inside [{lo}, {hi})")':
        "a defensive check: the window's two-draw margin exceeds the rounding it guards",
    "sys.exit(main())": "entry_point runs only in test_module_entry_point_runs_main's subprocess",
    "entry_point()": "cli.py's __main__ guard runs only when the module is run as a script",
}
_ran: set = set()                            # (file name, line number)


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_ROOT) else None


sys.settrace(_call)


def _lines(code: types.CodeType):
    """Each line number that a code object or one nested in it executes."""
    yield from (line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _lines(const)


def _unreached(path: Path) -> list:
    """(file name, line number, text) of each statement of ``path`` that no test ran."""
    text = path.read_text()
    tree, lines = ast.parse(text), text.splitlines()
    # ast.walk yields a statement after the statements around it, so the innermost wins
    first = {n: s.lineno for s in ast.walk(tree) if isinstance(s, ast.stmt)
             for n in range(s.lineno, s.end_lineno + 1)}
    ran = {first.get(n, n) for name, n in _ran if name == str(path)}
    want = {first.get(n, n) for n in _lines(compile(tree, str(path), "exec"))}
    return [(path.name, n, lines[n - 1].strip()) for n in sorted(want - ran)
            if lines[n - 1].strip() not in ALLOWED]


def pytest_sessionfinish(session):
    sys.settrace(None)
    if missed := [line for path in sorted(SOURCE.glob("*.py")) for line in _unreached(path)]:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        report = session.config.pluginmanager.get_plugin("terminalreporter")
        report.write_line("")
        report.write_sep("=", f"lines of src/qmkit that no test ran: {len(missed)}")
        for name, n, text in missed:
            report.write_line(f"{name}:{n}: {text}")
