"""tools/line_hits.py on a small module: its executable lines and the one line a call never reaches."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_hits.py"

SAMPLE = """def sign(x):
    if x < 0:
        return -1
    return 1

SIGN = sign(2)
"""


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_only_the_branch_never_taken(tmp_path):
    line_hits = load("line_hits", TOOL)
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    assert line_hits.executable_lines(sample) == {1, 2, 3, 4, 6}
    hits, previous = line_hits.start_tracing(tmp_path)
    try:
        load("sample", sample)
    finally:
        line_hits.stop_tracing(previous)
    assert line_hits.not_hit(tmp_path, hits) == [(sample.resolve(), 3)]
