"""README's "Library sketch" runs as written and prints what its comment shows."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert sketch is not None
    exec(sketch.group(1), {})
    first = capsys.readouterr().out.splitlines()[0]
    shown = re.search(r"# e\.g\. (.*)", sketch.group(1)).group(1)
    assert first == shown == "[0, 2, 4, 7, 13, 18] 8"
