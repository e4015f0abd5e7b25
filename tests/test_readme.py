"""The README's library examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_library_blocks_run_in_order(capsys):
    # quick start, then the constrained block, which reuses its names
    blocks = _python_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        # a few thousand steps instead of the documented horizons
        short, n = re.subn(r"n_iters=[\d_]+", "n_iters=3000", block)
        assert n == 1
        exec(compile(short, str(README), "exec"), namespace)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].endswith(("covers", "misses"))
    assert out[1].startswith("region ")
    assert namespace["final"].t == 3000
    assert namespace["final"].lam.shape == (1,)
