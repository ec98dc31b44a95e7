"""The README's Library example runs as written and gives the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.S | re.M).group(1)


def test_library_example():
    namespace = {}
    # The block asserts its own KKT cross-check.
    exec(compile(_library_block(), str(README), "exec"), namespace)
    pts, mean = namespace["pts"], namespace["mean"]
    # "4.6 ± 2.70924i", rounded
    assert (f"{pts.plus.real:.1f}", f"{pts.plus.imag:.5f}") == ("4.6", "2.70924")
    # "6.14545... ∓ 0.21610...i", rounded: the plus branch has the negative imaginary part
    assert (f"{mean.plus.real:.5f}", f"{mean.plus.imag:.5f}") == ("6.14545", "-0.21610")
    assert mean.minus == mean.plus.conjugate()
