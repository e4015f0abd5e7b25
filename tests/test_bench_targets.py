"""Every name the benchmark in perfbench/ wraps or stamps exists.

The benchmark times snewt's layers from outside, by replacing attributes
looked up by name; a renamed or deleted target only drops its span with a
warning there.  Resolving every target here makes such a rename fail the
test suite.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import studies  # noqa: E402
from tracer import Tracer  # noqa: E402

# the untraced run stamps each engine step at this call
STAMP_TARGET = "snewt.experiment:_BatchedWsc.update"

TARGETS = sorted({
    target
    for spans in (studies.SETUP_SPANS, studies.STUDY_SPANS,
                  studies.STREAM_SPANS)
    for target, _, _ in spans
} | {studies.STUDY_GENERATORS[0], STAMP_TARGET})


@pytest.mark.parametrize("target", TARGETS)
def test_benchmark_target_resolves(target):
    tracer = Tracer()
    assert tracer._resolve(target) is not None
    assert tracer.missing == []
