"""Every function the benchmark's span shims wrap still exists.

bench/spans.py looks up each (owner, attribute) pair of its TARGETS list
by name when a traced run installs the shims; a renamed or deleted
function would break `python3 bench/run.py --trace 1` at start-up.
"""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        "%s.%s" % (owner.__name__, attr)
        for owner, attr, _name, _sizes in spans.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
