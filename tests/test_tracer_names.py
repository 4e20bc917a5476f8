"""perfbench's tracer wraps stochord functions by the names it finds in
each module and class namespace, such as ``bench.lambda_aggregate_sf`` and
the ``certify_*`` names that ``bench`` imports. A change to ``src/`` that
drops one of those names breaks the traced benchmark; this catches it in
the tier-1 suite.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import Instrumentation, Tracer  # noqa: E402

# every attribute the tracer wraps: an owner that imported a name counts
# once more, so a name that drops out of bench's namespace shows here
WRAPPED = 46


def test_tracer_wraps_and_restores_every_name():
    inst = Instrumentation(Tracer())
    try:
        # raises KeyError where a wrapped name is gone
        inst.install()
        saved = list(inst._saved)
        assert len(saved) == WRAPPED
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        inst.uninstall()
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, (owner, attr)
