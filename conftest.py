"""Suite-wide memory budget.

The test process's resident-set high-water mark (``ru_maxrss``) only ever
rises, so the test during which it crosses a fixed budget is the test that
allocated past it.  That test fails under its own name, instead of the
whole run being killed by the kernel once memory runs out, which names
nothing.
"""

import resource
import sys

import pytest

#: Budget on the test process's peak RSS, in MiB.  The full suite peaks
#: at about 300 MiB (2-core, 8 GB, no-swap Linux VM, Python 3.11); the
#: budget leaves room for that to grow while staying far below the ~7 GiB
#: such a machine can give one process.
PEAK_RSS_BUDGET_MIB = 1024


def _peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


@pytest.fixture(autouse=True)
def _peak_rss_budget(request):
    before = _peak_rss_mib()
    yield
    after = _peak_rss_mib()
    if before <= PEAK_RSS_BUDGET_MIB < after:
        pytest.fail(f"{request.node.nodeid} raised the peak RSS from "
                    f"{before:.0f} to {after:.0f} MiB, over the "
                    f"{PEAK_RSS_BUDGET_MIB} MiB budget", pytrace=False)
