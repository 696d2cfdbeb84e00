"""Heap and page measurements shared by the memory-bound tests."""

import resource
import tracemalloc


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of the allocations ``fn()`` makes,
    counted from the call's start; arrays made before it do not count."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def minor_faults(fn) -> int:
    """The minor page faults this process takes while ``fn()`` runs: pages
    it touches for the first time since the allocator got them."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
