"""Heap measurements shared by the memory-bound tests."""

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
