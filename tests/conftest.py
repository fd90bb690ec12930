import tracemalloc

import amcmc.poisson

# the observable type is named like a test class; keep pytest off it
amcmc.poisson.TestFunction.__test__ = False


def traced_peak(run) -> int:
    """Peak bytes traced while ``run()`` executes, after one untraced warm-up."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
