"""Job functions for the chunk-engine tests, in a module of their own so
that spawned workers import them by name without the tests around them."""

import os
import time


def mark(directory: str, i: int, seconds: float) -> int:
    """Leave an empty file named i in directory, sleep `seconds` and
    return i."""
    open(os.path.join(directory, str(i)), "w").close()
    time.sleep(seconds)
    return i
