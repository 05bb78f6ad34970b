"""REPRO007 fixture: a mutual ping->pong->ping cycle.

Neither function calls itself, so no per-function check can see the
cycle; the call graph names it.
"""


def ping(n: int) -> int:
    if n <= 0:
        return 0
    return pong(n - 1)


def pong(n: int) -> int:
    return ping(n - 1)


def iterative(n: int) -> int:
    total = 0
    while n > 0:
        total += n
        n -= 1
    return total
