"""REPRO007 fixture: direct self-recursion, a self-loop in the call graph."""


def plain_recursive(n: int) -> int:
    if n <= 0:
        return 1
    return plain_recursive(n - 1)
