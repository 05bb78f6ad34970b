"""REPRO007 fixtures: recursion inside nested scopes.

The call graph indexes module-level functions and methods only, so a
recursive helper nested in a function never becomes an edge. Each
function below recurses through a nested scope and is reported on the
enclosing function.
"""


def snapshot(root):
    out = []

    def walk(n):
        if n is None:
            return
        out.append(n)
        walk(n.left)
        walk(n.right)

    walk(root)
    return out


class Counter:
    def total(self, root):
        def count(node):
            if node is None:
                return 0
            return 1 + count(node.left) + count(node.right)

        return count(root)

    def depth(self, node):
        # a lambda that re-enters the method it is defined in
        children = map(lambda child: self.depth(child), node.children)
        return 1 + max(children, default=0)


def outer(n):
    def inner(m):
        return outer(m)

    return inner(n)
