"""REPRO007 suppressed fixture: a nested walker with an inline waiver."""


def bounded(root):  # repro: allow[REPRO007]
    def walk(node, depth):
        if depth == 0 or node is None:
            return 0
        return 1 + walk(node.left, depth - 1)

    return walk(root, 8)
