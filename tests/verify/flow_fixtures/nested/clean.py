"""REPRO007 negative fixtures: nested scopes that do not recurse."""


def scrape(port):
    return port


class Harness:
    def scrape(self):
        # the bare name is the module-level scrape(), not this method:
        # a class body is invisible to the functions inside it
        return scrape(self.port)

    def run(self, items):
        def helper(item):
            return item + 1

        def each(item):
            return helper(item)  # calls a sibling, not an enclosing def

        return [each(item) for item in items]


def shadowed(walk, root):
    def visit(node):
        return walk(node)  # the parameter, not a def

    return visit(root)
