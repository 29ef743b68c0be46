"""The label-keyed union-find of the tests' reference closures."""


class UnionFind:
    """Plain union-find with path compression; nodes are labels."""

    def __init__(self):
        self.parent: dict[str, str] = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        """Merge the classes of x and y; True when they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True
