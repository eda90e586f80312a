"""Reference computations the tests compare the package against.

They share no code with mvtcheck.
"""


def central_difference(f, x: float, h: float) -> float:
    """Symmetric difference quotient (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)


class ReferenceTape:
    """A tape built by plain recursion: the distinct subexpressions of the
    roots added, children before their parent, left before right.

    A node is told apart by its fields alone: ``op`` (a binary node),
    ``fn`` (a call), ``child`` (a negation), ``value`` (a constant) or none
    (the variable).  It is keyed by its operator, function name, ``"-"``,
    ``"x"`` or its value's ``repr``, and its children's slots, and the
    first node object with a key holds its slot.  ``add(root)`` returns
    the slot of ``root``.
    """

    def __init__(self):
        self.nodes = []
        self.args = []
        self._keys = {}
        self._seen = {}  # id(node) -> (slot, node), which keeps node alive

    def add(self, node) -> int:
        seen = self._seen.get(id(node))
        if seen is not None:
            return seen[0]
        if hasattr(node, "op"):
            part, children = node.op, (node.left, node.right)
        elif hasattr(node, "fn"):
            part, children = node.fn, (node.argument,)
        elif hasattr(node, "child"):
            part, children = "-", (node.child,)
        elif hasattr(node, "value"):
            part, children = repr(node.value), ()
        else:
            part, children = "x", ()
        key = (part, *[self.add(child) for child in children])
        if key not in self._keys:
            self._keys[key] = len(self.nodes)
            self.nodes.append(node)
            self.args.append(key[1:])
        self._seen[id(node)] = (self._keys[key], node)
        return self._keys[key]
