"""Reference computations the tests compare the package against.

They share no code with mvtcheck: the reference derivative is handed the
package's node classes and evaluator, and states every rule itself.
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


def reference_derivative(e, nodes):
    """The derivative of ``e`` by the recursive rules that ``differentiate``
    applies slot by slot on a tape: fold ``e``, then derive the folded tree,
    folding each node it builds.

    ``nodes`` is the module that holds the node classes ``Constant``,
    ``Neg``, ``Binary`` and ``Call``, ``evaluate`` and ``DomainError``: a
    node over constants folds to ``evaluate`` of it, and stays as it is
    where that raises.  The rules are read off the nodes' fields as
    :class:`ReferenceTape` reads them.
    """

    def is_constant(node):
        return hasattr(node, "value")

    def is_zero(node):
        return is_constant(node) and node.value == 0.0

    def is_one(node):
        return is_constant(node) and node.value == 1.0

    def folded(node):
        try:
            return nodes.Constant(nodes.evaluate(node, 0.0))
        except nodes.DomainError:
            return None

    def neg(child):
        if is_constant(child):
            return nodes.Constant(-child.value)
        return nodes.Neg(child)

    def binary(op, left, right):
        if is_constant(left) and is_constant(right):
            out = folded(nodes.Binary(op, left, right))
            if out is not None:
                return out
        if op == "+":
            if is_zero(left):
                return right
            if is_zero(right):
                return left
        elif op == "*":
            if is_zero(left) or is_zero(right):
                return nodes.Constant(0.0)
            if is_one(left):
                return right
            if is_one(right):
                return left
        elif op == "^" and is_one(right):
            return left
        return nodes.Binary(op, left, right)

    def call(fn, arg):
        if is_constant(arg):
            out = folded(nodes.Call(fn, arg))
            if out is not None:
                return out
        return nodes.Call(fn, arg)

    def simplify(node):
        if hasattr(node, "op"):
            return binary(node.op, simplify(node.left), simplify(node.right))
        if hasattr(node, "fn"):
            return call(node.fn, simplify(node.argument))
        if hasattr(node, "child"):
            return neg(simplify(node.child))
        return node

    def derive(node):
        if is_constant(node):
            return nodes.Constant(0.0)
        if hasattr(node, "child"):
            return neg(derive(node.child))
        if hasattr(node, "op"):
            u, v, op = node.left, node.right, node.op
            if op in ("+", "-"):
                return binary(op, derive(u), derive(v))
            if op == "*":
                return binary("+", binary("*", derive(u), v), binary("*", u, derive(v)))
            if op == "/":
                num = binary("-", binary("*", derive(u), v), binary("*", u, derive(v)))
                return binary("/", num, binary("^", v, nodes.Constant(2.0)))
            if is_constant(v):
                power = binary("^", u, nodes.Constant(v.value - 1.0))
                return binary("*", binary("*", v, power), derive(u))
            if is_constant(u):
                return binary("*", binary("*", node, call("ln", u)), derive(v))
            inner = binary("+", binary("*", derive(v), call("ln", u)), binary("/", binary("*", v, derive(u)), u))
            return binary("*", node, inner)
        if hasattr(node, "fn"):
            u, fn = node.argument, node.fn
            du = derive(u)
            if fn == "sin":
                return binary("*", call("cos", u), du)
            if fn == "cos":
                return binary("*", neg(call("sin", u)), du)
            if fn == "tan":
                return binary("/", du, binary("^", call("cos", u), nodes.Constant(2.0)))
            if fn == "exp":
                return binary("*", node, du)
            if fn == "ln":
                return binary("/", du, u)
            if fn == "sqrt":
                return binary("/", du, binary("*", nodes.Constant(2.0), node))
            return binary("/", binary("*", du, u), node)  # abs
        return nodes.Constant(1.0)  # x

    return derive(simplify(e))
