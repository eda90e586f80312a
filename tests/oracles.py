"""Reference computations the tests compare the package against.

They share no code with mvtcheck.
"""


def central_difference(f, x: float, h: float) -> float:
    """Symmetric difference quotient (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)
