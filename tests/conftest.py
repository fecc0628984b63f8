import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for the rest of the test and
    returns the list that receives the positional arguments of each call."""
    def install(owner, name):
        calls, original = [], getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls
    return install


def enumerate_parabolic(rs, nodes) -> list:
    """All elements of the standard parabolic on ``nodes``, by (length, w).

    Walks breadth-first from the identity: w r_i has length l(w) +- 1, so
    the products of one layer minus the layer before form the next length.
    Within a length layer the order is by index tuple.  For the tests' small
    types only: the program itself never enumerates a Weyl group.
    """
    gens = sorted(nodes)
    out, prev, layer = [], set(), {rs.identity}
    while layer:
        out += sorted(layer)
        prev, layer = layer, {rs.right_mul_simple(w, i) for w in layer for i in gens} - prev
    return out
