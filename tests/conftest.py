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
