"""Exact enumeration toolkit for noncrossing matchings of points on two
parallel lines, the staircase/fence/lacing families that share their
counting sequence, and the generating-function machinery behind them.

Submodules and the part-set names are imported on first access (PEP 562),
so a process pays only for the modules it uses.
"""
__version__ = "0.1.0"

_SUBMODULES = ("bijections", "counting", "families", "objects", "series", "verify")
_PARTSETS = ("AT_LEAST_TWO", "ODD", "ONE_TWO", "PartSet")

__all__ = [*_PARTSETS, *_SUBMODULES]


# The lookups import through __import__, which `python -X importtime` times;
# importlib.import_module would hide these imports from it.
def __getattr__(name: str):
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # binds the submodule in this namespace
        return globals()[name]
    if name in _PARTSETS:
        return getattr(__import__(f"{__name__}.partsets", fromlist=[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
