"""``scipy.special``, imported the first time a name is read from here.

``_laws`` and ``distributions`` import this module as ``special``, so
``import pcomb`` loads numpy alone, and a call that evaluates no special
function never pays scipy.special's package init (about 0.25 s): ``pdist``
of the hypergeometric, noncentral-hypergeometric and geometric nulls,
``adjust`` for every method but stouffer, ``--help`` and usage errors.
The first name read imports scipy.special and checks that it has the
private binomial kernels ``_binom_pmf`` and ``_binom_cdf`` (the ones
``scipy.stats.binom`` calls), which are also read from here.  It then
keeps scipy.special's public names and the two kernels as attributes of
this module, scipy's own objects, and removes ``__getattr__``: a module
that has one is left out of the interpreter's fast attribute lookup, so
only without it does a later read cost what a plain module attribute does.
"""

from __future__ import annotations

import threading

_KERNELS = ("_binom_pmf", "_binom_cdf")
_lock = threading.Lock()


def __getattr__(name: str):
    if name.startswith("__"):   # introspection (copy, pickle, inspect) loads nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    kept = globals()
    with _lock:
        if "__getattr__" in kept:   # not yet loaded, by this thread or another
            from scipy import special
            from scipy.special import _ufuncs
            if not all(hasattr(_ufuncs, kernel) for kernel in _KERNELS):
                import scipy
                raise ImportError(
                    "pcomb needs scipy's private binomial kernels _binom_pmf and _binom_cdf "
                    f"(checked on scipy 1.17.1), which the installed scipy "
                    f"{scipy.__version__} does not have")
            kept.update({k: v for k, v in vars(special).items() if not k.startswith("_")})
            kept.update({kernel: getattr(_ufuncs, kernel) for kernel in _KERNELS})
            del kept["__getattr__"]
    try:
        return kept[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
