"""Workbench for functional coroutines.

Two calculi (catch/throw with global indices, getctx/setctx with local ones),
the safety judgments that carve out the coroutine-respecting fragment, the
translation between the calculi, three Krivine-style machines, and lock-step
checkers that validate the machines against each other.
"""

from types import ModuleType as _Module

from .bisim import LockstepReport, R_diamond, R_star, lockstep
from .debruijn import to_debruijn_ct, to_debruijn_gs
from .errors import (
    NotSafeError,
    NotVisibleError,
    OpenMuTermError,
    OpenTermError,
    ParseError,
    UnboundNameError,
    UnsafeLocalIndexError,
    WorkbenchError,
)
from .machines import (
    MACHINES,
    RunResult,
    StateCT,
    StateGS,
    StateIT,
    TraceEvent,
    initial_ct,
    initial_gs,
    initial_it,
    run,
    step,
)
from .gen import gen_ct_db, gen_gs_db, gen_named_ct, gen_named_gs
from .parser import parse, parse_ct, parse_gs
from .plist import NIL, PList, plist
from .safety import UseSets, is_safe, safe_db, safe_named, use_sets
from .terms import (
    App,
    Catch,
    Lam,
    NApp,
    NCatch,
    NLam,
    NThrow,
    NVar,
    Throw,
    Var,
    is_closed_ct,
    is_scoped_gs,
    print_term,
)
from .translate import down, lift

# Every name imported above is exported; the submodules themselves are not.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _Module)
)
