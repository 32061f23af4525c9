"""Workbench for functional coroutines.

Two calculi (catch/throw with global indices, getctx/setctx with local ones),
the safety judgments that carve out the coroutine-respecting fragment, the
translation between the calculi, three Krivine-style machines, and lock-step
checkers that validate the machines against each other. The library is its
modules (coroutine_vm.machines, coroutine_vm.bisim, ...); this package root
exports nothing.
"""
