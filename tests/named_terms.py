"""Named-term helpers shared by the spec tests."""

from coroutine_vm.terms import NApp, NCatch, NLam, NThrow, NVar


def subterms(t):
    yield t
    match t:
        case NApp(fn, arg):
            yield from subterms(fn)
            yield from subterms(arg)
        case NLam(_, body) | NCatch(_, body) | NThrow(_, body):
            yield from subterms(body)


def shadowed(term, rng):
    """term with every name mapped to one of a few: binders now shadow each other."""
    names = {}

    def rename(name):
        if name not in names:
            names[name] = name[0] + str(rng.randrange(3))
        return names[name]

    def walk(t):
        match t:
            case NVar(name):
                return NVar(rename(name))
            case NApp(fn, arg):
                return NApp(walk(fn), walk(arg))
            case NLam(name, body) | NCatch(name, body) | NThrow(name, body):
                return type(t)(rename(name), walk(body))
        raise TypeError(t)

    return walk(term)
