"""Checks on `ellsw.bundle.Character` shared by the test modules."""

from ellsw.bundle import extend_character


def is_multiplicative(character) -> bool:
    """True iff rho(a) rho(b) = rho(ab) for every pair of keys of the group."""
    g = character.group
    d = character.zeta_order
    exps = character.exponents
    return all(
        (exps[a] + exps[b] - exps[g.mult(a, b)]) % d == 0 for a in g.keys for b in g.keys
    )


def trivial_rho(rho):
    """Wrap `rho` so that it returns the trivial character under the same
    generator names: a genuine character that no section certifies when
    rho(x) = -1."""

    def trivial(spec, group=None):
        character = rho(spec, group)
        character.exponents = [0] * len(character.exponents)
        return character

    return trivial


def twisted_rho(rho, root):
    """Wrap `rho` so that rho(h), on the scalar generator h, is multiplied by
    the scalar root of unity `root`, and re-extend over the group.  The
    result is a genuine character (for `root` of order dividing m) under the
    same generator names, and it is wrong on h alone."""

    def twisted(spec, group=None):
        character = rho(spec, group)
        group = character.group
        h, x, y = group.gens
        values = [character.value(h) * root, character.value(x), character.value(y)]
        out = extend_character(group, list(zip(group.gens, values)))
        out.generators = character.generators
        return out

    return twisted
