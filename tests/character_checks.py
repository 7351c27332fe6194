"""Checks on `ellsw.bundle.Character` shared by the test modules."""


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
