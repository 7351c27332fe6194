"""Checks on `ellsw.bundle.Character`, and wrong generator tables and labels,
shared by the test modules."""


def is_multiplicative(character) -> bool:
    """True iff rho(a) rho(b) = rho(ab) for every pair of keys of the group."""
    g = character.group
    d = character.zeta_order
    exps = character.exponents
    return all(
        (exps[a] + exps[b] - exps[g.mult(a, b)]) % d == 0 for a in g.keys for b in g.keys
    )


def trivial_rho(table):
    """Wrap `generator_table` so that it returns the trivial character under
    the same generator names: a genuine character that no section certifies
    when rho(x) = -1."""

    def trivial(spec):
        return [(name, 0) for name, _ in table(spec)]

    return trivial


def twisted_rho(table, k):
    """Wrap `generator_table` so that rho(h), on the scalar generator h, is
    multiplied by mu_2m^k.  For even k, mu_2m^k has order dividing m, so the
    table is still a character under the same generator names, and it is
    wrong on h alone."""

    def twisted(spec):
        (h, e), *rest = table(spec)
        return [(h, (e + k) % (2 * spec.m)), *rest]

    return twisted


def labels_by_key_mod_3(family_model):
    """Wrap `family_model` so that its models label key k with their label
    k mod 3: a partition that splits cyclic subgroups where chi is not 0."""

    def relabelled(spec):
        model = family_model(spec)
        model.label = lambda key: model.labels[key % 3]
        return model

    return relabelled
