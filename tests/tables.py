"""Hand-built character tables, holding rows that no builder writes."""
from spinonchars.affine import CharacterTable, dominant_weight


def hand_built(n, k, qmax, rows):
    """The table whose orbit of each weight of the (weight, coefficients)
    pairs `rows` holds those coefficients; a later weight of one orbit
    replaces an earlier one."""
    table = CharacterTable(n, k, qmax)
    table.orbits = {dominant_weight(w): list(coeffs) for w, coeffs in rows}
    return table
