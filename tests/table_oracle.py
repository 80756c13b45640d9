"""The entry a lookup table serves for a query Pi, found entry by entry.

``LookupTable.series`` finds it with one ``searchsorted`` over the valid
entries' midpoints; this walk states the rule plainly, so tests can check the
table against it.
"""


def nearest_valid_entry(table, pi):
    """The unflagged entry nearest ``pi``: the right-hand one on a midpoint, flagged entries skipped."""
    valid = [e for e in table.entries if e.flag is None]
    for left, right in zip(valid, valid[1:]):
        if pi < (left.pi + right.pi) / 2.0:
            return left
    return valid[-1]
