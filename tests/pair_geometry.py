"""Geometric facts about two-user placements shared by several test modules."""


def closer_to_near_user(layout, x_star: float, slack: float = 1e-9) -> bool:
    """Whether the placement sides with the user nearer the waveguide; layout is ((x1, y1), (x2, y2)).

    The throughput-optimal position is never farther (along x) from the user
    with the smaller |y| than from the other one.  Ties in |y| require
    equality within slack.
    """
    (x1, y1), (x2, y2) = layout
    d1 = abs(x_star - x1)
    d2 = abs(x_star - x2)
    ok = True
    if abs(y1) <= abs(y2):
        ok = ok and d1 <= d2 + slack
    if abs(y2) <= abs(y1):
        ok = ok and d2 <= d1 + slack
    return ok
