"""Iterated comultiplication of basis tuples by plain recursion, as a test
reference for hopf.sweedler_legs.

Delta^(n)(e_i) is the sum over the rows (u, w) of Delta(e_i) of
e_u (x) Delta^(n-1)(e_w); each leg of a tuple is expanded that way and the
legs are multiplied out.  Nothing is imported from hopfcross.hopf: no
expand_leg, no comult_power table.
"""


def _comult_power(h, i: int, n: int) -> dict:
    field = h.field
    if n == 1:
        return {(i,): field.one}
    out: dict = {}
    for (u, w), c in h.comult[i].items():
        for rest, cr in _comult_power(h, w, n - 1).items():
            key = (u,) + rest
            total = field.add(out.get(key, field.zero), field.mul(c, cr))
            if field.is_zero(total):
                out.pop(key, None)
            else:
                out[key] = total
    return out


def sweedler_legs_reference(h, hs: tuple, count: int) -> dict:
    """Each leg of hs comultiplied into `count` legs, keys concatenated leg by leg."""
    field = h.field
    out = {(): field.one}
    for i in hs:
        power = _comult_power(h, i, count)
        nxt: dict = {}
        for key, c in out.items():
            for comps, cp in power.items():
                nxt[key + comps] = field.mul(c, cp)
        out = nxt
    return out
