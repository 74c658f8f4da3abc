"""Reference character tables from the classical literature.

Symmetric-group rows are typed in from the standard printed tables, keyed by
cycle type so they are immune to class ordering. Dihedral rows come from the
closed formulas: two (or four) linear characters and the two-dimensional
characters r^k -> zeta^(hk) + zeta^(-hk), vanishing on reflections.

`expected_doc` renders the reference table as a loadable table document with
columns in the class order of the constructed group, which is how the test
suite compares them against computed tables.
"""

from repcorr.cyclo import Cyclo, zeta
from repcorr.groups import conjugacy, construct_group, parse_cycles

# name, dim, values by cycle type (partitions written largest part first)
SYMMETRIC_DATA = {
    2: [
        ("triv", 1, {(1, 1): 1, (2,): 1}),
        ("sgn", 1, {(1, 1): 1, (2,): -1}),
    ],
    3: [
        ("triv", 1, {(1, 1, 1): 1, (2, 1): 1, (3,): 1}),
        ("sgn", 1, {(1, 1, 1): 1, (2, 1): -1, (3,): 1}),
        ("std", 2, {(1, 1, 1): 2, (2, 1): 0, (3,): -1}),
    ],
    4: [
        ("triv", 1, {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1}),
        ("sgn", 1, {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1}),
        ("pair", 2, {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0}),
        ("std", 3, {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1}),
        ("stdsgn", 3, {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1}),
    ],
    5: [
        (
            "triv",
            1,
            {
                (1, 1, 1, 1, 1): 1,
                (2, 1, 1, 1): 1,
                (2, 2, 1): 1,
                (3, 1, 1): 1,
                (3, 2): 1,
                (4, 1): 1,
                (5,): 1,
            },
        ),
        (
            "sgn",
            1,
            {
                (1, 1, 1, 1, 1): 1,
                (2, 1, 1, 1): -1,
                (2, 2, 1): 1,
                (3, 1, 1): 1,
                (3, 2): -1,
                (4, 1): -1,
                (5,): 1,
            },
        ),
        (
            "std",
            4,
            {
                (1, 1, 1, 1, 1): 4,
                (2, 1, 1, 1): 2,
                (2, 2, 1): 0,
                (3, 1, 1): 1,
                (3, 2): -1,
                (4, 1): 0,
                (5,): -1,
            },
        ),
        (
            "stdsgn",
            4,
            {
                (1, 1, 1, 1, 1): 4,
                (2, 1, 1, 1): -2,
                (2, 2, 1): 0,
                (3, 1, 1): 1,
                (3, 2): 1,
                (4, 1): 0,
                (5,): -1,
            },
        ),
        (
            "five",
            5,
            {
                (1, 1, 1, 1, 1): 5,
                (2, 1, 1, 1): 1,
                (2, 2, 1): 1,
                (3, 1, 1): -1,
                (3, 2): 1,
                (4, 1): -1,
                (5,): 0,
            },
        ),
        (
            "fivesgn",
            5,
            {
                (1, 1, 1, 1, 1): 5,
                (2, 1, 1, 1): -1,
                (2, 2, 1): 1,
                (3, 1, 1): -1,
                (3, 2): -1,
                (4, 1): 1,
                (5,): 0,
            },
        ),
        (
            "six",
            6,
            {
                (1, 1, 1, 1, 1): 6,
                (2, 1, 1, 1): 0,
                (2, 2, 1): -2,
                (3, 1, 1): 0,
                (3, 2): 0,
                (4, 1): 0,
                (5,): 1,
            },
        ),
    ],
}


def _cycle_type(label: str, n: int) -> tuple[int, ...]:
    perm = parse_cycles(label)
    perm += tuple(range(len(perm), n))  # points the label leaves fixed
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            length += 1
            x = perm[x]
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _dihedral_state(label: str) -> tuple[int, int]:
    """Recover (rotation exponent, flip bit) from an element label."""
    flip = 0
    tail = label
    if label == "s" or label.startswith("s*"):
        flip = 1
        tail = "e" if label == "s" else label[2:]
    if tail == "e":
        k = 0
    elif tail == "r":
        k = 1
    else:
        k = int(tail.split("^", 1)[1])
    return k, flip


def _dihedral_rows(n: int):
    """Classical irreducible characters of the dihedral group of order 2n,
    as functions of the (rotation exponent, flip) class invariant."""
    rows = [
        ("triv", 1, lambda k, f: Cyclo.from_rational(1)),
        ("reflsgn", 1, lambda k, f: Cyclo.from_rational(-1 if f else 1)),
    ]
    if n % 2 == 0:
        rows.append(("rotsgn", 1, lambda k, f: Cyclo.from_rational((-1) ** k)))
        rows.append(
            ("rotrefl", 1, lambda k, f: Cyclo.from_rational((-1) ** (k + f)))
        )
    h_max = (n - 1) // 2 if n % 2 else n // 2 - 1
    for h in range(1, h_max + 1):
        def two_dim(k, f, h=h):
            if f:
                return Cyclo.from_rational(0)
            return zeta(n, h * k) + zeta(n, -h * k)

        rows.append((f"rot{h}", 2, two_dim))
    return rows


def expected_doc(spec: str) -> str:
    """Reference table for `spec` in the table document format, columns in
    the class order of the constructed group."""
    family, _, arg = spec.partition(":")
    n = int(arg)
    g = construct_group(spec)
    cd = conjugacy(g)
    e = cd.exponent
    if family == "symmetric":
        types = [_cycle_type(g.label(r), n) for r in cd.representatives]
        rows = [
            (name, dim, [Cyclo.from_rational(data[t]) for t in types])
            for name, dim, data in SYMMETRIC_DATA[n]
        ]
    elif family == "dihedral":
        states = [_dihedral_state(g.label(r)) for r in cd.representatives]
        rows = [
            (name, dim, [fn(k, f) for k, f in states])
            for name, dim, fn in _dihedral_rows(n)
        ]
    else:
        raise ValueError(f"no reference data for {spec!r}")
    lines = [f"group {spec}", f"classes {cd.count}", f"zeta {e}"]
    for name, dim, vals in rows:
        rendered = " | ".join(v.to_conductor(e).text() for v in vals)
        lines.append(f"irrep {name} dim {dim} : {rendered}")
    return "\n".join(lines) + "\n"
