"""Golden corpus for character tables.

`table_golden.json` holds the sha256 of `format_table(character_table(g,
seed=s))` for every group of `ALL_SMALL_SPECS` and every group of the
`pipeline` benchmark workload, at split seeds 0 and 1. A change to the lift,
the split or the row order that alters any table byte shows up here.

The split draws no random number, so the seed does not reach the table: each
group's table is built once and checked against the hashes of both seeds,
and `test_seed_does_not_reach_the_table` builds one table at both seeds.

Regenerate the expected hashes, after a deliberate output change only:

    PYTHONPATH=src python3 tests/test_table_golden.py
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest
from test_groups import ALL_SMALL_SPECS

from repcorr.chartable import character_table, format_table
from repcorr.groups import construct_group

GOLDEN = Path(__file__).with_name("table_golden.json")

# The groups of the `pipeline` benchmark workload.
PIPELINE_SPECS = [
    "symmetric:6",
    "dihedral:20",
    "dihedral:60",
    "cyclic:30",
    "symmetric:5",
    "perm:[(1 2 3), (3 4 5)]",
    "dihedral:12",
]
SEEDS = (0, 1)
CASES = [f"{spec}@{seed}" for spec in dict.fromkeys(ALL_SMALL_SPECS + PIPELINE_SPECS)
         for seed in SEEDS]


@functools.cache
def _table_text(spec: str) -> str:
    return format_table(character_table(construct_group(spec), seed=0))


def table_sha256(case: str) -> str:
    spec, _ = case.rsplit("@", 1)
    return hashlib.sha256(_table_text(spec).encode()).hexdigest()


@functools.cache
def _expected() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert set(_expected()) == set(CASES)


@pytest.mark.parametrize("case", CASES)
def test_table_matches_golden(case):
    assert table_sha256(case) == _expected()[case]


def test_seed_does_not_reach_the_table():
    g = construct_group("symmetric:4")
    assert format_table(character_table(g, seed=1)) == format_table(character_table(g, seed=0))


def freeze() -> None:
    records = {case: table_sha256(case) for case in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}")


if __name__ == "__main__":
    freeze()
