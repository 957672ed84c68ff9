"""The workload files and their tables match the digests that
perfbench/reference.json records, rebuilt in process."""

import hashlib
import json
from pathlib import Path

from ellmat import from_arrangement, random_arrangement, serialize_arrangement

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
# Two of the 16 recorded seeds of each kind: ten files take about 0.5 s in
# process, all 80 about 4 s, most of it on k13n5 and k11n4-big.
SEEDS = ("1", "9")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _random_kwargs(random_args: list[str]) -> dict:
    """The random_arrangement arguments of `ellmat random` options, such as
    ["--k", "10", "--tau=-1,2,1", "--bound", "3"]; the seed is left out."""
    flat = [part for arg in random_args for part in arg.split("=", 1)]
    options = {name.lstrip("-"): value for name, value in zip(flat[::2], flat[1::2])}
    a, b, c = map(int, options.pop("tau").split(","))
    return {**{name: int(value) for name, value in options.items()}, "a": a, "b": b, "c": c}


def test_workload_files_and_tables_match_the_reference():
    kinds = json.loads(REFERENCE.read_text(encoding="utf-8"))["kinds"]
    assert len(kinds) == 5
    mismatches = []
    for kind, entry in sorted(kinds.items()):
        kwargs = _random_kwargs(entry["random_args"])
        for seed in SEEDS:
            digests = entry["inputs"][seed]
            arr = random_arrangement(seed=int(seed), **kwargs)
            matroid = from_arrangement(arr)
            tables = json.dumps({"rk": list(matroid.rk), "m": list(matroid.m)})
            for name, text in (("input", serialize_arrangement(arr)), ("tables", tables)):
                if _sha256(text) != digests[name]:
                    mismatches.append(f"{kind} seed {seed}: {name}")
    assert mismatches == []
