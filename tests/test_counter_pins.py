"""Keys and work counters of the serial algorithms, pinned.

Every serial algorithm replays its compares from batch-kernel decisions
(NL's pair batches, the row batches of TR, SI, IN and LO), and each must
give exactly the keys and ``AlgorithmStats`` counters of its per-pair
loop.  The values below are what the loops gave before row batches
replaced IN/LO's window batches and TR/SI's per-candidate row decisions,
on two shapes: the right end of Figure 11 (100 anticorrelated groups of 20,
spread .8, d=3), where windows hold most groups, and 40 groups of 45
records, where every pair spans several 1,024-pair kernel blocks.  The
keys are pinned as a digest of their sorted string forms.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.core.algorithms import make_algorithm
from repro.data.synthetic import SyntheticSpec, generate_grouped

SHAPES = {
    "fig11_right": SyntheticSpec(
        n_records=2000, avg_group_size=20, dimensions=3,
        distribution="anticorrelated", group_spread=0.8, seed=0,
    ),
    "multi_block": SyntheticSpec(
        n_records=1800, avg_group_size=45, dimensions=3,
        distribution="anticorrelated", group_spread=0.4, seed=1,
    ),
}

#: (shape, algorithm, policy) -> (survivors, keys digest, group_comparisons,
#: record_pairs_examined, bbox_shortcuts, groups_skipped, index_candidates,
#: stopping_rule_exits), at γ = .5.
PINS = {
    ("fig11_right", "NL", "paper"): (73, "36893e46b008472b", 4950, 3960000, 0, 0, 0, 0),
    ("fig11_right", "NL", "safe"): (73, "36893e46b008472b", 4950, 3960000, 0, 0, 0, 0),
    ("fig11_right", "TR", "paper"): (73, "36893e46b008472b", 4549, 3639200, 0, 174, 0, 0),
    ("fig11_right", "TR", "safe"): (73, "36893e46b008472b", 4819, 3314400, 0, 131, 0, 0),
    ("fig11_right", "SI", "paper"): (73, "36893e46b008472b", 4252, 3401600, 0, 625, 0, 0),
    ("fig11_right", "SI", "safe"): (73, "36893e46b008472b", 4599, 2942000, 0, 351, 0, 0),
    ("fig11_right", "IN", "paper"): (73, "36893e46b008472b", 7809, 6247200, 0, 570, 8463, 0),
    ("fig11_right", "IN", "safe"): (73, "36893e46b008472b", 6542, 4621200, 0, 27, 6615, 0),
    ("fig11_right", "LO", "paper"): (73, "36893e46b008472b", 7809, 1169294, 11, 570, 8463, 7247),
    ("fig11_right", "LO", "safe"): (73, "36893e46b008472b", 6542, 725231, 127, 27, 6615, 6045),
    ("multi_block", "NL", "paper"): (20, "bf1b68b52f95acd6", 780, 3089160, 0, 0, 0, 780),
    ("multi_block", "NL", "safe"): (20, "bf1b68b52f95acd6", 780, 3089160, 0, 0, 0, 780),
    ("multi_block", "TR", "paper"): (20, "bf1b68b52f95acd6", 624, 2471310, 0, 62, 0, 624),
    ("multi_block", "TR", "safe"): (20, "bf1b68b52f95acd6", 734, 2407815, 0, 46, 0, 734),
    ("multi_block", "SI", "paper"): (20, "bf1b68b52f95acd6", 364, 1441485, 0, 273, 0, 364),
    ("multi_block", "SI", "safe"): (20, "bf1b68b52f95acd6", 591, 1603845, 0, 189, 0, 591),
    ("multi_block", "IN", "paper"): (20, "bf1b68b52f95acd6", 564, 2233665, 0, 86, 832, 564),
    ("multi_block", "IN", "safe"): (20, "bf1b68b52f95acd6", 462, 1601910, 0, 13, 624, 462),
    ("multi_block", "LO", "paper"): (20, "bf1b68b52f95acd6", 564, 303820, 4, 86, 832, 529),
    ("multi_block", "LO", "safe"): (20, "bf1b68b52f95acd6", 462, 190892, 12, 13, 624, 434),
}


@lru_cache(maxsize=None)
def dataset(shape):
    return generate_grouped(SHAPES[shape])


@pytest.mark.parametrize("shape, algorithm, policy", sorted(PINS))
def test_keys_and_counters_are_pinned(shape, algorithm, policy):
    result = make_algorithm(algorithm, gamma=0.5, prune_policy=policy).compute(
        dataset(shape)
    )
    stats = result.stats
    digest = hashlib.sha256(repr(sorted(map(str, result.keys))).encode()).hexdigest()
    assert (
        len(result.keys),
        digest[:16],
        stats.group_comparisons,
        stats.record_pairs_examined,
        stats.bbox_shortcuts,
        stats.groups_skipped,
        stats.index_candidates,
        stats.stopping_rule_exits,
    ) == PINS[shape, algorithm, policy]
