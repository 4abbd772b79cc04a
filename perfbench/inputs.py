"""Seeded input generators for the three benchmark workloads.

Every input the program sees is made here from the workload seed and
nothing else: the same seed gives byte-identical inputs, another seed
gives other inputs.  The program under test only ever receives the
generated files, vectors and orders.

``DEFAULT_SEED`` is the seed used while the benchmark was written;
``HELDOUT_SEED`` was kept out of that work, so a claimed gain can be
re-checked on inputs it was not tuned on.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Sequence, Tuple

from repro.core.generate import random_mealy
from repro.core.kiss import to_kiss
from repro.corpus import machine_to_netlist
from repro.rtl.blif import to_blif

DEFAULT_SEED = 1
HELDOUT_SEED = 7919


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    """A generator private to one (workload, seed, purpose) triple.

    String seeding is hashed by ``random`` itself, so the stream does
    not depend on ``PYTHONHASHSEED``.
    """
    return random.Random(f"{workload}:{seed}:{purpose}")


#: The ``corpus-wp`` corpus: (circuits, fewest states, most states).
#: The large circuits carry the store phases; the small ones are also
#: the slice the journaled phases run on, because journaling costs an
#: order of magnitude more per fault than the in-memory sweep.
LARGE_CIRCUITS = (12, 16, 48)
SMALL_CIRCUITS = (6, 6, 14)

#: Random input vectors per ``dlx`` trail netlist.
TRAIL_VECTORS = 1000


def _spread(count: int, lo: int, hi: int) -> List[int]:
    """``count`` state counts evenly spaced from ``lo`` to ``hi``."""
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def write_corpus(seed: int, directory: str) -> List[str]:
    """Write the ``corpus-wp`` circuits into ``directory``.

    Circuits alternate between KISS2 tables (``random_mealy`` ->
    ``to_kiss``) and BLIF netlists (``random_mealy`` ->
    ``machine_to_netlist`` -> ``to_blif``).  Each circuit's size --
    states, inputs, outputs -- is fixed by its position, and the seed
    draws only its transitions and outputs, so every seed costs about
    the same to run.  BLIF circuits get a power-of-two input alphabet
    so extraction sees no unused input codes.  Returns the names of
    the small circuits, which form the journaled slice.
    """
    rng = rng_for("corpus-wp", seed, "corpus")
    os.makedirs(directory, exist_ok=True)
    plan = [("large", n) for n in _spread(*LARGE_CIRCUITS)]
    plan += [("small", n) for n in _spread(*SMALL_CIRCUITS)]
    small: List[str] = []
    for index, (group, states) in enumerate(plan):
        outputs = 2 + index % 3
        if index % 2 == 0:
            name = f"c{index:02d}k"
            machine = random_mealy(
                rng, states, 3 + index // 2 % 3, outputs, name=name
            )
            text = to_kiss(machine).text
            path = os.path.join(directory, name + ".kiss2")
        else:
            name = f"c{index:02d}b"
            machine = random_mealy(
                rng, states, 2 << index // 2 % 2, outputs, name=name
            )
            text = to_blif(machine_to_netlist(machine).netlist, model=name)
            path = os.path.join(directory, name + ".blif")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        if group == "small":
            small.append(name)
    return small


def journal_cuts(
    seed: int, iteration: int, records: Dict[str, int]
) -> Dict[str, int]:
    """Per circuit, how many journal records survive the crash.

    At least one record is always cut, so every resume re-executes
    something; ``records`` maps circuit name to its journal length.
    """
    rng = rng_for("corpus-wp", seed, f"cut-{iteration}")
    return {name: rng.randrange(0, n) for name, n in sorted(records.items())}


def trail_vectors(
    seed: int, trail_inputs: Sequence[Tuple[str, Sequence[str]]]
) -> List[List[Dict[str, bool]]]:
    """``TRAIL_VECTORS`` uniform random input vectors for every Figure
    3(b) trail netlist, given as ``(label, input names)`` pairs."""
    rng = rng_for("dlx", seed, "trail-vectors")
    return [
        [{name: rng.random() < 0.5 for name in inputs}
         for _ in range(TRAIL_VECTORS)]
        for _label, inputs in trail_inputs
    ]


def farm_phase_order(seed: int, blocks: int) -> List[int]:
    """The order in which the farm's blocks take their test phases."""
    order = list(range(blocks))
    rng_for("farm-sparse", seed, "phase-order").shuffle(order)
    return order


def sample(rng: random.Random, items: Sequence, k: int) -> List:
    """``k`` items in population order (all of them when fewer)."""
    if len(items) <= k:
        return list(items)
    picked = sorted(rng.sample(range(len(items)), k))
    return [items[i] for i in picked]
