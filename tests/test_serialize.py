"""Pickle / content-hash round-trips for the picklable core.

The parallel engines (``check_equivalence(jobs=N)`` miter shards and
the ``repro.server`` worker pool) both depend on two properties of
:class:`Netlist` and :class:`AIG`:

* they survive pickling byte-exactly (same structure, same behaviour),
* :meth:`content_hash` is a *structural* identity — stable across
  re-elaboration and transport, changed by any semantic mutation —
  because it keys the service layer's result cache.

The designs under test are the benchmark generators themselves
(``perfbench/designs.py``, loaded read-only by path), so every shape the
benchmark exercises is also covered here.
"""

import importlib.util
import os
import pickle
import random
import sys

import pytest

from repro.netlist import (
    CompiledSim,
    compile_netlist,
    elaborate,
    from_netlist,
)
from repro.netlist.aig import AIG
from repro.netlist.logic import Netlist
from repro.netlist.sat import check_equivalence
from repro.netlist.sim import input_word_widths

_DESIGNS_PY = os.path.join(os.path.dirname(__file__), os.pardir,
                           "perfbench", "designs.py")
_spec = importlib.util.spec_from_file_location("_perfbench_designs",
                                               _DESIGNS_PY)
designs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = designs  # dataclasses resolve annotations here
_spec.loader.exec_module(designs)

DESIGNS = [designs.adder, designs.muxtree, designs.counter, designs.alu,
           designs.multiplier, designs.shift_add_multiplier]
WIDTH = 4


def _design_id(factory):
    return f"{factory.__name__}_design"


def _elaborated(factory, width=WIDTH):
    design = factory(width)
    return design.src, design.top, elaborate(design.src, top=design.top)


@pytest.fixture(params=DESIGNS, ids=_design_id)
def design(request):
    return _elaborated(request.param)


def test_netlist_pickle_round_trip(design):
    _, _, netlist = design
    clone = pickle.loads(pickle.dumps(netlist))
    assert isinstance(clone, Netlist)
    assert clone.content_hash() == netlist.content_hash()
    assert clone.input_names() == netlist.input_names()
    assert clone.output_names() == netlist.output_names()


def test_netlist_bytes_round_trip(design):
    _, _, netlist = design
    clone = Netlist.from_bytes(netlist.to_bytes())
    assert clone.content_hash() == netlist.content_hash()


def test_aig_round_trips(design):
    _, _, netlist = design
    aig = from_netlist(netlist)
    pickled = pickle.loads(pickle.dumps(aig))
    assert isinstance(pickled, AIG)
    assert pickled.content_hash() == aig.content_hash()
    assert pickled.num_ands == aig.num_ands
    assert AIG.from_bytes(aig.to_bytes()).content_hash() \
        == aig.content_hash()


def test_unpickled_netlist_passes_cec(design):
    # The transported design is not merely hash-equal: the full checker
    # proves it equivalent to the original (this is exactly what a
    # server worker does with a netlist it received over the pool).
    _, _, netlist = design
    clone = pickle.loads(pickle.dumps(netlist))
    assert check_equivalence(netlist, clone).equivalent


def test_unpickled_netlist_recompiles_in_sim(design):
    _, _, netlist = design
    clone = pickle.loads(pickle.dumps(netlist))
    rng = random.Random(2022)
    widths = input_word_widths(netlist)
    vectors = [{name: rng.getrandbits(width)
                for name, width in widths.items()} for _ in range(32)]
    original = CompiledSim(compile_netlist(netlist)).run_batch(vectors)
    transported = CompiledSim(compile_netlist(clone)).run_batch(vectors)
    assert transported == original


def test_content_hash_stable_under_reelaboration(design):
    src, name, netlist = design
    again = elaborate(src, top=name)
    assert again.content_hash() == netlist.content_hash()
    # Comment and whitespace churn is invisible to the structural hash —
    # the property the server's content-keyed result cache relies on.
    variant = elaborate("// tool banner\n" + src + "\n\n", top=name)
    assert variant.content_hash() == netlist.content_hash()


@pytest.mark.parametrize("factory", DESIGNS, ids=_design_id)
def test_content_hash_changes_on_width_mutation(factory):
    _, _, narrow = _elaborated(factory, WIDTH)
    _, _, wide = _elaborated(factory, WIDTH + 1)
    assert narrow.content_hash() != wide.content_hash()


def test_content_hash_changes_on_semantic_mutation():
    _, _, good = _elaborated(designs.shift_add_multiplier)
    bug = designs.shift_add_multiplier(WIDTH, bug=True)
    broken = elaborate(bug.src, top=bug.top)
    assert broken.content_hash() != good.content_hash()
    # The AIG-level hash must split them too (it keys FRAIG-side reuse).
    assert from_netlist(broken).content_hash() \
        != from_netlist(good).content_hash()


def test_pickle_drops_caches(design):
    # The codec must not smuggle memoised solver/simulation state: a
    # clone starts cold but hashes identically after use.
    _, _, netlist = design
    netlist.content_hash()  # populate the hash cache
    clone = pickle.loads(pickle.dumps(netlist))
    assert clone.content_hash() == netlist.content_hash()
