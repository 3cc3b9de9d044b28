"""Content-hash identity of :class:`Netlist` and :class:`AIG`.

:meth:`content_hash` is a *structural* identity — stable across
re-elaboration, changed by any semantic mutation — because it keys the
service layer's result cache.

The designs under test are the benchmark generators themselves
(``perfbench/designs.py``, loaded read-only by path), so every shape the
benchmark exercises is also covered here.
"""

import importlib.util
import os
import sys

import pytest

from repro.netlist import elaborate, from_netlist

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


#: ``elaborate(src).content_hash()`` of two benchmark designs: the keys of
#: the server's result cache.  Any change to the netlist's serialized form
#: (gate order, type spelling, field layout) moves them, and with them
#: every cached verdict.
PINNED_HASHES = {
    "alu_w8": (designs.alu, 8,
               "721c6970fa154ea1e911b7725799308a71c0e01677c67c9c153961bd69512bbe"),
    "counter_w6": (designs.counter, 6,
                   "42da1b29ca13b1b3fdd52cbafc37c73ae7f2dca5d720340fc33ceb41d45eee9a"),
}


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_content_hash_pinned(name):
    factory, width, digest = PINNED_HASHES[name]
    _, _, netlist = _elaborated(factory, width)
    assert netlist.content_hash() == digest
