"""Pinned frontend output: AST and token-stream digests of known inputs.

The inputs are every Verilog source in the ``test_opt`` design list plus the
4-LUT netlist text each one maps to (``map_aig(from_netlist(n), k=4)`` →
``to_netlist`` → ``netlist_to_verilog``).  For each input the table holds
three sha256 digests:

* the input text itself, so a change in mapping or emission shows up as
  "the input moved" rather than as a parser failure;
* ``repr(parse(text))``;
* ``repr`` of the ``(kind, value, line)`` token list (columns are left out).

The AST and token digests were recorded with the character-at-a-time lexer
and recursive ladder parser that preceded the master-pattern lexer and the
precedence-climbing parser, so they pin that the rewrite is output-exact.
"""

import hashlib

import pytest

from repro.netlist import elaborate
from repro.netlist.aig import from_netlist
from repro.netlist.emit import netlist_to_verilog
from repro.netlist.opt import map_aig
from repro.verilog import parse, tokenize

from test_opt import DESIGNS

#: input key -> (text sha256, AST repr sha256, token stream sha256)
PINS = {
    "src:rca": (
        "152afd0ca072b11316998e19689091626ffc58317a15f5be45b3c57f18ee4ca5",
        "aad71e6b10db5fea08e9dd69e2539464e72137625f9d37dd09c117dff6c482dd",
        "32d006509401f8f4ccbf3b5649ff6a572defc86e8c8e18103723fd422d054a18",
    ),
    "lut4:rca": (
        "f6757686b253e335f6d92bf3844a1bebcced3528c028c95d0c58aca1aeaa9c47",
        "849217e4878307bea5a98050ae8110af1669c882ee26e71631d85592317c6fd6",
        "b07f282cfa87b4c11c8b4b93f135e6435cc73c510f63fec8703f36a9dc34b1dd",
    ),
    "src:alu": (
        "0d1875a97fbf420417f97192f8d8b38b766bef3713d32849db8f9e67b9fd5625",
        "1234bef5a12b6518264379821537829a1d584a0dedde5c45f97456a707d79e93",
        "eb63da41485607571336d9da40476230310e77f7899db11271d616b91ea0114b",
    ),
    "lut4:alu": (
        "373dd61c76623fa2fe146abab2186ef51185f74c6d7a9c04a1fff1710752e324",
        "c04f9ec52620342911d0d15d0b42f7917643fa0c88b53b6a8f96faf62b54312a",
        "1e6d5e4b3f727774712eb48a9b8d597d1f6033ea9e97ebe233948c352c7b758d",
    ),
    "lut4:alu_w8": (
        "281be446cbe3265859bc650840470ce352da0af62c138c6fbe451c645e60fbc9",
        "6a2847f06e21f72afb2b078d553d1ed0954399d929bd1392ef3071a6412750fa",
        "5ad1c6129fb8f59432addf47bd11afa5024477c52c99f7caa2077cb6b4f8054d",
    ),
    "src:counter": (
        "c90a1b824006369efe925ad382c7df6650f9d8c0b009899d3cf96d66c089afc9",
        "a061fd067b3ee9c91a575ad843a7c0262367e090af25a3c7cc0be3697e2daee8",
        "23f8658a4b45c253b6508c8c8943626069bfa49b8cdd50c9470286dfb66dd6f0",
    ),
    "lut4:counter": (
        "33eb44bbe696591aafdc76413b11781be8036bbd04bc18678d9507a0bfbd5768",
        "343ba4f27e7667501586caf282f2f23c1962f6e9cb4e62b31ab4f0d6b0fab89c",
        "3cfe3ba644ec6760eac0689069cbb58819a6913a500667a38769a4007db51f56",
    ),
    "src:fsm": (
        "a46043c8260e2a7eb177a2a53f8a3da300ccb2eab79675e40629aa1b7b70bb9c",
        "76e30973fab46b5487044c8252961caecd269fa55dcd201f57b324acc8fab1b4",
        "7495eecdd3f07c10f8bf5e9e7a8c4112a49c14e69ffe417a23e2cd848b2e5b16",
    ),
    "lut4:fsm": (
        "3cde42ed143ae3aa40dfc8a77d7357a454265754b5113cbe708513aeeef90cc5",
        "0710dd9479d4f96aed073e7810857b3424ff4fb68337d92eb1483c4c8e5b21db",
        "923edf3a806d640f4b3109e415885a209e458fdec1f6a261abb99887ef669b6e",
    ),
    "src:muxtree": (
        "471a080e6b2da66b5ff6f622459e25837c42e87d82581edd81aacbec042a3fcd",
        "296b3d8e7c571ab816a27db3b4c540fb33321166620fdc79f0718bdcbd84aaf3",
        "1383d2947408b305488573f73d00d9a771f536a53164d6544b289f2b3e9e3d5f",
    ),
    "lut4:muxtree": (
        "792d6734af6d9368c7789da681b02ac39563e2e3c0d5f94e33441ecba03c6ae1",
        "bc93e5f98e428eaa2e3727ad351569b71466c1848996008a5efe09f6bcd58ad1",
        "b4806e8eb9d5380488e087c3d6062367a47fec1c424d866a08a4f72b8b726b2c",
    ),
    "src:shifter": (
        "2b3301edd761bd4b705d06ef9e9e617b2fe3c3b177e7ddb42f533826f7e5ffc2",
        "35e9b94eb05aa57cab39d4528bd392b4468b78943166d8a5b9d8acd6e7b42d5f",
        "ee7b98914d9e2a0492fec8a3888a697c03f4081fd187fa0f2f79ed3297cfc366",
    ),
    "lut4:shifter": (
        "7fa62ffbe8a4ceb77b3b21724c311b96a44bdafeee0c6b83d28fc312d185dff7",
        "ccfc7f95972f868bd7d6fdb352f8a51bc3e167f8b86bda5c7c4a74d84d30e945",
        "b6a2385c0b00e09dcc266894b610b42e0059085fc520e3bd3283f179c73afe1d",
    ),
    "src:forloop": (
        "d83c60bbbcd57f09cc20feb8650106573afa63cbdc029d5bd491f0e3d428fd32",
        "a525aac50276d8ae01cb9e3f45e59b38081c47d80683eb0fc4db9682cd1f4be6",
        "db0cf6f513f490ef6e94bfb329d20b63ccf4f7569b0965ac9779021211728df7",
    ),
    "lut4:forloop": (
        "d2ab1dda8fa4503e3fbf78885d54a02f37e8bf3b3e9aa556d2c0264bea9421f0",
        "50272de61861f97f7d36aa647f81ffdc58e46021811c698d7288baee1f0efacd",
        "1b1530fc2f8066df8101d0674a4f48dafb482cb28570140146f98b4bee7ac30f",
    ),
    "src:shiftreg": (
        "b391b5a37d4380e55390b449ea6068d428367ff6bdb51233ab74a3581cd116e5",
        "0a122994dc99fb734368ab80a3b0f8f3977f6d1b93bd1aeb812fc7465cdcc2ad",
        "8fcc5ed84110272ce210ff603574425ed0a3858faa7bc46553f0df3a84a5d1ca",
    ),
    "lut4:shiftreg": (
        "53c5dfa171302535126bb06db86c6080a5a8746d1ce9764c585deda45b91716c",
        "34647fdeea395824b9f858d37772a036429ec58e12d85b6ecce1b49b8f21101d",
        "3f2a9133fce160253e1eccffb3235be29c12bf043acec8bb25027bc32943e7a6",
    ),
}


@pytest.fixture(scope="module")
def inputs():
    texts, seen = {}, set()
    for name, source, top, params in DESIGNS:
        if source not in seen:
            seen.add(source)
            texts[f"src:{name}"] = source
        netlist = elaborate(source, top=top, params=params)
        mapped = map_aig(from_netlist(netlist), k=4).to_netlist()
        texts[f"lut4:{name}"] = netlist_to_verilog(mapped)
    return texts


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_pins_cover_every_input(inputs):
    assert inputs.keys() == PINS.keys()


@pytest.mark.parametrize("key", sorted(PINS))
def test_parse_and_tokens_match_pins(inputs, key):
    text = inputs[key]
    text_sha, ast_sha, token_sha = PINS[key]
    assert _sha(text) == text_sha, "input text changed; re-record its pins"
    tokens = [(tok.kind, tok.value, tok.line) for tok in tokenize(text)]
    assert _sha(repr(tokens)) == token_sha
    assert _sha(repr(parse(text))) == ast_sha
