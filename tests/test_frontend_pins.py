"""Pinned frontend output: AST and token-stream digests of known inputs.

The inputs are every Verilog source in the ``test_opt`` design list plus the
4-LUT netlist text each one maps to (``map_aig(from_netlist(n), k=4)`` →
``to_netlist`` → ``netlist_to_verilog``).  For each input the table holds
three sha256 digests:

* the input text itself, so a change in mapping or emission shows up as
  "the input moved" rather than as a parser failure;
* ``repr(parse(text))``;
* ``repr`` of the ``(kind, value, line)`` token list (columns are left out).

The ``src:*`` AST and token digests were recorded with the
character-at-a-time lexer and recursive ladder parser that preceded the
master-pattern lexer and the precedence-climbing parser, so they pin that
the rewrite is output-exact.  The ``lut4:*`` triples were re-recorded when
the emitter began inlining single-reader gates, which changed their text.
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
        "024b02cb998ddbd7c44f60514d1013523ec92ede0229f766fc50b6bc3e905190",
        "e91e90b24a259c0fdad74a7c2becda0788818584e0ae70f119c98c22bb60a07f",
        "b2dedaeba008dfa0638ae9a3c2de1ffbfc26ccc8ca3c91a6ef688edfc1e8e5c3",
    ),
    "src:alu": (
        "0d1875a97fbf420417f97192f8d8b38b766bef3713d32849db8f9e67b9fd5625",
        "1234bef5a12b6518264379821537829a1d584a0dedde5c45f97456a707d79e93",
        "eb63da41485607571336d9da40476230310e77f7899db11271d616b91ea0114b",
    ),
    "lut4:alu": (
        "3b44fe66284433ed3ffdcc509cea6d2c4525f6b9a1b8e6b5cd6a72a47ebf9b18",
        "5b1a40133c8644dc94fe1d23ca8d5295ad9823f4ccd46573c613629f77d3efe7",
        "953d70c0e8dbe85c4cecbf3d0bc4b7feaa2f62cb2b53a4ca15f7717e2b9a48b6",
    ),
    "lut4:alu_w8": (
        "11cc3fec9471b838b83b328715c9358949e0880c47645bf5c87f584013d6da3f",
        "a2ea99c7d1ed7ebeda9276fa92cc7d7ab13ae28c356ab4aafd3cdb7a218f2774",
        "5cb2a349028cd061c2cc9559594e913c527415dbde90e896df7c1078699f8f78",
    ),
    "src:counter": (
        "c90a1b824006369efe925ad382c7df6650f9d8c0b009899d3cf96d66c089afc9",
        "a061fd067b3ee9c91a575ad843a7c0262367e090af25a3c7cc0be3697e2daee8",
        "23f8658a4b45c253b6508c8c8943626069bfa49b8cdd50c9470286dfb66dd6f0",
    ),
    "lut4:counter": (
        "4568bceb1298705a0943df848d1a05974654ed2b5bf2a3194670222c4d00540c",
        "16fb600dbfa92bd7c1bc41691f5a6def697f27f1279fd2ad0bd727ab80fffc4a",
        "4d21c9699818bcc60ffb49ed6d5cf477b8d1a9ac4891b0e061d7818045a32636",
    ),
    "src:fsm": (
        "a46043c8260e2a7eb177a2a53f8a3da300ccb2eab79675e40629aa1b7b70bb9c",
        "76e30973fab46b5487044c8252961caecd269fa55dcd201f57b324acc8fab1b4",
        "7495eecdd3f07c10f8bf5e9e7a8c4112a49c14e69ffe417a23e2cd848b2e5b16",
    ),
    "lut4:fsm": (
        "18af13478dbd47c3fea5756f885f3b570c7c368b4b5f4f2c4a03541c0125485d",
        "fbf28c0a885aead4053190d1515c68405b7dd8071ea21a4bc564ddbbafd7c85b",
        "1b4c9cce27fa0b32e810073852724cc12c8608fca45076e0afc203717d1766d2",
    ),
    "src:muxtree": (
        "471a080e6b2da66b5ff6f622459e25837c42e87d82581edd81aacbec042a3fcd",
        "296b3d8e7c571ab816a27db3b4c540fb33321166620fdc79f0718bdcbd84aaf3",
        "1383d2947408b305488573f73d00d9a771f536a53164d6544b289f2b3e9e3d5f",
    ),
    "lut4:muxtree": (
        "79765ce78c207f7a5ead2210372b41530d6d061f52c6372184db1e2f93ae425f",
        "712efc0c69e614b7b46a386d2e610b5f767f43591bffe492ef95dff0127fd8ab",
        "79f16b73c10a7f6790a1e542697eadb2290957a8396fdfd213a942c2b6e689a6",
    ),
    "src:shifter": (
        "2b3301edd761bd4b705d06ef9e9e617b2fe3c3b177e7ddb42f533826f7e5ffc2",
        "35e9b94eb05aa57cab39d4528bd392b4468b78943166d8a5b9d8acd6e7b42d5f",
        "ee7b98914d9e2a0492fec8a3888a697c03f4081fd187fa0f2f79ed3297cfc366",
    ),
    "lut4:shifter": (
        "fc5867b9eb04c3b52cef8a031c49ee266c7b4288a37c6dd63afe3e2e4f5d4cbf",
        "93031fb115aa8e41572106368cba5c403d27bf54781f7d373bbb92063146d916",
        "fa1099068d6192e89f1f72ee940684e98a8d06951a3c76966ea099cdf747bbe0",
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
