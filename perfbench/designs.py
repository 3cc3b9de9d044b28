"""Verilog design generators and the seeded inputs of the three workloads.

Every generator returns a :class:`Design`: top module name, source text
and input port widths.  The benchmark owns these generators, so a change
to the repository's other scripts cannot move its inputs.

:func:`flow_inputs`, :func:`cec_inputs` and :func:`server_round` build the
inputs of the workloads from a seed and a size (``"full"`` for measured
runs, ``"tiny"`` for the benchmark's own tests).  The seed draws only what
leaves the amount of work unchanged: simulation vectors, module-name salts
and job order.  Design sizes and job mixes are fixed per size, so medians
from different seeds are comparable.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Design:
    top: str
    src: str
    #: (input port name, width in bits) pairs.
    inputs: tuple[tuple[str, int], ...]
    #: Clocked designs are checked over multi-cycle vector sequences.
    sequential: bool = False


def adder(width: int) -> Design:
    return Design("adder", f"""
module adder #(parameter W = {width}) (
  input [W-1:0] a, input [W-1:0] b, input cin,
  output [W:0] sum
);
  assign sum = a + b + cin;
endmodule
""", (("a", width), ("b", width), ("cin", 1)))


def muxtree(width: int) -> Design:
    return Design("muxtree", f"""
module muxtree #(parameter W = {width}) (
  input [W-1:0] a, input [W-1:0] b, input [W-1:0] c, input [W-1:0] d,
  input [1:0] sel,
  output reg [W-1:0] y
);
  always @(*) begin
    case (sel)
      2'd0: y = a;
      2'd1: y = b;
      2'd2: y = c;
      default: y = d;
    endcase
  end
endmodule
""", (("a", width), ("b", width), ("c", width), ("d", width), ("sel", 2)))


def counter(width: int) -> Design:
    return Design("counter", f"""
module counter #(parameter W = {width}) (
  input clk, input rst, input en, input [W-1:0] load, input do_load,
  output reg [W-1:0] q
);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else if (do_load) q <= load;
    else if (en) q <= q + 1;
  end
endmodule
""", (("clk", 1), ("rst", 1), ("en", 1), ("load", width), ("do_load", 1)),
        sequential=True)


def alu(width: int) -> Design:
    # a + b and a - b appear twice on purpose: shared operands are what
    # structural hashing and rewriting exist for.
    return Design("alu", f"""
module alu #(parameter W = {width}) (
  input [W-1:0] a, input [W-1:0] b, input [2:0] op,
  output reg [W-1:0] y
);
  always @(*) begin
    case (op)
      3'd0: y = a + b;
      3'd1: y = (a + b) + 1;
      3'd2: y = a - b;
      3'd3: y = (a - b) - 1;
      3'd4: y = a & b;
      3'd5: y = a | b;
      3'd6: y = a ^ b;
      default: y = (a < b) ? a : b;
    endcase
  end
endmodule
""", (("a", width), ("b", width), ("op", 3)))


def multiplier(width: int) -> Design:
    """Carry-save array multiplier: structurally unlike ``a * b``, so a
    miter against :func:`shift_add_multiplier` needs the SAT solver."""
    return Design("multiplier", f"""
module multiplier #(parameter W = {width}) (
  input [W-1:0] a, input [W-1:0] b,
  output reg [2*W-1:0] p
);
  reg [2*W-1:0] aw;
  reg [2*W-1:0] row;
  reg [2*W-1:0] s;
  reg [2*W-1:0] c;
  reg [2*W-1:0] t;
  integer i;
  always @(*) begin
    aw = a;
    s = 0;
    c = 0;
    for (i = 0; i < W; i = i + 1) begin
      row = b[i] ? (aw << i) : 0;
      t = s ^ row ^ c;
      c = ((s & row) | (s & c) | (row & c)) << 1;
      s = t;
    end
    p = s + c;
  end
endmodule
""", (("a", width), ("b", width)))


def shift_add_multiplier(width: int, bug: bool = False) -> Design:
    """``a * b`` as the frontend lowers it; ``bug`` adds an off-by-one."""
    rhs = "a * b + 1" if bug else "a * b"
    return Design("shift_add_multiplier", f"""
module shift_add_multiplier #(parameter W = {width}) (
  input [W-1:0] a, input [W-1:0] b,
  output [2*W-1:0] p
);
  assign p = {rhs};
endmodule
""", (("a", width), ("b", width)))


def renamed(design: Design, suffix: str) -> Design:
    """The same design under module name ``<top>_<suffix>``.

    The module name is part of a netlist's content hash, so a renamed
    design is a new cache entry that needs the same proof work.
    """
    top = f"{design.top}_{suffix}"
    src = re.sub(rf"\bmodule {design.top}\b", f"module {top}", design.src,
                 count=1)
    return Design(top, src, design.inputs, design.sequential)


# -- flow ---------------------------------------------------------------------

FLOW_SIZES = {
    "full": ((alu, 16), (adder, 32), (muxtree, 16), (counter, 16),
             (multiplier, 6)),
    "tiny": ((alu, 4), (adder, 4), (muxtree, 2), (counter, 3),
             (multiplier, 3)),
}

#: Random vectors per combinational check; clocked designs get
#: ``CHECK_SEQUENCES`` sequences of ``CHECK_CYCLES`` cycles, each
#: starting from reset.
CHECK_VECTORS = 48
CHECK_SEQUENCES = 3
CHECK_CYCLES = 16


@dataclass
class FlowDesign:
    design: Design
    #: Vector sequences for the AST-interpreter check.
    sequences: list[list[dict[str, int]]] = field(default_factory=list)


def flow_inputs(seed: int, size: str = "full") -> list[FlowDesign]:
    rng = random.Random(seed)
    out = []
    for factory, width in FLOW_SIZES[size]:
        design = factory(width)
        if design.sequential:
            shape = [CHECK_CYCLES] * CHECK_SEQUENCES
        else:
            shape = [CHECK_VECTORS]
        sequences = [[{name: rng.getrandbits(bits)
                       for name, bits in design.inputs}
                      for _ in range(length)] for length in shape]
        if design.sequential:
            for seq in sequences:
                seq[0]["rst"] = 1
        out.append(FlowDesign(design, sequences))
    return out


# -- cec_xmul -----------------------------------------------------------------

CEC_WIDTHS = {"full": 5, "tiny": 3}


@dataclass(frozen=True)
class CecPair:
    label: str
    before: Design
    after: Design
    expect_equivalent: bool


def cec_inputs(seed: int, size: str = "full"
               ) -> tuple[list[CecPair], list[tuple[int, int]]]:
    """The two miters of one op, plus seeded ``(a, b)`` operand pairs the
    check step simulates against Python's ``a * b``."""
    w = CEC_WIDTHS[size]
    pairs = [
        CecPair("xmul", multiplier(w), shift_add_multiplier(w), True),
        CecPair("buggy", multiplier(w), shift_add_multiplier(w, bug=True),
                False),
    ]
    rng = random.Random(seed)
    operands = [(rng.getrandbits(w), rng.getrandbits(w)) for _ in range(32)]
    return pairs, operands


# -- server_mix ---------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One submission: sources, expected verdict and expected cache path.

    ``path`` is ``"cold"`` (solved, then written to the disk cache),
    ``"disk"`` (a comment-only variant: misses the alias map, hits the
    content-hash disk cache) or ``"alias"`` (a byte-identical repeat,
    answered from the daemon's in-memory alias map).
    """

    label: str
    before: str
    after: str
    expect_equivalent: bool
    path: str


def _self(design: Design) -> tuple:
    return (f"self_{design.top}", design, design, True)


def _cross(width: int, bug: bool = False) -> tuple:
    label = f"{'buggy' if bug else 'xmul'}{width}"
    return (label, multiplier(width), shift_add_multiplier(width, bug),
            not bug)


#: Cold jobs of one round, one tuple per client.  Both clients' lists
#: cost about the same, so neither idles long at the round barrier.  The
#: cross multipliers are the tail: W=5 and W=4 proofs are 1/6 of all
#: jobs, so p90 falls among them.
SERVER_COLD = {
    "full": (
        (_cross(5), _cross(4), _cross(4, bug=True), _self(alu(8)),
         _self(muxtree(8)), _self(counter(6))),
        (_cross(5), _cross(4), _cross(5, bug=True), _self(multiplier(4)),
         _self(adder(12)), _self(counter(10))),
    ),
    "tiny": (
        (_cross(3), _self(adder(3))),
        (_cross(3, bug=True), _self(alu(3))),
    ),
}
#: Per client: indexes into its cold list resubmitted byte-identically
#: (alias hits) and with a comment appended (disk hits).
REPEATS = {"full": ((1, 3, 4), (0, 3, 5)), "tiny": ((1,), (1,))}
VARIANTS = {"full": ((0, 2, 5), (1, 2, 4)), "tiny": ((0,), (0,))}


def server_round(seed: int, round_index: int, size: str = "full"
                 ) -> list[list[Job]]:
    """Per-client job sequences of one round of the server mix.

    Module names carry a salt drawn from ``(seed, round_index)``, so each
    round's cold jobs are new to both cache tiers.  A repeat or variant
    always follows its original in the same client's sequence; a
    closed-loop client has the original's result before it submits the
    follow-up, so every job's cache path is fixed whatever the timing.
    """
    rng = random.Random(f"{seed}/{round_index}")
    salt = f"r{round_index}x{rng.getrandbits(24):06x}"
    clients = []
    for c, cold in enumerate(SERVER_COLD[size]):
        originals = []
        for k, (label, before, after, expect) in enumerate(cold):
            suffix = f"{salt}c{c}j{k}"
            b = renamed(before, suffix)
            a = b if after is before else renamed(after, suffix)
            originals.append(Job(label, b.src, a.src, expect, "cold"))
        order = originals[:]
        rng.shuffle(order)
        follow = [(originals[k], "alias") for k in REPEATS[size][c]]
        follow += [(originals[k], "disk") for k in VARIANTS[size][c]]
        for original, path in follow:
            before, after = original.before, original.after
            if path == "disk":
                note = f"\n// resubmitted {rng.getrandbits(32):08x}\n"
                before, after = before + note, after + note
            job = Job(original.label, before, after,
                      original.expect_equivalent, path)
            at = rng.randint(order.index(original) + 1, len(order))
            order.insert(at, job)
        clients.append(order)
    return clients


def round_counts(size: str = "full") -> dict[str, int]:
    """Jobs per cache path in one round; the same for every round."""
    counts = {"cold": sum(len(c) for c in SERVER_COLD[size]),
              "alias": sum(len(r) for r in REPEATS[size]),
              "disk": sum(len(v) for v in VARIANTS[size])}
    counts["jobs"] = sum(counts.values())
    return counts


def server_designs(size: str = "full") -> list[Design]:
    """The distinct designs one round verifies (for its QoR metrics)."""
    seen: dict[str, Design] = {}
    for cold in SERVER_COLD[size]:
        for _, before, after, _ in cold:
            for design in (before, after):
                seen.setdefault(design.src, design)
    return list(seen.values())


def warmup_sources(count: int) -> list[str]:
    """Distinct trivial sources whose jobs fork and warm the pool workers."""
    return [f"module warm{k} (input a, input b, output y);\n"
            f"  assign y = a ^ b;\nendmodule\n" for k in range(count)]
