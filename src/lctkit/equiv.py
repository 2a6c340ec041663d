"""
Semantic equivalence of two LCTs, decided by exhaustive enumeration of
the shared control space under first-match semantics.

Benign differences (row/column permutation, don't-care expansion,
numeric literal style, shadowed extra rows, signal-name aliases) all
collapse under this comparison without per-case rules.  Data inputs are
compared as the pass-through cells that name them: two tables agree only
if they pass through the same input under the same control assignment.
Each table's row bitsets and outputs are those of its one ``sim``
kernel.  The textual check reads the row codes canonicalization keeps;
since a canonical form puts columns in key order, it reads the second
table as given unless a port is renamed, and a copy aligned to the
first table's column order is built only for the walk.  The walk reads
``analysis.match_blocks`` a block at a time and decides each distinct
joint match set once, where it first appears; only a set whose row pair
the oracle must settle is read point by point, in order, so the
counterexample is the first one in enumeration order.  The oracle,
``sim.symbolic_outputs``, scans the rows at each such point and
compiles nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Tuple

from . import analysis, expr as ex, sim
from .model import (
    CaseRow,
    ExprHeader,
    Lct,
    LctError,
    Port,
    PortMap,
    SignalHeader,
    SignalRef,
    kept,
)


class AlignError(LctError):
    """Column/port sets cannot be made to correspond."""


class CompareError(LctError):
    """Tables are not comparable (clocking mismatch, space too large)."""


class Verdict(Enum):
    TEXTUALLY_IDENTICAL = "textually-identical"
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not-equivalent"

    @property
    def equivalent(self) -> bool:
        return self is not Verdict.NOT_EQUIVALENT


@dataclass(frozen=True, slots=True)
class Counterexample:
    assignment: dict
    output: str
    value_a: str
    value_b: str

    def __str__(self):
        pairs = " ".join(f"{k}={v}" for k, v in self.assignment.items())
        return (f"at {pairs}: {self.output} = {self.value_a} "
                f"vs {self.value_b}")


@dataclass(slots=True)
class EquivResult:
    verdict: Verdict
    counterexample: Optional[Counterexample] = None
    normalizations: List[str] = field(default_factory=list)


def parse_aliases(text: str) -> Dict[str, str]:
    """Alias files map names in A to names in B, one 'a_name = b_name'
    per line."""
    aliases: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise AlignError(f"alias line {lineno}: expected a_name = b_name")
        a, b = (part.strip() for part in line.split("=", 1))
        aliases[a] = b
    return aliases


def _match_ports(a: Lct, b: Lct, aliases: Mapping[str, str]) -> Dict[str, str]:
    """Map each port name in b to its counterpart in a."""
    used_b = set()
    renames: Dict[str, str] = {}
    b_by_name = {p.name: p for p in b.ports.entries}
    b_by_fold = {}
    for p in b.ports.entries:
        b_by_fold.setdefault(p.name.lower(), p.name)
    if len(set(aliases.values())) != len(aliases):
        raise AlignError("alias map is not bijective")
    for port in a.ports.entries:
        candidates = [port.name, aliases.get(port.name),
                      b_by_fold.get(port.name.lower())]
        target = next((c for c in candidates
                       if c in b_by_name and c not in used_b), None)
        if target is None:
            raise AlignError(f"no counterpart for port {port.name}")
        other = b_by_name[target]
        if other.width != port.width:
            raise AlignError(
                f"port {port.name}: width {port.width} vs {other.width}")
        if other.direction != port.direction:
            raise AlignError(f"port {port.name}: direction mismatch")
        used_b.add(target)
        renames[target] = port.name
    leftover = set(b_by_name) - used_b
    if leftover:
        raise AlignError(f"unmatched ports in second table: "
                         f"{sorted(leftover)}")
    return renames


def _column_order(a_keys, b_keys, kind: str) -> List[int]:
    """The index in b_keys of each of a_keys, in a's order."""
    b_index = {key: i for i, key in enumerate(b_keys)}
    order = []
    for key in a_keys:
        if key not in b_index:
            raise AlignError(f"no counterpart for {kind} column {key}")
        order.append(b_index[key])
    matched = set(order)
    if len(matched) != len(b_keys):
        extra = [key for i, key in enumerate(b_keys) if i not in matched]
        raise AlignError(f"unmatched {kind} columns in second table: "
                         f"{extra}")
    return order


def _aligned(a: Lct, b: Lct, renames: Mapping[str, str]) -> Lct:
    """b renamed by ``renames`` (a name in b to one in a) with its
    columns in a's order; b itself when neither changes anything."""
    same_names = all(old == new for old, new in renames.items())
    conditions, results = b.conditions, b.results
    if not same_names:
        conditions = tuple(
            SignalHeader(renames.get(h.name, h.name))
            if isinstance(h, SignalHeader)
            else ExprHeader(ex.render(ex.rename(h.tree, renames)))
            for h in conditions)
        results = tuple(renames.get(name, name) for name in results)
    cond_order = _column_order([h.key for h in a.conditions],
                               [h.key for h in conditions], "condition")
    res_order = _column_order(a.results, results, "result")
    if same_names and cond_order == list(range(len(conditions))) \
            and res_order == list(range(len(results))):
        return b

    pick_inputs = analysis.picker(cond_order)
    pick_outputs = analysis.picker(res_order)
    if same_names:
        outputs = pick_outputs
        ports, feedback = b.ports, b.feedback
    else:
        def outputs(cells):
            return tuple(SignalRef(renames.get(c.name, c.name))
                         if isinstance(c, SignalRef) else c
                         for c in pick_outputs(cells))
        ports = PortMap(tuple(
            Port(p.direction, renames.get(p.name, p.name), p.width)
            for p in b.ports.entries))
        feedback = tuple((renames.get(r, r), renames.get(c, c))
                         for r, c in b.feedback)
    rows = tuple(CaseRow(pick_inputs(row.inputs), outputs(row.outputs),
                         label=row.label, comment=row.comment)
                 for row in b.rows)
    return dataclasses.replace(
        b, conditions=pick_inputs(conditions), results=pick_outputs(results),
        rows=rows, ports=ports, feedback=feedback)


def align(a: Lct, b: Lct,
          aliases: Optional[Mapping[str, str]] = None) -> Tuple[Lct, Lct]:
    """Rename b into a's namespace (exact names, then aliases, then
    case-insensitive matches) and reorder its columns to a's order.
    Each row of b is built once, renamed and reordered in one pass.
    When every port of b keeps its name and its condition and result
    columns are already in a's order, b comes back unchanged: the same
    object, expression headers spelled as b spells them."""
    return a, _aligned(a, b, _match_ports(a, b, aliases or {}))


def _canonical_key(table: Lct, enum_limit: int) -> tuple:
    """What the canonical form's serialization shows, name excluded:
    clocking, ports, column headers, and each cell by its
    ``analysis.cell_codes`` code, a constant by its value (an expression
    column may hold 1'd1 or 2'd1 alike)."""
    c = analysis.canonicalize(table, enum_limit)
    return (c.clocking, c.ports, tuple(h.text for h in c.conditions),
            c.results, kept(c, "_row_codes", analysis.row_codes))


def textual_match(a: Lct, b: Lct,
                  enum_limit: int = analysis.DEFAULT_ENUM_LIMIT) -> bool:
    """True iff the canonical serializations would be byte-identical
    (unit names excluded)."""
    return _canonical_key(a, enum_limit) == _canonical_key(b, enum_limit)


def _values_agree(va, vb) -> bool:
    # Unspecified behavior constrains nothing: a table that leaves an
    # assignment undefined agrees with any implementation choice there.
    if isinstance(va, sim.Unspecified) or isinstance(vb, sim.Unspecified):
        return True
    return va == vb


def compare(a: Lct, b: Lct, aliases: Optional[Mapping[str, str]] = None,
            enum_limit: int = analysis.DEFAULT_ENUM_LIMIT) -> EquivResult:
    """Decide equivalence by enumerating every control assignment and
    comparing symbolic outputs (holds and pass-throughs included)."""
    if a.clocking is not b.clocking:
        raise CompareError(
            f"clocking mismatch: {a.clocking.value} vs {b.clocking.value}")
    normalizations = []
    aliases = aliases or {}
    renames = _match_ports(a, b, aliases)
    renamed = any(old != new for old, new in renames.items())
    if renamed:
        b = _aligned(a, b, renames)
    else:
        # The columns must correspond, as for the walk; the canonical
        # form puts them in key order, so b as given keys the textual
        # check as its aligned copy would.
        _column_order([h.key for h in a.conditions],
                      [h.key for h in b.conditions], "condition")
        _column_order(a.results, b.results, "result")
    # An alias decided a pairing when it names the port of b that a
    # differently named port of a took: it is tried before case folding.
    if any(aliases.get(new) == old != new for old, new in renames.items()):
        normalizations.append("alias-renaming")
    normalizations.append("canonicalization")

    if textual_match(a, b, enum_limit):
        return EquivResult(Verdict.TEXTUALLY_IDENTICAL,
                           normalizations=normalizations)

    size = sim.control_space_size(a)
    if size > enum_limit:
        raise CompareError(
            f"control space of {size} assignments exceeds limit {enum_limit}")
    normalizations.extend(["semantic-enumeration", "literal-normalization"])
    if not renamed:
        b = _aligned(a, b, renames)

    # Walk both tables' rows as one bitset, a's rows in the low bits.  A
    # pass-through of a condition signal read as its cell only merges
    # equal values, so a joint match set whose row pair agrees is decided
    # once, where it first appears.  Any other set is settled by the
    # oracle at each of its assignments, in order, within its block.
    outputs_a, outputs_b = sim.row_values(a), sim.row_values(b)
    n = len(a.rows)
    low = (1 << n) - 1
    agrees = {}  # a joint match set -> whether its row pair agrees
    for assignments, masks in analysis.match_blocks(a, enum_limit, b):
        distinct = dict.fromkeys(masks)
        for m in distinct:
            if m not in agrees:
                va = outputs_a[sim.first_row(m & low)]
                vb = outputs_b[sim.first_row(m >> n)]
                agrees[m] = va == vb or all(map(_values_agree, va, vb))
        disputed = {m for m in distinct if not agrees[m]}
        if not disputed:
            continue
        for assignment in itertools.compress(
                assignments, map(disputed.__contains__, masks)):
            outs_a = sim.symbolic_outputs(a, assignment)
            outs_b = sim.symbolic_outputs(b, assignment)
            for name, va, vb in zip(a.results, outs_a, outs_b):
                if not _values_agree(va, vb):
                    counterexample = Counterexample(
                        sim.assignment_dict(a, assignment), name,
                        str(va), str(vb))
                    return EquivResult(Verdict.NOT_EQUIVALENT,
                                       counterexample, normalizations)
    return EquivResult(Verdict.EQUIVALENT, normalizations=normalizations)
