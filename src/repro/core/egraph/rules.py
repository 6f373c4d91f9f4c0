"""The shared rewrite-rule table.

One table (:data:`RULE_TABLE`) declares every algebraic identity the
optimizer knows.  Each entry names the ordered pipeline pass that
implements the same identity family (``pipeline_pass``), or ``None`` for
the sum-product/distributivity identities only equality saturation can
exploit — a fixed pass order cannot apply them speculatively because they
temporarily *increase* cost until a later identity pays off.

:data:`PIPELINE_PASS_ORDER` — the pass order used by
``repro.core.rewrites.pipeline`` — is *derived* from this table, so the two
engines cannot drift: adding a rule family here either maps onto an
existing pass or is explicitly marked saturation-only.

Unlike the pipeline passes, e-graph rules are **not** cost-guided: they add
every equivalent form non-destructively, and the catalog cost model enters
once, at extraction (see :mod:`repro.core.egraph.extract`).  Bump
:data:`RULESET_VERSION` whenever a rule (or a default saturation budget)
changes behaviour — the version is folded into plan-cache fingerprints so
stale plans are never served across rule-set revisions.

Each rule keeps a record (``done``) of the matches it has applied *in
full*: every add returned an e-class and the merge ran.  Repeating such a
match can only hit the hash-cons and merge classes that are already one,
so the rule skips it on later sweeps — provided no class its adds read has
absorbed another since the last rebuild (:meth:`EGraph.settled`); while
such a merge is pending, an add may miss the hash-cons and build a
congruent duplicate, so the match runs again exactly as it would without
the record.  A match with a refused or ill-typed add is not recorded and
runs again.  Matches are keyed on the e-node objects they bind, so a match
whose e-nodes were re-canonicalized since counts as new.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from ..atoms import (
    BINARY_ELEMENTWISE,
    FUSABLE_BASES,
    FUSED_PREFIX,
    UNARY_MAPS,
    FusedStep,
    fused_atom,
    fused_steps,
)
from .egraph import EGraph, ENode

#: Fold into plan-cache fingerprints; bump on any rule/budget change.
RULESET_VERSION = 2

#: A rule's record of matches applied in full: match key -> the e-class
#: ids its adds read (children passed to ``add_op``).
Done = dict[Hashable, tuple[int, ...]]

_UNARY_NAMES = tuple(op.name for op in UNARY_MAPS)
_ELEMENTWISE_NAMES = tuple(op.name for op in BINARY_ELEMENTWISE)
_FUSABLE_BASE_NAMES = tuple(op.name for op in FUSABLE_BASES)
#: add/sub distribute over matmul; elem_mul/elem_div do not.
_DISTRIBUTIVE_NAMES = ("add", "sub")


@dataclass(frozen=True)
class RewriteRule:
    """One saturation rule: a matcher that grows the e-graph in place.

    ``apply(eg, done)`` scans a snapshot of the e-graph and returns the
    number of *effective* merges it performed (0 once the rule is
    saturated).  ``done`` is the rule's record of matches applied in full,
    each mapped to the e-classes its adds read: ``apply`` skips those it
    may and records the ones it completes.
    """

    name: str
    #: The ordered-pipeline pass covering the same identity family, or
    #: ``None`` for saturation-only identities.
    pipeline_pass: str | None
    description: str
    apply: Callable[[EGraph, Done], int]


def _snapshot(eg: EGraph) -> list[tuple[int, ENode]]:
    """A stable (class id, e-node) worklist: sorted class ids, insertion-
    ordered nodes.  Rules iterate this snapshot so additions made while
    matching are picked up next iteration, deterministically."""
    return [(cid, node) for cid in eg.class_ids()
            for node in eg.nodes_of(cid)]


def _skip(eg: EGraph, done: Done, match: Hashable) -> bool:
    """True when ``match`` was applied in full and repeating it now could
    only hit the hash-cons and merge nothing."""
    reads = done.get(match)
    return reads is not None and eg.settled(reads)


def _merged(eg: EGraph, cid: int, new_cid: int | None, done: Done,
            match: Hashable, reads: tuple[int, ...]) -> int:
    """Merge ``cid`` with the class the match built and record the match
    as applied in full, with the classes its adds read.  A refused or
    ill-typed add (None) is not recorded, so the match runs again."""
    if new_cid is None:
        return 0
    done[match] = reads
    return 1 if eg.merge(cid, new_cid) else 0


# ----------------------------------------------------------------------
# cse — structural sharing (free via hash-consing)
# ----------------------------------------------------------------------
def _r_hashcons_cse(eg: EGraph, done: Done) -> int:
    """No-op: hash-consing already merges structurally identical e-nodes
    at insertion and during ``rebuild``.  The entry exists so the table
    covers every pipeline pass."""
    return 0


# ----------------------------------------------------------------------
# transpose — pushdown / elimination
# ----------------------------------------------------------------------
def _r_double_transpose(eg: EGraph, done: Done) -> int:
    n = 0
    for cid, node in _snapshot(eg):
        if node.op != "transpose":
            continue
        for inner in eg.nodes_of(node.children[0]):
            if inner.op != "transpose" or _skip(eg, done, (node, inner)):
                continue
            n += _merged(eg, cid, eg.find(inner.children[0]),
                         done, (node, inner), ())
    return n


def _r_transpose_matmul(eg: EGraph, done: Done) -> int:
    """(A @ B)^T = B^T @ A^T, in both directions."""
    n = 0
    for cid, node in _snapshot(eg):
        if node.op == "transpose":
            for mm in eg.nodes_of(node.children[0]):
                if mm.op != "matmul" or _skip(eg, done, (node, mm)):
                    continue
                a, b = mm.children
                bt = eg.add_op("transpose", (b,))
                at = eg.add_op("transpose", (a,))
                if bt is None or at is None:
                    continue
                n += _merged(eg, cid, eg.add_op("matmul", (bt, at)),
                             done, (node, mm), (a, b, bt, at))
        elif node.op == "matmul":
            p, q = node.children
            for tp in eg.nodes_of(p):
                if tp.op != "transpose":
                    continue
                for tq in eg.nodes_of(q):
                    match = (node, tp, tq)
                    if tq.op != "transpose" or _skip(eg, done, match):
                        continue
                    x, y = tq.children[0], tp.children[0]
                    inner = eg.add_op("matmul", (x, y))
                    if inner is None:
                        continue
                    n += _merged(eg, cid, eg.add_op("transpose", (inner,)),
                                 done, match, (x, y, inner))
    return n


def _r_transpose_elementwise(eg: EGraph, done: Done) -> int:
    """(A ∘ B)^T = A^T ∘ B^T for elementwise binaries, both directions."""
    n = 0
    for cid, node in _snapshot(eg):
        if node.op == "transpose":
            for ew in eg.nodes_of(node.children[0]):
                if ew.op not in _ELEMENTWISE_NAMES \
                        or _skip(eg, done, (node, ew)):
                    continue
                a, b = ew.children
                at = eg.add_op("transpose", (a,))
                bt = eg.add_op("transpose", (b,))
                if at is None or bt is None:
                    continue
                n += _merged(eg, cid, eg.add_op(ew.op, (at, bt)),
                             done, (node, ew), (a, b, at, bt))
        elif node.op in _ELEMENTWISE_NAMES:
            p, q = node.children
            for tp in eg.nodes_of(p):
                if tp.op != "transpose":
                    continue
                for tq in eg.nodes_of(q):
                    match = (node, tp, tq)
                    if tq.op != "transpose" or _skip(eg, done, match):
                        continue
                    x, y = tp.children[0], tq.children[0]
                    inner = eg.add_op(node.op, (x, y))
                    if inner is None:
                        continue
                    n += _merged(eg, cid, eg.add_op("transpose", (inner,)),
                                 done, match, (x, y, inner))
    return n


# ----------------------------------------------------------------------
# reassociate — matmul chain reassociation
# ----------------------------------------------------------------------
def _r_matmul_assoc(eg: EGraph, done: Done) -> int:
    """(A B) C = A (B C), explored from both sides."""
    n = 0
    for cid, node in _snapshot(eg):
        if node.op != "matmul":
            continue
        a, b = node.children
        for left in eg.nodes_of(a):
            if left.op != "matmul" or _skip(eg, done, (node, left, 0)):
                continue
            x, y = left.children
            inner = eg.add_op("matmul", (y, b))
            if inner is not None:
                n += _merged(eg, cid, eg.add_op("matmul", (x, inner)),
                             done, (node, left, 0), (y, b, x, inner))
        for right in eg.nodes_of(b):
            if right.op != "matmul" or _skip(eg, done, (node, right, 1)):
                continue
            x, y = right.children
            inner = eg.add_op("matmul", (a, x))
            if inner is not None:
                n += _merged(eg, cid, eg.add_op("matmul", (inner, y)),
                             done, (node, right, 1), (a, x, inner, y))
    return n


# ----------------------------------------------------------------------
# scalars — scalar-multiplication placement
# ----------------------------------------------------------------------
def _r_scalar_collapse(eg: EGraph, done: Done) -> int:
    """b * (a * X) = (a·b) * X."""
    n = 0
    for cid, node in _snapshot(eg):
        if node.op != "scalar_mul" or node.param is None:
            continue
        for inner in eg.nodes_of(node.children[0]):
            if inner.op != "scalar_mul" or inner.param is None \
                    or _skip(eg, done, (node, inner)):
                continue
            x = inner.children[0]
            n += _merged(eg, cid, eg.add_op(
                "scalar_mul", (x,), node.param * inner.param),
                done, (node, inner), (x,))
    return n


def _r_scalar_matmul(eg: EGraph, done: Done) -> int:
    """c * (A @ B) = (c·A) @ B = A @ (c·B), all three forms equated."""
    n = 0
    for cid, node in _snapshot(eg):
        if node.op == "scalar_mul" and node.param is not None:
            for mm in eg.nodes_of(node.children[0]):
                if mm.op != "matmul":
                    continue
                a, b = mm.children
                if not _skip(eg, done, (node, mm, 0)):
                    sa = eg.add_op("scalar_mul", (a,), node.param)
                    if sa is not None:
                        n += _merged(eg, cid, eg.add_op("matmul", (sa, b)),
                                     done, (node, mm, 0), (a, sa, b))
                if not _skip(eg, done, (node, mm, 1)):
                    sb = eg.add_op("scalar_mul", (b,), node.param)
                    if sb is not None:
                        n += _merged(eg, cid, eg.add_op("matmul", (a, sb)),
                                     done, (node, mm, 1), (b, a, sb))
        elif node.op == "matmul":
            a, b = node.children
            for pos, operand in ((0, a), (1, b)):
                for sm in eg.nodes_of(operand):
                    if sm.op != "scalar_mul" or sm.param is None \
                            or _skip(eg, done, (node, sm, pos)):
                        continue
                    plain = (sm.children[0], b) if pos == 0 \
                        else (a, sm.children[0])
                    inner = eg.add_op("matmul", plain)
                    if inner is None:
                        continue
                    n += _merged(eg, cid, eg.add_op(
                        "scalar_mul", (inner,), sm.param),
                        done, (node, sm, pos), plain + (inner,))
    return n


def _r_scalar_transpose(eg: EGraph, done: Done) -> int:
    """c * A^T = (c * A)^T, both directions."""
    n = 0
    for cid, node in _snapshot(eg):
        if node.op == "scalar_mul" and node.param is not None:
            for t in eg.nodes_of(node.children[0]):
                if t.op != "transpose" or _skip(eg, done, (node, t)):
                    continue
                x = t.children[0]
                sa = eg.add_op("scalar_mul", (x,), node.param)
                if sa is not None:
                    n += _merged(eg, cid, eg.add_op("transpose", (sa,)),
                                 done, (node, t), (x, sa))
        elif node.op == "transpose":
            for sm in eg.nodes_of(node.children[0]):
                if sm.op != "scalar_mul" or sm.param is None \
                        or _skip(eg, done, (node, sm)):
                    continue
                x = sm.children[0]
                t = eg.add_op("transpose", (x,))
                if t is not None:
                    n += _merged(eg, cid, eg.add_op(
                        "scalar_mul", (t,), sm.param),
                        done, (node, sm), (x, t))
    return n


# ----------------------------------------------------------------------
# sum-product / distributivity (saturation-only)
# ----------------------------------------------------------------------
def _r_matmul_factor(eg: EGraph, done: Done) -> int:
    """A@B ± A@C = A@(B ± C) and B@A ± C@A = (B ± C)@A.

    The pay-off identity: it replaces two matrix multiplies by one, but an
    ordered pipeline cannot reach it when the two products are built
    separately — only the e-graph sees both factorings at once.
    """
    n = 0
    for cid, node in _snapshot(eg):
        if node.op not in _DISTRIBUTIVE_NAMES:
            continue
        p, q = node.children
        for m1 in eg.nodes_of(p):
            if m1.op != "matmul":
                continue
            for m2 in eg.nodes_of(q):
                if m2.op != "matmul":
                    continue
                (a1, b1), (a2, b2) = m1.children, m2.children
                match = (node, m1, m2, 0)
                if not _skip(eg, done, match) and \
                        eg.find(a1) == eg.find(a2):
                    inner = eg.add_op(node.op, (b1, b2))
                    if inner is not None:
                        n += _merged(eg, cid, eg.add_op(
                            "matmul", (a1, inner)),
                            done, match, (b1, b2, a1, inner))
                match = (node, m1, m2, 1)
                if not _skip(eg, done, match) and \
                        eg.find(b1) == eg.find(b2):
                    inner = eg.add_op(node.op, (a1, a2))
                    if inner is not None:
                        n += _merged(eg, cid, eg.add_op(
                            "matmul", (inner, b1)),
                            done, match, (a1, a2, inner, b1))
    return n


def _r_matmul_distribute(eg: EGraph, done: Done) -> int:
    """A@(B ± C) = A@B ± A@C and (B ± C)@A = B@A ± C@A (expansion
    direction; occasionally cheaper when one product collapses)."""
    n = 0
    for cid, node in _snapshot(eg):
        if node.op != "matmul":
            continue
        a, b = node.children
        for ew in eg.nodes_of(b):
            if ew.op not in _DISTRIBUTIVE_NAMES \
                    or _skip(eg, done, (node, ew, 1)):
                continue
            x, y = ew.children
            m1 = eg.add_op("matmul", (a, x))
            m2 = eg.add_op("matmul", (a, y))
            if m1 is not None and m2 is not None:
                n += _merged(eg, cid, eg.add_op(ew.op, (m1, m2)),
                             done, (node, ew, 1), (a, x, y, m1, m2))
        for ew in eg.nodes_of(a):
            if ew.op not in _DISTRIBUTIVE_NAMES \
                    or _skip(eg, done, (node, ew, 0)):
                continue
            x, y = ew.children
            m1 = eg.add_op("matmul", (x, b))
            m2 = eg.add_op("matmul", (y, b))
            if m1 is not None and m2 is not None:
                n += _merged(eg, cid, eg.add_op(ew.op, (m1, m2)),
                             done, (node, ew, 0), (x, y, b, m1, m2))
    return n


def _r_scalar_add_distribute(eg: EGraph, done: Done) -> int:
    """c·A ± c·B = c·(A ± B) (factoring direction only: it strictly
    reduces work, and the expansion direction adds nothing extraction
    could ever prefer)."""
    n = 0
    for cid, node in _snapshot(eg):
        if node.op not in _DISTRIBUTIVE_NAMES:
            continue
        p, q = node.children
        for s1 in eg.nodes_of(p):
            if s1.op != "scalar_mul" or s1.param is None:
                continue
            for s2 in eg.nodes_of(q):
                match = (node, s1, s2)
                if s2.op != "scalar_mul" or s2.param != s1.param \
                        or _skip(eg, done, match):
                    continue
                x, y = s1.children[0], s2.children[0]
                inner = eg.add_op(node.op, (x, y))
                if inner is not None:
                    n += _merged(eg, cid, eg.add_op(
                        "scalar_mul", (inner,), s1.param),
                        done, match, (x, y, inner))
    return n


# ----------------------------------------------------------------------
# fuse — elementwise fusion into fused atoms
# ----------------------------------------------------------------------
def _steps_of(node: ENode) -> tuple[FusedStep, ...] | None:
    """The fused-chain steps a node contributes, or None if unfusable."""
    if node.op.startswith(FUSED_PREFIX):
        return fused_steps(node.op)
    if node.op in _FUSABLE_BASE_NAMES or node.op in _UNARY_NAMES:
        param = node.param if node.op == "scalar_mul" else None
        return (FusedStep(node.op, param),)
    return None


def _r_fuse_unary(eg: EGraph, done: Done) -> int:
    """u(base(...)) = fused(base|u)(...), extending existing fused chains.

    Mirrors the pipeline's fusion pass, but non-destructively: the fused
    and unfused forms coexist and extraction picks whichever the catalog
    prices cheaper."""
    n = 0
    for cid, node in _snapshot(eg):
        if node.op not in _UNARY_NAMES:
            continue
        step = FusedStep(
            node.op, node.param if node.op == "scalar_mul" else None)
        for base in eg.nodes_of(node.children[0]):
            if _skip(eg, done, (node, base)):
                continue
            steps = _steps_of(base)
            if steps is None:
                continue
            try:
                atom = fused_atom(steps + (step,))
            except (ValueError, KeyError):
                continue
            n += _merged(eg, cid, eg.add_op(atom.name, base.children),
                         done, (node, base), base.children)
    return n


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
#: Every identity the optimizer knows, in application order.  The ordered
#: pipeline's pass order is derived from the ``pipeline_pass`` column.
RULE_TABLE: tuple[RewriteRule, ...] = (
    RewriteRule("cse", "cse",
                "structural sharing (free via hash-consing)",
                _r_hashcons_cse),
    RewriteRule("double-transpose", "transpose",
                "(X^T)^T = X", _r_double_transpose),
    RewriteRule("transpose-matmul", "transpose",
                "(A@B)^T = B^T @ A^T (both directions)",
                _r_transpose_matmul),
    RewriteRule("matmul-assoc", "reassociate",
                "(A@B)@C = A@(B@C) (both directions)", _r_matmul_assoc),
    RewriteRule("scalar-collapse", "scalars",
                "b*(a*X) = (a*b)*X", _r_scalar_collapse),
    RewriteRule("scalar-matmul", "scalars",
                "c*(A@B) = (c*A)@B = A@(c*B)", _r_scalar_matmul),
    RewriteRule("fuse-unary", "fuse",
                "u(base(...)) = fused(base|u)(...)", _r_fuse_unary),
    # Saturation-only identities: no ordered pass can apply these
    # speculatively, because they only pay off combined with later rules.
    RewriteRule("transpose-elementwise", None,
                "(A∘B)^T = A^T ∘ B^T (both directions)",
                _r_transpose_elementwise),
    RewriteRule("scalar-transpose", None,
                "c*(A^T) = (c*A)^T (both directions)", _r_scalar_transpose),
    RewriteRule("matmul-factor", None,
                "A@B ± A@C = A@(B±C) (sum-product factoring)",
                _r_matmul_factor),
    RewriteRule("matmul-distribute", None,
                "A@(B±C) = A@B ± A@C (expansion)", _r_matmul_distribute),
    RewriteRule("scalar-add-distribute", None,
                "c*A ± c*B = c*(A±B)", _r_scalar_add_distribute),
)

#: Pipeline pass order, derived from the shared table (first appearance
#: wins) so the two rewrite engines cannot drift.
PIPELINE_PASS_ORDER: tuple[str, ...] = tuple(dict.fromkeys(
    r.pipeline_pass for r in RULE_TABLE if r.pipeline_pass is not None))

#: Rules only equality saturation applies.
SATURATION_ONLY_RULES: tuple[str, ...] = tuple(
    r.name for r in RULE_TABLE if r.pipeline_pass is None)
