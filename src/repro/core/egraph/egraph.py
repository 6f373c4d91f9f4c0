"""An e-graph over logical compute graphs.

An *e-graph* (equality graph) compactly represents a congruence relation
over terms: every **e-class** is a set of equivalent **e-nodes**, and every
e-node's children point at e-classes rather than concrete terms, so one
e-graph of ``n`` nodes can stand for exponentially many equivalent
expression trees.  Equality saturation (Tate et al.; SPORES for linear
algebra) grows the e-graph by applying rewrite rules non-destructively and
then *extracts* the cheapest represented term — sidestepping the
phase-ordering problem of an ordered pass pipeline.

The implementation follows the classic egg recipe:

* **hash-consing** (:attr:`EGraph._hashcons`) maps each canonical e-node to
  its e-class, which makes common-subexpression elimination free at
  construction time;
* a **union-find** over integer e-class ids implements merging, always
  keeping the *smallest* id as the canonical root so the result never
  depends on Python's hash seed;
* a **deterministic worklist** drives congruence-closure
  :meth:`EGraph.rebuild`: merged classes are queued, and repair processes
  them in sorted-id order, re-canonicalizing parent e-nodes and merging
  classes that have become congruent.

Everything iterates over insertion-ordered dicts or sorted integer ids —
never over sets or ``hash()``-ordered structures — so saturation and
extraction are bit-reproducible across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..atoms import atom_by_name
from ..formats import PhysicalFormat
from ..graph import ComputeGraph, GraphError
from ..types import MatrixType


class EGraphError(GraphError):
    """Raised when the e-graph is driven into an inconsistent state."""


class ENode(NamedTuple):
    """One operator application over e-classes (or a source leaf).

    ``op`` is the atomic-computation name (including fused-atom names) or
    the sentinel ``"src"`` for source leaves; ``children`` are e-class ids;
    ``param`` carries the scalar constant of ``scalar_mul`` vertices;
    ``src`` is the identity key of a source leaf (name + type + format) and
    ``None`` for operator nodes.

    A tuple subclass, so the hash-cons hashes and compares e-nodes at C
    speed; its hash and equality are those of the field tuple.
    """

    op: str
    children: tuple[int, ...] = ()
    param: float | None = None
    src: tuple | None = None

    @property
    def is_source(self) -> bool:
        return self.src is not None


@dataclass
class EClass:
    """One equivalence class of e-nodes."""

    cid: int
    #: Insertion-ordered set of member e-nodes (values unused).
    nodes: dict[ENode, None] = field(default_factory=dict)
    #: Parent e-nodes that reference this class, with their owning class id
    #: at registration time (re-canonicalized during ``rebuild``).
    parents: list[tuple[ENode, int]] = field(default_factory=list)
    #: Inferred matrix type; merged classes keep the shape (asserted equal)
    #: and the minimum sparsity estimate.
    mtype: MatrixType | None = None
    #: ``(name, mtype, format)`` when the class contains a source leaf.
    source: tuple[str, MatrixType, PhysicalFormat] | None = None
    #: Best-effort vertex name for extraction (first seen wins; declared
    #: output names override).
    name: str | None = None


def _source_key(name: str, mtype: MatrixType,
                fmt: PhysicalFormat) -> tuple:
    return ("src", name, mtype.dims, mtype.sparsity, fmt.layout.value,
            fmt.block_rows, fmt.block_cols)


class EGraph:
    """A growable e-graph over :class:`~repro.core.graph.ComputeGraph` terms."""

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._classes: dict[int, EClass] = {}
        self._hashcons: dict[ENode, int] = {}
        self._worklist: list[int] = []
        #: Roots that absorbed another class since the last rebuild: e-nodes
        #: over them may not yet be hash-consed under their canonical form.
        self._absorbed: set[int] = set()
        self._next_id = 0
        #: ``(e-class id, output name)`` per declared output of the seed
        #: graph, in declaration order.
        self.roots: tuple[tuple[int, str], ...] = ()
        #: Vertices merged away by hash-consing while seeding (free CSE).
        self.cse_merges = 0
        #: Member e-nodes summed over all classes, kept as a running count.
        self._n_nodes = 0
        #: The e-node cap, enforced *inside* :meth:`add_op` (a budget
        #: checked only between rules cannot stop one explosive rule
        #: sweep): once the hash-cons holds ``growth_limit`` e-nodes, adds
        #: of new e-nodes return None and count in :attr:`refused`, while
        #: hash-cons hits and merges of existing nodes continue.  Stopping
        #: early is always safe because the seed term is never removed.
        self.growth_limit: int | None = None
        #: New e-nodes :meth:`add_op` refused at the cap so far.
        self.refused = 0

    # ------------------------------------------------------------------
    # Union-find
    # ------------------------------------------------------------------
    def find(self, cid: int) -> int:
        parent = self._parent
        root = parent[cid]
        if root == cid:
            return cid
        while parent[root] != root:
            root = parent[root]
        while parent[cid] != root:  # path compression
            parent[cid], cid = root, parent[cid]
        return root

    def class_of(self, cid: int) -> EClass:
        return self._classes[self.find(cid)]

    def class_ids(self) -> tuple[int, ...]:
        """Canonical e-class ids in ascending order (deterministic)."""
        return tuple(sorted(self._classes))

    def nodes_of(self, cid: int) -> tuple[ENode, ...]:
        """Member e-nodes of a class, in insertion order."""
        return tuple(self.class_of(cid).nodes)

    @property
    def n_classes(self) -> int:
        return len(self._classes)

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def canonicalize(self, node: ENode) -> ENode:
        children = tuple(map(self.find, node.children))
        if children == node.children:
            return node
        return ENode(node.op, children, node.param, node.src)

    def _new_class(self, node: ENode, mtype: MatrixType) -> int:
        cid = self._next_id
        self._next_id += 1
        self._parent[cid] = cid
        cls = EClass(cid, {node: None}, [], mtype)
        self._classes[cid] = cls
        self._n_nodes += 1
        return cid

    def _add(self, node: ENode, mtype: MatrixType) -> int:
        node = self.canonicalize(node)
        hit = self._hashcons.get(node)
        if hit is not None:
            return self.find(hit)
        cid = self._new_class(node, mtype)
        self._hashcons[node] = cid
        for child in dict.fromkeys(node.children):
            self._classes[self.find(child)].parents.append((node, cid))
        return cid

    def add_source(self, name: str, mtype: MatrixType,
                   fmt: PhysicalFormat) -> int:
        node = ENode("src", (), None, _source_key(name, mtype, fmt))
        cid = self._add(node, mtype)
        cls = self._classes[self.find(cid)]
        if cls.source is None:
            cls.source = (name, mtype, fmt)
        return cid

    def add_op(self, op_name: str, children: tuple[int, ...],
               param: float | None = None) -> int | None:
        """Add an operator e-node; returns its e-class, or ``None`` when the
        atomic computation's type function rejects the child types (the
        e-graph analogue of the paper's ⊥) or the node would be new and the
        hash-cons has reached :attr:`growth_limit` (counted in
        :attr:`refused`)."""
        children = tuple(map(self.find, children))
        node = ENode(op_name, children, param)
        hit = self._hashcons.get(node)
        if hit is not None:
            return self.find(hit)
        if self.growth_limit is not None and \
                len(self._hashcons) >= self.growth_limit:
            self.refused += 1
            return None
        in_types = []
        for c in children:
            mtype = self._classes[c].mtype
            if mtype is None:
                return None
            in_types.append(mtype)
        op = atom_by_name(op_name)
        out_type = op.out_type(*in_types)
        if out_type is None:
            return None
        return self._add(node, out_type)

    def set_name(self, cid: int, name: str, override: bool = False) -> None:
        cls = self.class_of(cid)
        if override or cls.name is None:
            cls.name = name

    # ------------------------------------------------------------------
    # Merging + congruence closure
    # ------------------------------------------------------------------
    def merge(self, a: int, b: int) -> bool:
        """Union two e-classes; returns True when they were distinct.

        The smaller canonical id always wins, so merge results are a pure
        function of insertion order (never of ``hash()``).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        root, other = (ra, rb) if ra < rb else (rb, ra)
        keep, gone = self._classes[root], self._classes[other]
        self._merge_types(keep, gone)
        members = len(keep.nodes) + len(gone.nodes)
        keep.nodes.update(gone.nodes)
        self._n_nodes -= members - len(keep.nodes)
        keep.parents.extend(gone.parents)
        if keep.source is None:
            keep.source = gone.source
        if keep.name is None:
            keep.name = gone.name
        self._parent[other] = root
        del self._classes[other]
        self._worklist.append(root)
        self._absorbed.add(root)
        return True

    @staticmethod
    def _merge_types(keep: EClass, gone: EClass) -> None:
        a, b = keep.mtype, gone.mtype
        if a is None or b is None:
            keep.mtype = a or b
            return
        if a.dims != b.dims:
            raise EGraphError(
                f"merging e-classes of different shapes: {a} vs {b} "
                "(a rewrite rule equated non-equal terms)")
        # Equivalent terms may carry different sparsity *estimates* (e.g.
        # (AB)C vs A(BC)); keep the tighter one for cost guidance.
        if b.sparsity < a.sparsity:
            keep.mtype = b

    def rebuild(self) -> None:
        """Restore congruence closure after a batch of merges.

        Processes the worklist of merged roots in sorted order; for each,
        re-canonicalizes the parent e-nodes, repairs the hashcons, and
        merges classes that own e-nodes which have become identical
        (congruent) — repeating until the worklist drains.
        """
        while self._worklist:
            todo = sorted({self.find(cid) for cid in self._worklist})
            self._worklist.clear()
            for cid in todo:
                if self.find(cid) == cid and cid in self._classes:
                    self._repair(cid)
        self._absorbed.clear()

    def settled(self, cids: tuple[int, ...]) -> bool:
        """True when no class of ``cids`` has absorbed another since the
        last :meth:`rebuild`.

        An e-node over such classes is then hash-consed under the same
        canonical children as after that rebuild, so looking it up again
        finds it; with a merge pending on a child it may not.
        """
        absorbed = self._absorbed
        if absorbed:
            find = self.find
            for cid in cids:
                if find(cid) in absorbed:
                    return False
        return True

    def _repair(self, cid: int) -> None:
        cls = self._classes[cid]
        old_parents = cls.parents
        cls.parents = []
        seen: dict[ENode, int] = {}
        for pnode, pcid in old_parents:
            self._hashcons.pop(pnode, None)
            canon = self.canonicalize(pnode)
            pcid = self.find(pcid)
            owner = self._hashcons.get(canon)
            if owner is not None and self.find(owner) != pcid:
                self.merge(owner, pcid)
                pcid = self.find(pcid)
            self._hashcons[canon] = pcid
            dup = seen.get(canon)
            if dup is not None and self.find(dup) != pcid:
                self.merge(dup, pcid)
                pcid = self.find(pcid)
            seen[canon] = pcid
            # Keep the owning class's node set canonical so rule matching
            # and extraction see up-to-date children.
            owner_cls = self._classes[self.find(pcid)]
            members = len(owner_cls.nodes)
            owner_cls.nodes.pop(pnode, None)
            owner_cls.nodes[canon] = None
            self._n_nodes += len(owner_cls.nodes) - members
            cls.parents.append((canon, pcid))

    # ------------------------------------------------------------------
    # Seeding from a compute graph
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: ComputeGraph) -> "EGraph":
        """Seed an e-graph with every vertex of ``graph``.

        Hash-consing merges structurally identical vertices on the way in
        (free CSE); the count is recorded in :attr:`cse_merges`.
        """
        eg = cls()
        mapping: dict[int, int] = {}
        for vid in graph.topological_order():
            v = graph.vertex(vid)
            if v.is_source:
                cid = eg.add_source(v.name, v.mtype, v.format)
            else:
                children = tuple(mapping[s] for s in v.inputs)
                maybe = eg.add_op(v.op.name, children, v.param)
                if maybe is None:  # pragma: no cover - graph was typed
                    raise EGraphError(
                        f"vertex {v.name!r} failed to re-type in the e-graph")
                cid = maybe
            mapping[vid] = cid
            eg.set_name(cid, v.name)
        eg.cse_merges = len(graph) - eg.n_classes
        roots = []
        for out in graph.outputs:
            cid = eg.find(mapping[out.vid])
            eg.set_name(cid, out.name, override=True)
            roots.append((cid, out.name))
        eg.roots = tuple(roots)
        return eg
