"""Admission-filtered pattern enumeration against the full cross product.

``OpImplementation.candidate_patterns`` narrows each input's catalog to the
formats that admit that input's type before walking the cross product.
The oracle here is the enumeration it replaced: every ``catalog ** arity``
entry through ``output_format``.  The two must yield the same patterns in
the same order, because every ``output_format`` returns None for an input
format that does not admit its type.  Checked on

* every ``(op, in_types)`` the context enumerates while planning the
  e-graph ablation families and the fig05/09/10 workloads at paper scale,
  under every rewrite engine (so fused operators are covered too), and
* Hypothesis-drawn type-correct inputs for every catalog operation:
  vectors, 1 x 1 matrices, sparse data, matrices larger than worker RAM
  and matrices smaller than one block.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import simsql_cluster
from repro.core import OptimizerContext
from repro.core.atoms import (
    ADD_BIAS,
    BINARY_ELEMENTWISE,
    DEFAULT_ATOMS,
    INVERSE,
    MATMUL,
)
from repro.core.formats import DEFAULT_FORMATS, col_strips, row_strips, tiles
from repro.core.implementations import DEFAULT_IMPLEMENTATIONS
from repro.core.optimizer import optimize
from repro.core.types import MatrixType
from repro.experiments.egraph import BEAM, CATALOG, egraph_workloads
from repro.workloads import (
    FFNNConfig,
    ffnn_full_step,
    mm_chain_graph,
    two_level_inverse_graph,
)

ENGINES = ("none", "pipeline", "egraph")


def full_product_patterns(impl, in_types, catalog, cluster):
    """The enumeration before admission filtering: every entry of the
    ``catalog ** arity`` cross product through ``output_format``."""
    if impl.op.arity == 1:
        for f in catalog:
            out = impl.output_format(in_types, (f,), cluster)
            if out is not None:
                yield (f,), out
    elif impl.op.arity == 2:
        for f1 in catalog:
            for f2 in catalog:
                out = impl.output_format(in_types, (f1, f2), cluster)
                if out is not None:
                    yield (f1, f2), out
    else:  # pragma: no cover - no ternary ops in the default catalog
        raise NotImplementedError


def _oracle_menu(ctx, op, in_types):
    return tuple((impl, tuple(full_product_patterns(impl, in_types,
                                                    ctx.formats,
                                                    ctx.cluster)))
                 for impl in ctx.impls_for(op))


def _planned_keys(monkeypatch, plan_all):
    """Every (context, op, in_types) enumerated while ``plan_all`` runs."""
    seen = {}
    original = OptimizerContext._candidate_patterns

    def recording(ctx, op, in_types):
        seen.setdefault((id(ctx), op, in_types), (ctx, op, in_types))
        return original(ctx, op, in_types)

    monkeypatch.setattr(OptimizerContext, "_candidate_patterns", recording)
    plan_all()
    monkeypatch.undo()
    return list(seen.values())


def _assert_menus_match(keys):
    assert keys
    patterns = 0
    for ctx, op, in_types in keys:
        menu = ctx._candidate_patterns(op, in_types)
        assert menu == _oracle_menu(ctx, op, in_types), (op.name, in_types)
        patterns += sum(len(p) for _, p in menu)
    assert patterns > 0


@pytest.mark.parametrize("name", sorted(egraph_workloads()))
def test_ablation_family_menus_equal_full_product(monkeypatch, name):
    graph = egraph_workloads()[name]

    def plan_all():
        for engine in ENGINES:
            ctx = OptimizerContext(cluster=simsql_cluster(10),
                                   formats=CATALOG)
            optimize(graph, ctx, max_states=BEAM, rewrites=engine)

    _assert_menus_match(_planned_keys(monkeypatch, plan_all))


#: The figure workloads at paper scale with the engines the cold-planning
#: benchmark plans them under (fig09 not under ``egraph``: it saturates to
#: its node cap, which takes seconds).
FIGURES = {
    "fig05": (lambda: ffnn_full_step(FFNNConfig(hidden=80_000)), ENGINES),
    "fig09": (two_level_inverse_graph, ("none", "pipeline")),
    "fig10_set1": (lambda: mm_chain_graph(1), ENGINES),
    "fig10_set2": (lambda: mm_chain_graph(2), ENGINES),
    "fig10_set3": (lambda: mm_chain_graph(3), ENGINES),
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_menus_equal_full_product(monkeypatch, name):
    build, engines = FIGURES[name]
    graph = build()

    def plan_all():
        for engine in engines:
            ctx = OptimizerContext(cluster=simsql_cluster(10))
            optimize(graph, ctx, max_states=25, rewrites=engine)

    _assert_menus_match(_planned_keys(monkeypatch, plan_all))


# ----------------------------------------------------------------------
# Hypothesis: type-correct inputs of every catalog operation
# ----------------------------------------------------------------------
#: Extents from 1 (vectors, 1 x 1) through smaller than the smallest block
#: (100) to far beyond worker RAM when dense (2,000,000 squared).
EXTENTS = (1, 7, 99, 100, 1000, 4096, 50_000, 2_000_000)
SPARSITIES = (1.0, 0.7, 0.5, 0.01, 1e-6, 0.0)

#: The default catalog, and one extended with load formats outside it.
CATALOGS = (DEFAULT_FORMATS,
            DEFAULT_FORMATS + (row_strips(10), col_strips(10), tiles(4000)))


@st.composite
def _typed_inputs(draw):
    """An operation with type-correct input types."""
    op = draw(st.sampled_from(DEFAULT_ATOMS))
    extent = st.sampled_from(EXTENTS)
    sparsity = st.sampled_from(SPARSITIES)

    def mtype(rows, cols):
        if rows == 1 and draw(st.booleans()):
            return MatrixType((cols,), draw(sparsity))  # a 1-D vector
        return MatrixType((rows, cols), draw(sparsity))

    rows, cols = draw(extent), draw(extent)
    if op is MATMUL:
        in_types = (mtype(rows, cols), mtype(cols, draw(extent)))
    elif op is ADD_BIAS:
        in_types = (mtype(rows, cols), mtype(1, cols))
    elif op in BINARY_ELEMENTWISE:
        in_types = (mtype(rows, cols), mtype(rows, cols))
    elif op is INVERSE:
        in_types = (mtype(rows, rows),)
    else:
        in_types = (mtype(rows, cols),)
    assert op.out_type(*in_types) is not None
    return op, in_types


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_typed_inputs(), catalog=st.sampled_from(CATALOGS),
       workers=st.sampled_from((1, 3, 10)))
def test_drawn_types_enumerate_like_full_product(case, catalog, workers):
    op, in_types = case
    cluster = simsql_cluster(workers)
    impls = [i for i in DEFAULT_IMPLEMENTATIONS if i.op == op]
    assert impls
    for impl in impls:
        got = list(impl.candidate_patterns(in_types, catalog, cluster))
        want = list(full_product_patterns(impl, in_types, catalog, cluster))
        assert got == want, impl.name
