import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest

from rootcause import graph
from rootcause.errors import DataError, GraphConstructionError, NotFoundError
from rootcause.graph import (
    CausalGraph,
    EdgeAttributes,
    Embedding,
    NodeAttributes,
    attribute_similarity,
    divergence,
    embed,
    extract,
    feature_bucket,
    fingerprint,
    from_text,
    node_dist,
    node_id_for,
    similarity,
    to_text,
)
from rootcause.telemetry import Alert, TelemetryStore

from .conftest import T0, make_span, make_topology, walkthrough_store


def attr_node(pod, op, service=None, metrics=None, logs=None):
    return NodeAttributes(
        service_id=service or pod.rsplit("-", 1)[0],
        pod_id=pod,
        op_name=op,
        metric_summary=metrics or {},
        log_summary=logs or {},
    )


def attr_graph(nodes, edges=(), alert_id="g"):
    node_map = {node_id_for(n.pod_id, n.op_name): n for n in nodes}
    edge_map = {
        (node_id_for(*u), node_id_for(*v)): EdgeAttributes(1, 0) for (u, v) in edges
    }
    return CausalGraph(alert_id=alert_id, window=(0, 1), nodes=node_map, edges=edge_map)


def labeled_graph(label_edges, alert_id="g"):
    """Graph from (service, op) label pairs; node key equals its label."""
    nodes = {}
    edges = {}
    for (u, v) in label_edges:
        for lbl in (u, v):
            nid = node_id_for(lbl, lbl)
            nodes.setdefault(nid, attr_node(lbl, lbl, service=lbl))
        edges[(node_id_for(u, u), node_id_for(v, v))] = EdgeAttributes(1, 0)
    return CausalGraph(alert_id=alert_id, window=(0, 1), nodes=nodes, edges=edges)


# -- extraction ---------------------------------------------------------------


def test_extract_walkthrough_structure(walkthrough):
    store, alert = walkthrough
    g = extract(alert, store, store.topology, window_ms=60_000)
    assert len(g.nodes) == 6
    root = node_id_for("frontend2-0", "Frontend/Recv")
    out_edges = [(u, v) for (u, v) in g.edges if u == root]
    assert len(out_edges) == 3
    # exactly one root out-edge carries a timeout-scale latency
    slow = [e for e in out_edges if g.edges[e].call_latency > 1_000]
    assert len(slow) == 1
    assert slow[0][1] == node_id_for("recommendationservice2-0", "RecommendationService/List")


def test_extract_single_span_trace():
    spans = [make_span(span_id="only")]
    store = TelemetryStore(spans, [], [], [], make_topology({"pod-a": ("svc-a", "n1")}))
    alert = Alert("a", T0, "tr-1", "only", "")
    g = extract(alert, store)
    assert len(g.nodes) == 1 and len(g.edges) == 0


def test_extract_counts_match_scan_oracle():
    rng = random.Random(3)
    spans = [make_span(span_id="r", cmdb="pod-0", operation="op-0")]
    for i in range(1, 10):
        parent = rng.choice(spans)
        spans.append(make_span(
            span_id=f"s{i}", parent=parent.span_id, cmdb=f"pod-{i}",
            operation=f"op-{i}", start=T0 + i,
        ))
    topo = make_topology({f"pod-{i}": (f"svc-{i}", "n1") for i in range(10)})
    store = TelemetryStore(spans, [], [], [], topo)
    g = extract(Alert("a", T0, "tr-1", "r", ""), store)
    distinct = {(s.cmdb_id, s.operation) for s in spans}
    assert len(g.nodes) == len(distinct)
    assert len(g.edges) == len(spans) - 1


def test_extract_unknown_trace():
    store = walkthrough_store()
    with pytest.raises(NotFoundError):
        extract(Alert("a", T0, "tr-missing", "s0", ""), store)


def test_extract_rejects_cycles():
    # A calls B twice under ops that collapse A and B into two nodes with
    # edges both ways: pod-a/op calls pod-b/op calls pod-a/op again.
    spans = [
        make_span(span_id="s0", cmdb="pod-a", operation="op"),
        make_span(span_id="s1", parent="s0", cmdb="pod-b", operation="op", start=T0 + 1),
        make_span(span_id="s2", parent="s1", cmdb="pod-a", operation="op", start=T0 + 2),
    ]
    topo = make_topology({"pod-a": ("svc-a", "n1"), "pod-b": ("svc-b", "n1")})
    store = TelemetryStore(spans, [], [], [], topo)
    with pytest.raises(GraphConstructionError, match="cycle"):
        extract(Alert("a", T0, "tr-1", "s0", ""), store)


def test_extract_deterministic_bytes(walkthrough):
    store, alert = walkthrough
    a = to_text(extract(alert, store))
    b = to_text(extract(alert, store))
    assert a == b


def test_serialization_round_trip(walkthrough):
    store, alert = walkthrough
    g = extract(alert, store)
    back = from_text(to_text(g))
    assert to_text(back) == to_text(g)
    assert fingerprint(back) == fingerprint(g)


# -- fingerprint ---------------------------------------------------------------


def test_graph_keeps_a_read_only_copy_of_its_mappings():
    g = labeled_graph([("a", "b")])
    nodes, edges = dict(g.nodes), dict(g.edges)
    copy = CausalGraph("copy", (0, 1), nodes, edges)
    nodes.clear()
    edges.clear()
    assert copy.nodes == g.nodes and copy.edges == g.edges
    with pytest.raises(TypeError):
        copy.nodes["a"] = g.nodes[next(iter(g.nodes))]


def test_fingerprint_ignores_insertion_order():
    g1 = labeled_graph([("a", "b"), ("a", "c"), ("c", "d")])
    reversed_nodes = dict(reversed(list(g1.nodes.items())))
    reversed_edges = dict(reversed(list(g1.edges.items())))
    g2 = CausalGraph(alert_id="other", window=(5, 6), nodes=reversed_nodes, edges=reversed_edges)
    assert fingerprint(g1) == fingerprint(g2)


def test_fingerprint_permutation_invariant_random_trees():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(2, 12)
        labels = [f"l{rng.randrange(4)}" for _ in range(n)]
        edges = [(f"{labels[rng.randrange(i)]}#{rng.randrange(i)}", f"{labels[i]}#{i}")
                 for i in range(1, n)]
        # rebuild with node ids that embed position so trees stay trees
        pairs = [((u, u), (v, v)) for (u, v) in edges]
        g = attr_graph(
            [attr_node(x, x, service=x.split("#")[0]) for e in pairs for x in (e[0][0], e[1][0])],
            pairs,
        )
        shuffled_nodes = list(g.nodes.items())
        rng.shuffle(shuffled_nodes)
        shuffled_edges = list(g.edges.items())
        rng.shuffle(shuffled_edges)
        g_perm = CausalGraph("g2", (0, 1), dict(shuffled_nodes), dict(shuffled_edges))
        assert fingerprint(g) == fingerprint(g_perm)
        assert np.array_equal(embed(g).vector, embed(g_perm).vector)


def test_fingerprint_separates_path_from_star():
    path = labeled_graph([("a", "b"), ("b", "c")])
    star = labeled_graph([("a", "b"), ("a", "c")])

    # Independent one-round refinement by hand: node signature is
    # (label, sorted out-neighbor labels, sorted in-neighbor labels).
    def round1(edges):
        nodes = {x for e in edges for x in e}
        sig = {}
        for n in sorted(nodes):
            outs = sorted(v for (u, v) in edges if u == n)
            ins = sorted(u for (u, v) in edges if v == n)
            sig[n] = (n, tuple(outs), tuple(ins))
        return Counter(sig.values())

    assert round1([("a", "b"), ("b", "c")]) != round1([("a", "b"), ("a", "c")])
    assert fingerprint(path) != fingerprint(star)


def test_fingerprint_empty_graph_is_fixed():
    g = CausalGraph(alert_id="none", window=(0, 1))
    expected = hashlib.sha256(b"wlfp.v1|rounds=3|").hexdigest()
    assert fingerprint(g) == expected


# -- embedding ------------------------------------------------------------------


def test_embed_empty_graph_is_zero():
    g = CausalGraph(alert_id="none", window=(0, 1))
    assert not embed(g).vector.any()


def test_embed_unit_norm():
    g = labeled_graph([("a", "b"), ("b", "c")])
    assert abs(np.linalg.norm(embed(g, dim=64).vector) - 1.0) < 1e-9


def test_embed_rejects_tiny_dim():
    with pytest.raises(DataError):
        embed(labeled_graph([("a", "b")]), dim=4)


def test_disjoint_label_graphs_share_no_buckets():
    g1 = labeled_graph([("a", "b"), ("b", "c")])
    g2 = labeled_graph([("x", "y"), ("y", "z")])
    dim = 1024
    buckets1 = {feature_bucket(f, dim) for f in graph._features(graph._wl_label_rounds(g1))}
    buckets2 = {feature_bucket(f, dim) for f in graph._features(graph._wl_label_rounds(g2))}
    assert buckets1.isdisjoint(buckets2)  # no collisions for this seed
    v1, v2 = embed(g1, dim).vector, embed(g2, dim).vector
    assert float(np.dot(v1, v2)) == 0.0
    assert similarity(g1, g2, alpha=1.0, dim=dim) == pytest.approx(0.5, abs=1e-12)


# -- similarity -----------------------------------------------------------------


def test_self_similarity_is_one(walkthrough):
    store, alert = walkthrough
    g = extract(alert, store)
    for alpha in (0.0, 0.3, 0.5, 1.0):
        assert similarity(g, g, alpha) == pytest.approx(1.0, abs=1e-9)


def test_similarity_symmetric_and_bounded():
    rng = random.Random(23)
    pool = ["a", "b", "c", "x", "y"]
    for _ in range(40):
        def rand_graph(tag):
            n = rng.randrange(1, 6)
            nodes = []
            for i in range(n):
                lbl = rng.choice(pool)
                nodes.append(attr_node(
                    f"{lbl}-{i}", f"{lbl}/op", service=lbl,
                    metrics={"m": (rng.uniform(0, 100), rng.uniform(0.5, 5))},
                    logs={"k": rng.randrange(5)},
                ))
            edges = []
            for i in range(1, n):
                parent = nodes[rng.randrange(i)]
                edge = ((parent.pod_id, parent.op_name), (nodes[i].pod_id, nodes[i].op_name))
                if edge[0] != edge[1]:
                    edges.append(edge)
            return attr_graph(nodes, edges, alert_id=tag)

        g1, g2 = rand_graph("g1"), rand_graph("g2")
        alpha = rng.random()
        s12 = similarity(g1, g2, alpha)
        s21 = similarity(g2, g1, alpha)
        assert 0.0 <= s12 <= 1.0
        assert s12 == pytest.approx(s21, abs=1e-12)


def test_attribute_similarity_one_sigma_shift():
    # Same topology, one node's metric mean moved by exactly one pooled
    # standard deviation: the matched-pair mean picks up e^{-1} there.
    sigma = 4.0
    base = [("p0", "op0"), ("p1", "op1"), ("p2", "op2"), ("p3", "op3")]
    nodes_old = [attr_node(p, o, metrics={"m": (50.0, sigma)}) for p, o in base]
    nodes_new = [
        attr_node(p, o, metrics={"m": (50.0 + (sigma if i == 0 else 0.0), sigma)})
        for i, (p, o) in enumerate(base)
    ]
    edges = [(base[0], base[1]), (base[1], base[2]), (base[2], base[3])]
    g_old = attr_graph(nodes_old, edges, "old")
    g_new = attr_graph(nodes_new, edges, "new")
    n = len(base)
    expected = ((n - 1) * 1.0 + math.exp(-1.0)) / n
    assert attribute_similarity(g_new, g_old) == pytest.approx(expected, abs=1e-12)
    assert similarity(g_new, g_old, alpha=0.0) == pytest.approx(expected, abs=1e-12)


def test_node_dist_symmetric():
    a = attr_node("p", "op", metrics={"m": (10.0, 2.0), "q": (5.0, 1.0)}, logs={"e": 3})
    b = attr_node("p", "op", metrics={"m": (14.0, 3.0), "q": (5.0, 1.0)}, logs={"e": 9, "w": 1})
    assert node_dist(a, b) == pytest.approx(node_dist(b, a), abs=1e-12)


# -- divergence ------------------------------------------------------------------


def test_divergence_identical_graph_empty(walkthrough):
    store, alert = walkthrough
    g = extract(alert, store)
    for delta in (0.1, 1.0, 10.0):
        assert divergence(g, g, delta) == set()


def test_divergence_flags_exactly_the_perturbed_node():
    delta = 1.0
    sigma = 2.0
    base = [("p0", "op0"), ("p1", "op1"), ("p2", "op2")]
    old = attr_graph([attr_node(p, o, metrics={"m": (10.0, sigma)}) for p, o in base])
    # shift so node_dist == 2 * delta exactly (single shared metric)
    new_nodes = [
        attr_node(p, o, metrics={"m": (10.0 + (2 * delta * sigma if i == 1 else 0.0), sigma)})
        for i, (p, o) in enumerate(base)
    ]
    new = attr_graph(new_nodes)
    moved = node_id_for("p1", "op1")
    assert node_dist(new.nodes[moved], old.nodes[moved]) == pytest.approx(2 * delta)
    assert divergence(new, old, delta) == {moved}


def test_divergence_includes_unmatched_new_node():
    old = attr_graph([attr_node("p0", "op0")])
    new = attr_graph([attr_node("p0", "op0"), attr_node("p9", "op9")])
    assert divergence(new, old, 1.0) == {node_id_for("p9", "op9")}


def test_divergence_monotone_in_delta():
    rng = random.Random(5)
    base = [(f"p{i}", f"op{i}") for i in range(6)]
    old = attr_graph([attr_node(p, o, metrics={"m": (20.0, 1.0)}) for p, o in base])
    new = attr_graph([
        attr_node(p, o, metrics={"m": (20.0 + rng.uniform(0, 6), 1.0)}) for p, o in base
    ])
    sizes = [len(divergence(new, old, d)) for d in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_embedding_refuses_non_finite_vectors(bad):
    with pytest.raises(DataError):
        Embedding(np.full(8, bad))
