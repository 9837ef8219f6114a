import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from jwprop import (
    EdgeWeights,
    Graph,
    InputError,
    JwpConfig,
    LabelSet,
    Method,
    NumericalError,
    RegularizerKind,
    SynthSpec,
    assign_priors,
    auc,
    build_sybil_benchmark,
    directed_sample,
    lbp_step_undirected,
    run,
    rw_step,
    weight_class_means,
    write_diagnostics,
)
from jwprop import engine, learning, propagation
from jwprop.engine import DIAG_COLUMNS, METHOD_NAMES, METHOD_TABLE, convergence_metric, method_for

from _oracles import (
    dense_slot_adjacency,
    full_slot_grad_directed,
    full_slot_grad_rw_undirected,
    full_slot_grad_undirected,
    fsum_class_means,
    random_directed_graph,
    random_labels,
    random_undirected_graph,
    random_weights,
    slot_classes,
    within_bound,
)


def two_node_graph():
    return Graph.from_edges([(0, 1)], directed=False)


def two_node_labels():
    return LabelSet.of([0], [1])


class TestConvergenceMetric:
    def test_identical_vectors(self):
        p = np.array([1.0, -2.0])
        assert convergence_metric(p, p.copy()) == 0.0

    def test_unit_jump(self):
        assert convergence_metric(np.array([1.0, 1.0]), np.zeros(2)) == 1.0

    def test_small_change(self):
        m = convergence_metric(np.array([0.9, -1.1]), np.array([1.0, -1.0]))
        assert m == pytest.approx(0.1)

    def test_zero_vector_sentinel(self):
        assert convergence_metric(np.zeros(3), np.ones(3)) == math.inf


class TestRunBasics:
    def test_single_alternation_equals_one_step(self):
        g = two_node_graph()
        labels = two_node_labels()
        cfg = JwpConfig(method=Method.LBP_U, w0=0.5, max_alternations=1)
        r = run(g, labels, cfg)
        q = assign_priors(labels, 1.0, 2)
        expected = lbp_step_undirected(g, EdgeWeights.uniform(g, 0.5), q, q)
        assert np.array_equal(r.posteriors, expected)
        assert r.alternations == 1

    def test_zero_learning_rate_matches_baseline(self):
        spec = SynthSpec(node_count=150, attachment=3, seed=1, attack_edges=150,
                         train_pos=15, train_neg=15)
        g, truth, train = build_sybil_benchmark(spec)
        for alts in (1, 2, 4, 7):
            base = run(g, train, JwpConfig(method=Method.LBP_U, max_alternations=alts))
            jwp = run(g, train, JwpConfig(method=Method.LBP_JWP_U, gamma=0.0,
                                          max_alternations=alts))
            assert np.array_equal(base.posteriors, jwp.posteriors)
            assert np.array_equal(jwp.weights.values,
                                  np.full(g.slot_count, jwp.w0))

    def test_two_node_hand_trace(self):
        # scripted reference: one undirected edge, opposite labels, w0 = 0.5,
        # clamp 0.5, no regularization, full learning rate
        g = two_node_graph()
        labels = two_node_labels()
        cfg1 = JwpConfig(method=Method.LBP_JWP_U, regularizer=RegularizerKind.NONE,
                         w0=0.5, clamp_bound=0.5, lam=0.0, gamma=1.0,
                         max_alternations=1)
        r1 = run(g, labels, cfg1)
        assert np.allclose(r1.posteriors, [0.5, -0.5], atol=1e-15)

        cfg2 = JwpConfig(method=Method.LBP_JWP_U, regularizer=RegularizerKind.NONE,
                         w0=0.5, clamp_bound=0.5, lam=0.0, gamma=1.0,
                         max_alternations=2)
        r2 = run(g, labels, cfg2)
        # slot gradient after alternation 1: (0.5-1)(-1) + (-0.5+1)(1) = 1.0
        assert r2.diagnostics[0].grad_inf == pytest.approx(1.0)
        assert np.array_equal(r2.weights.values, [-0.5])
        # scripted oracle for the full second alternation
        p1 = [0.5, -0.5]
        w1 = max(-0.5, min(0.5, 0.5 - 1.0 * 1.0))
        p2 = [1.0 + w1 * p1[1], -1.0 + w1 * p1[0]]
        assert np.allclose(r2.posteriors, p2, atol=1e-15)

    def test_convergence_on_contractive_graph(self):
        g = two_node_graph()
        cfg = JwpConfig(method=Method.LBP_U, w0=0.05, max_alternations=15)
        r = run(g, two_node_labels(), cfg)
        assert r.converged
        assert r.alternations < 15
        assert r.diagnostics[-1].conv_metric < cfg.tolerance

    def test_non_convergence_flagged(self):
        g = two_node_graph()
        cfg = JwpConfig(method=Method.LBP_U, w0=0.9, clamp_bound=1.0,
                        max_alternations=5)
        r = run(g, two_node_labels(), cfg)
        assert not r.converged
        assert r.alternations == 5

    def test_determinism_bitwise(self):
        spec = SynthSpec(node_count=200, attachment=3, seed=5, attack_edges=200,
                         train_pos=20, train_neg=20)
        g, truth, train = build_sybil_benchmark(spec)
        cfg = JwpConfig(method=Method.LBP_JWP_U, lam=1.0, gamma=0.01)
        a = run(g, train, cfg, truth=truth)
        b = run(g, train, cfg, truth=truth)
        assert a.posteriors.tobytes() == b.posteriors.tobytes()
        assert a.weights.values.tobytes() == b.weights.values.tobytes()
        assert a.alternations == b.alternations

    def test_auto_defaults_resolved(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], directed=False)
        r = run(g, LabelSet.of([0], [1]), JwpConfig(method=Method.LBP_U,
                                                    max_alternations=1))
        assert r.w0 == pytest.approx(0.45)  # 0.9 / spectral radius 2
        assert r.weights.clamp_bound == pytest.approx(0.495)  # 0.99 / 2
        assert r.lam == pytest.approx(1.0)  # min(1, 10/2)
        rw = run(g, LabelSet.of([0], [1]), JwpConfig(method=Method.RW_B,
                                                     max_alternations=1))
        assert rw.w0 == pytest.approx(0.5)  # 1 / average degree 2
        assert rw.weights.clamp_bound == 0.5

    @pytest.mark.parametrize("method", [Method.LBP_U, Method.LBP_D,
                                        Method.LBP_JWP_U, Method.LBP_JWP_D])
    def test_default_lbp_weights_contract(self, method):
        # weights bounded by the default clamp keep rho(W) < 1 on every
        # graph, so the fixed point of p = q + W p exists
        rng = np.random.default_rng(5)
        directed = method in (Method.LBP_D, Method.LBP_JWP_D)
        for _ in range(20):
            n = int(rng.integers(10, 40))
            g = (random_directed_graph(rng, n, 0.2) if directed
                 else random_undirected_graph(rng, n, 0.2))
            labels = random_labels(rng, n, 2, 2)
            r = run(g, labels, JwpConfig(method=method, lam=1.0, gamma=0.5,
                                         max_alternations=5))
            bound = r.weights.clamp_bound
            assert bound * g.spectral_radius_bound() < 1.0
            assert r.w0 < bound
            assert np.all(np.abs(r.weights.values) <= bound)
            rho_w = np.max(np.abs(np.linalg.eigvals(
                dense_slot_adjacency(g) * bound)))
            assert rho_w < 1.0

    def test_w0_above_clamp_rejected(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], directed=False)
        labels = LabelSet.of([0], [1])
        # the resolved LBP clamp on a triangle is 0.99 / 2
        for method in (Method.LBP_U, Method.LBP_JWP_U):
            with pytest.raises(InputError, match=r"w0 0\.9 .*clamp bound 0\.495"):
                run(g, labels, JwpConfig(method=method, w0=0.9))
        with pytest.raises(InputError, match="w0 -0.6"):
            run(g, labels, JwpConfig(method=Method.RW_B, w0=-0.6))

    def test_default_w0_outside_clamp_runs(self):
        # a star has average degree 1.6, so RW's default w0 of 1/1.6 exceeds
        # its clamp of 0.5; only a given w0 is held to the clamp
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4)], directed=False)
        labels = LabelSet.of([1], [2])
        for method in (Method.RW_B, Method.RW_N, Method.RW_JWP_U):
            r = run(g, labels, JwpConfig(method=method))
            assert r.w0 == pytest.approx(0.625)
            assert np.all(np.isfinite(r.posteriors))
        # a clamp alone below LBP's default w0, about 0.9 / 2 on the star
        r = run(g, labels, JwpConfig(method=Method.LBP_U, clamp_bound=0.3))
        assert r.w0 == 0.9 / g.spectral_radius_bound() > 0.3
        assert r.weights.clamp_bound == 0.3
        assert np.all(np.isfinite(r.posteriors))

    def test_non_finite_abort_mentions_alternation(self):
        g = two_node_graph()
        cfg = JwpConfig(method=Method.LBP_U, w0=1e200, clamp_bound=1e300,
                        max_alternations=15)
        with pytest.raises(NumericalError, match="alternation"):
            run(g, two_node_labels(), cfg)

    def test_method_graph_compatibility(self):
        # every method is rejected on a graph of the other direction
        gu = two_node_graph()
        gd = Graph.from_edges([(0, 1)], directed=True)
        for method in Method:
            other = gu if method in (Method.LBP_D, Method.LBP_JWP_D) else gd
            with pytest.raises(InputError, match="needs a"):
                run(other, two_node_labels(), JwpConfig(method=method))

    def test_method_table_round_trips(self):
        directed = {Method.LBP_D, Method.LBP_JWP_D}
        assert set(METHOD_TABLE) == set(Method)
        for method, (name, _, _, on_directed) in METHOD_TABLE.items():
            assert on_directed == (method in directed)
            assert method_for(name, on_directed) is method
        # each row names its family: LBP, or the walk's step variant
        assert {m: row[1] for m, row in METHOD_TABLE.items()} == {
            Method.LBP_U: "lbp", Method.LBP_D: "lbp", Method.LBP_JWP_U: "lbp",
            Method.LBP_JWP_D: "lbp", Method.RW_N: "rw-n", Method.RW_P: "rw-p",
            Method.RW_B: "rw-b", Method.RW_JWP_U: "rw-b"}
        assert all(family == "lbp" for _, family, _, on_directed in METHOD_TABLE.values()
                   if on_directed)
        assert METHOD_NAMES == ("lbp", "lbp-jwp", "rw-n", "rw-p", "rw-b", "rw-jwp")
        with pytest.raises(InputError, match="does not support directed"):
            method_for("rw-b", True)
        with pytest.raises(InputError, match="unknown method"):
            method_for("lbp-d", False)

    def test_empty_labels_rejected(self):
        with pytest.raises(InputError):
            run(two_node_graph(), LabelSet.of([], []), JwpConfig(method=Method.LBP_U))

    @pytest.mark.parametrize("truth", [([2], [0]), ([0], [7]), ([1], [0, 2])],
                             ids=["pos", "neg", "both"])
    def test_truth_id_out_of_range_rejected(self, truth):
        with pytest.raises(InputError, match="out of range for 2 nodes"):
            run(two_node_graph(), two_node_labels(), JwpConfig(method=Method.LBP_U),
                truth=LabelSet.of(*truth))

    def test_regularizer_irrelevant_for_fixed_weight_methods(self):
        g = two_node_graph()
        labels = two_node_labels()
        runs = [run(g, labels, JwpConfig(method=Method.LBP_U, w0=0.5, regularizer=reg))
                for reg in RegularizerKind]
        for other in runs[1:]:
            assert np.array_equal(runs[0].posteriors, other.posteriors)
            assert np.array_equal(other.weights.values, [0.5])


class TestRwMethods:
    def test_rw_n_uses_negative_priors_only(self):
        g = two_node_graph()
        labels = two_node_labels()
        cfg = JwpConfig(method=Method.RW_N, w0=0.5, restart=0.0, max_alternations=1)
        r = run(g, labels, cfg)
        q = np.array([0.0, -1.0])
        w = EdgeWeights.uniform(g, 0.5)
        expected = rw_step(g, w, q, q, "rw-n", 0.0)
        assert np.array_equal(r.posteriors, expected)

    def test_rw_n_requires_negatives(self):
        with pytest.raises(InputError, match="needs labeled negative"):
            run(two_node_graph(), LabelSet.of([0], []), JwpConfig(method=Method.RW_N))

    def test_rw_p_requires_positives(self):
        with pytest.raises(InputError, match="needs labeled positive"):
            run(two_node_graph(), LabelSet.of([], [1]), JwpConfig(method=Method.RW_P))

    def test_rw_jwp_runs_and_learns(self):
        spec = SynthSpec(node_count=200, attachment=3, seed=9, attack_edges=300,
                         train_pos=20, train_neg=20)
        g, truth, train = build_sybil_benchmark(spec)
        cfg = JwpConfig(method=Method.RW_JWP_U, lam=1.0, gamma=0.1)
        r = run(g, train, cfg, truth=truth)
        assert np.all(np.isfinite(r.posteriors))
        assert not np.array_equal(r.weights.values, np.full(g.slot_count, r.w0))
        assert auc(r.posteriors, truth.exclude(train)).auc > 0.8


class TestWeightTrend:
    def test_planted_communities_separate_weights(self):
        spec = SynthSpec(node_count=400, attachment=5, seed=3, attack_edges=900,
                         train_pos=40, train_neg=40)
        g, truth, train = build_sybil_benchmark(spec)
        cfg = JwpConfig(method=Method.LBP_JWP_U, lam=1.0, gamma=0.01)
        r = run(g, train, cfg, truth=truth)
        homo, hetero = weight_class_means(g, r.weights, truth)
        assert hetero < homo
        assert hetero < r.w0
        # the diagnostics carry the same means per alternation
        assert r.diagnostics[-1].mean_hetero_weight == pytest.approx(hetero)


def same_floats(a, b):
    return all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b))


CLASS_COLS = ("mean_homo_weight", "mean_hetero_weight")


class TestPerRunInvariants:
    SPEC = SynthSpec(node_count=150, attachment=3, seed=4, attack_edges=200,
                     train_pos=15, train_neg=15)

    def test_precomputed_class_slots_give_mask_means(self):
        # Each of the three slot classes is the largest in some case: the
        # homogeneous under full truth, the heterogeneous on a mostly
        # bipartite graph labeled by side, the unlabeled-endpoint class
        # under partial truth, one class, and a single labeled node (both
        # means NaN).
        rng = np.random.default_rng(12)
        g, truth, _ = build_sybil_benchmark(self.SPEC)
        pairs = rng.integers(0, 40, size=(300, 2)) * 2
        pairs[:270, 1] += 1
        bipartite = Graph.from_edges(pairs, directed=False, node_count=80)
        one_class = LabelSet(truth.positives, frozenset())  # no hetero slot
        cases = [
            (g, truth),
            (g, LabelSet.of([i for i in truth.positives if rng.random() < 0.3],
                            [i for i in truth.negatives if rng.random() < 0.3])),
            (g, one_class),
            (g, LabelSet.of([0], [])),
            (bipartite, LabelSet.of(range(0, 80, 2), range(1, 80, 2))),
        ]
        largest = set()
        for graph, labels in cases:
            slots = slot_classes(graph, labels)
            assert np.array_equal(np.sort(np.concatenate(slots)),
                                  np.arange(graph.slot_count))
            largest_now = max(range(3), key=lambda i: slots[i].size)
            largest.add(largest_now)
            for _ in range(5):
                w = random_weights(rng, graph, lo=-1.0, hi=1.0)
                got = weight_class_means(graph, w, labels)
                for mean, (want, bound) in zip(got, fsum_class_means(graph, w, labels)):
                    assert within_bound(mean, want, bound)
            # what the means keep with the graph: the indices of the two
            # smaller classes and the class sizes, no array for the largest
            kept_for, (kept, sizes) = graph._label_memo[engine._class_mean_slots]
            assert kept_for == labels
            assert sizes == tuple(idx.size for idx in slots)
            assert kept[largest_now] is None
            assert sum(isinstance(idx, np.ndarray) for idx in kept) == 2
            for i in {0, 1, 2} - {largest_now}:
                assert np.array_equal(kept[i], slots[i])
        assert largest == {0, 1, 2}
        w = random_weights(rng, g)
        assert math.isnan(weight_class_means(g, w, one_class)[1])
        assert all(map(math.isnan, weight_class_means(g, w, LabelSet.of([0], []))))
        # a weight vector of another length once gave wrong means
        for size in (g.slot_count + 1000, g.slot_count - 5):
            with pytest.raises(InputError, match=f"^weight array has {size} slots"):
                weight_class_means(g, EdgeWeights(np.ones(size)), truth)

    @pytest.mark.parametrize("method", [Method.LBP_JWP_U, Method.RW_JWP_U])
    def test_diagnostics_match_the_mask_path(self, monkeypatch, method):
        g, truth, train = build_sybil_benchmark(self.SPEC)
        cfg = JwpConfig(method=method, lam=1.0, gamma=0.1)
        fast = run(g, train, cfg, truth=truth)
        bounds = [0.0, 0.0]

        def fsum_means(g, w, truth, *_):
            means = fsum_class_means(g, w, truth)
            for k, (_, bound) in enumerate(means):
                bounds[k] = max(bounds[k], bound)
            return tuple(mean for mean, _ in means)

        monkeypatch.setattr(engine, "weight_class_means", fsum_means)
        slow = run(g, train, cfg, truth=truth)
        assert len(fast.diagnostics) == len(slow.diagnostics) > 1
        cols = [c for c in DIAG_COLUMNS if c not in CLASS_COLS + ("wall_ms",)]
        for a, b in zip(fast.diagnostics, slow.diagnostics):
            assert same_floats([getattr(a, c) for c in cols],
                               [getattr(b, c) for c in cols])
            for c, bound in zip(CLASS_COLS, bounds):
                assert within_bound(getattr(a, c), getattr(b, c), bound)
        assert np.array_equal(fast.posteriors, slow.posteriors)
        assert np.array_equal(fast.weights.values, slow.weights.values)

    @pytest.mark.parametrize("method", [Method.RW_N, Method.RW_P, Method.RW_B,
                                        Method.RW_JWP_U])
    def test_weighted_degrees_once_per_weight_vector(self, monkeypatch, method):
        g, truth, train = build_sybil_benchmark(self.SPEC)
        calls = []
        real = propagation._inverse_degrees

        def counted(*args):
            calls.append(1)
            return real(*args)

        for module in (engine, learning, propagation):
            monkeypatch.setattr(module, "_inverse_degrees", counted)
        cfg = JwpConfig(method=method, lam=1.0, gamma=0.1, tolerance=1e-300,
                        max_alternations=15)
        r = run(g, train, cfg, truth=truth)
        assert r.alternations == 15
        updates = r.alternations - 1 if METHOD_TABLE[method][2] else 0
        assert len(calls) == updates + 1


def oracle_gradient(oracle):
    """A gradient for ``engine.run`` that evaluates a full-slot formula and
    ignores the work arrays, endpoint scores and labeled slots."""
    def fn(g, w, q, p_t, labels, lam, reg, p_next=None, *, restart=None,
           inv_degrees=None, **_):
        if restart is None:
            return oracle(g, w, p_t, p_next, labels, lam, reg)
        return oracle(g, w, p_t, p_next, labels, lam, reg, restart, inv_degrees)
    return fn


class EndpointReads(Graph):
    """A graph that records each read of its derived slot endpoints and
    pair classes, the index arrays a per-slot score gather would build."""

    @property
    def slot_ends(self):
        self.reads.append("slot_ends")
        return super().slot_ends

    @property
    def edges(self):
        self.reads.append("edges")
        return super().edges

    @property
    def pair_class(self):
        self.reads.append("pair_class")
        return super().pair_class


class TestSlotPasses:
    """No alternation of ``engine.run`` gathers scores per slot: the
    consistency gradient and diagnostic go through the step CSR, and the
    per-label-set slot indices, built once per graph, read the step CSR's
    row pointers and columns, not the derived slot endpoints."""

    SPEC = SynthSpec(node_count=150, attachment=3, seed=6, attack_edges=200,
                     train_pos=15, train_neg=15)

    def graphs(self):
        g, truth, train = build_sybil_benchmark(self.SPEC)
        return g, directed_sample(g, 0.6, 6), truth, train

    @pytest.mark.parametrize("reg", [RegularizerKind.CONSISTENCY, RegularizerKind.L2])
    @pytest.mark.parametrize("method", [Method.LBP_U, Method.LBP_JWP_U,
                                        Method.LBP_JWP_D, Method.RW_JWP_U])
    def test_one_endpoint_gather_per_score_vector(self, method, reg):
        g, gd, truth, train = self.graphs()
        graph = gd if method is Method.LBP_JWP_D else g
        cfg = JwpConfig(method=method, regularizer=reg, lam=0.7, gamma=0.1,
                        tolerance=1e-300, max_alternations=15)
        first = run(graph, train, cfg, truth=truth)
        graph.__class__, graph.reads = EndpointReads, []
        again = run(graph, train, cfg, truth=truth)
        assert again.alternations == 15
        assert graph.reads == []
        assert np.array_equal(first.posteriors, again.posteriors)
        assert np.array_equal(first.weights.values, again.weights.values)

    def test_slot_indices_built_once_per_graph(self, monkeypatch):
        built = []
        for module, name in ((engine, "_class_mean_slots"), (learning, "LabeledSlots")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda g, labels, real=real, name=name:
                                built.append(name) or real(g, labels))
        g, _, truth, train = self.graphs()
        other = LabelSet.of(sorted(train.positives)[1:], sorted(train.negatives)[1:])
        cfgs = [JwpConfig(method=m, lam=0.7, gamma=0.1, tolerance=1e-300)
                for m in (Method.LBP_JWP_U, Method.RW_JWP_U)]
        shared = [run(g, train, cfg, truth=truth) for cfg in cfgs]
        assert sorted(built) == ["LabeledSlots", "_class_mean_slots"]
        shared.append(run(g, other, cfgs[0], truth=truth))  # another label set
        assert sorted(built) == ["LabeledSlots", "LabeledSlots", "_class_mean_slots"]
        fresh = [run(self.graphs()[0], labels, cfg, truth=truth)
                 for labels, cfg in ((train, cfgs[0]), (train, cfgs[1]),
                                     (other, cfgs[0]))]
        for a, b in zip(shared, fresh):
            assert np.array_equal(a.posteriors, b.posteriors)
            assert np.array_equal(a.weights.values, b.weights.values)
            assert len(a.diagnostics) == len(b.diagnostics)
            for da, db in zip(a.diagnostics, b.diagnostics):
                assert same_floats(astuple(da)[:-1], astuple(db)[:-1])  # not wall_ms

    @pytest.mark.parametrize("reg", list(RegularizerKind))
    @pytest.mark.parametrize("method", [Method.LBP_JWP_U, Method.LBP_JWP_D,
                                        Method.RW_JWP_U])
    def test_run_matches_full_slot_gradients(self, monkeypatch, method, reg):
        g, gd, truth, train = self.graphs()
        graph = gd if method is Method.LBP_JWP_D else g
        cfg = JwpConfig(method=method, regularizer=reg, lam=0.7, gamma=0.1,
                        tolerance=1e-300, max_alternations=15)
        fast = run(graph, train, cfg, truth=truth)
        for name, oracle in (("grad_undirected", full_slot_grad_undirected),
                             ("grad_directed", full_slot_grad_directed),
                             ("grad_rw_undirected", full_slot_grad_rw_undirected)):
            monkeypatch.setattr(engine, name, oracle_gradient(oracle))
        slow = run(graph, train, cfg, truth=truth)
        assert np.array_equal(fast.posteriors, slow.posteriors)
        assert np.array_equal(fast.weights.values, slow.weights.values)
        cols = [c for c in DIAG_COLUMNS if c != "wall_ms"]
        assert len(fast.diagnostics) == len(slow.diagnostics) == 15
        for a, b in zip(fast.diagnostics, slow.diagnostics):
            assert same_floats([getattr(a, c) for c in cols],
                               [getattr(b, c) for c in cols])


class TestRunScratch:
    """A learning run keeps one weight array and one gradient array for all
    its alternations: the gradient is written into the run's scratch array
    and the update writes the weights in place.  Once the graph holds its
    spectral radius bound and label-set memos, a run's traced peak stays
    within three slot-sized float64 arrays; fresh slot arrays each
    alternation would pass it."""

    SPEC = SynthSpec(node_count=2000, attachment=10, seed=3, attack_edges=5000,
                     train_pos=50, train_neg=50)

    @pytest.mark.parametrize("method", [Method.LBP_JWP_U, Method.RW_JWP_U])
    def test_peak_within_three_slot_arrays(self, method):
        g, truth, train = build_sybil_benchmark(self.SPEC)
        assert g.slot_count == 44890
        cfg = JwpConfig(method=method)
        run(g, train, cfg, truth=truth)  # builds the memos the second run reads
        tracemalloc.start()
        try:
            again = run(g, train, cfg, truth=truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.alternations == cfg.max_alternations
        assert peak <= 3 * g.slot_count * 8


class TestDiagnostics:
    def test_written_file_is_tabular(self, tmp_path):
        g = two_node_graph()
        r = run(g, two_node_labels(), JwpConfig(method=Method.LBP_JWP_U, w0=0.5,
                                                lam=0.0, max_alternations=3))
        out = tmp_path / "diag.tsv"
        write_diagnostics(r.diagnostics, out)
        lines = out.read_text().splitlines()
        assert lines[0].split("\t")[0] == "t"
        assert len(lines) == len(r.diagnostics) + 1
        assert all(len(line.split("\t")) == 8 for line in lines)

    def test_columns_in_field_order(self):
        # the written header, which the column list derives from the fields
        assert DIAG_COLUMNS == ("t", "conv_metric", "loss", "consistency", "grad_inf",
                                "mean_homo_weight", "mean_hetero_weight", "wall_ms")


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(InputError):
            JwpConfig(theta=0.0)
        with pytest.raises(InputError):
            JwpConfig(gamma=-1.0)
        with pytest.raises(InputError):
            JwpConfig(tolerance=0.0)
        with pytest.raises(InputError):
            JwpConfig(max_alternations=0)
        with pytest.raises(InputError):
            JwpConfig(restart=1.5)

    @pytest.mark.parametrize("alts", [2.5, 3.0, "3", None, True])
    def test_non_integer_max_alternations(self, alts):
        # refused at construction, not with a TypeError in run
        with pytest.raises(InputError, match="max_alternations must be an integer"):
            JwpConfig(max_alternations=alts)

    @pytest.mark.parametrize("field, value", [
        ("theta", "1"), ("gamma", None), ("restart", "0.1"), ("tolerance", 1j),
        ("w0", "0.1"), ("lam", True), ("theta", True), ("tolerance", True),
        ("clamp_bound", False)])
    def test_float_fields_are_real_numbers(self, field, value):
        # a string, None or complex value once raised a bare TypeError, and
        # a bool ran as 0 or 1
        with pytest.raises(InputError, match=f"^{field} must be a real number"):
            JwpConfig(**{field: value})

    def test_numpy_float_fields(self):
        cfg = JwpConfig(theta=np.float32(2.0), lam=np.float64(0.5), restart=np.int64(0))
        assert (cfg.theta, cfg.lam, cfg.restart) == (2.0, 0.5, 0)

    def test_method_and_regularizer_by_value(self):
        # a string regularizer once ran with no regularizer at all, and a
        # string method failed in run with AttributeError or KeyError
        g, _, _, train = TestSlotPasses().graphs()
        for method, reg in (("lbp-jwp-u", "consistency"), ("rw-jwp-u", "l2")):
            members = dict(method=Method(method), regularizer=RegularizerKind(reg),
                           lam=0.7, gamma=0.1)
            by_value = JwpConfig(method=method, regularizer=reg, lam=0.7, gamma=0.1)
            assert by_value.method is Method(method)
            assert by_value.regularizer is RegularizerKind(reg)
            got = run(g, train, by_value).weights.values
            assert np.array_equal(got, run(g, train, JwpConfig(**members)).weights.values)
            none = JwpConfig(**(members | {"regularizer": RegularizerKind.NONE}))
            assert not np.array_equal(got, run(g, train, none).weights.values)

    @pytest.mark.parametrize("field, value", [("method", "nope"), ("method", "lbp"),
                                              ("regularizer", "L2"), ("regularizer", None)])
    def test_unknown_method_or_regularizer(self, field, value):
        with pytest.raises(InputError, match=f"unknown {field} {value!r}"):
            JwpConfig(**{field: value})

    def test_numpy_integer_max_alternations(self):
        cfg = JwpConfig(method=Method.LBP_U, max_alternations=np.int64(2),
                        tolerance=1e-300)
        assert run(two_node_graph(), two_node_labels(), cfg).alternations == 2
