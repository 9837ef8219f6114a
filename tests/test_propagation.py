import re

import numpy as np
import pytest

from jwprop import (
    BIDIRECTIONAL,
    EdgeWeights,
    Graph,
    InputError,
    LabelSet,
    assign_priors,
    lbp_step_directed,
    lbp_step_undirected,
    read_labels,
    rw_step,
    write_labels,
)
from jwprop import graph
from jwprop.graph import UNI_INCOMING, UNI_OUTGOING, csr_index_dtype
from jwprop.propagation import RW_VARIANTS, _inverse_degrees

from _oracles import (
    bincount_weighted_degrees,
    dense_directed_step,
    dense_undirected_step,
    directed_graph_with_isolated_tail,
    random_directed_graph,
    random_undirected_graph,
    random_weights,
    scipy_directed_step,
    scipy_rw_step,
    scipy_spectral_radius_bound,
    scipy_undirected_step,
)


def _as_int64(ids):
    return np.array(ids, dtype=np.int64)


def _as_uint64(ids):
    return np.array(ids, dtype=np.uint64)


# The id containers a label set takes: iterables and integer arrays.
ID_FORMS = [list, frozenset, _as_int64, _as_uint64]


class TestLabelSet:
    def test_overlap_rejected(self):
        for form in (list, _as_int64):
            with pytest.raises(InputError, match=r"^labels overlap on nodes \[2\]$"):
                LabelSet.of(form([1, 2]), form([2, 3]))
            with pytest.raises(InputError,
                               match=r"^labels overlap on nodes \[0, 1, 2, 3, 4\]$"):
                LabelSet(form(range(9, -1, -1)), form(range(7)))

    @pytest.mark.parametrize("pos,neg", [([-1, 2], [3]), ([2], [0, -5]),
                                         ([-1], []), ([2], [-2 ** 63])],
                             ids=["pos", "neg", "only", "int64-min"])
    def test_negative_id_rejected(self, pos, neg):
        for form in (list, _as_int64):
            with pytest.raises(InputError, match="must be nonnegative"):
                LabelSet.of(form(pos), form(neg))

    def test_id_below_int64_rejected(self):
        with pytest.raises(InputError, match="must be nonnegative"):
            LabelSet.of([2], [-2 ** 64])

    @pytest.mark.parametrize("pos,neg", [([2 ** 63], [3]), ([2], [0, 10 ** 20])],
                             ids=["pos", "neg"])
    def test_id_beyond_int64_rejected(self, pos, neg):
        with pytest.raises(InputError, match=r"must be below 2\*\*63"):
            LabelSet.of(pos, neg)
        top = LabelSet.of([2 ** 63 - 1], [])
        assert top.positive_array().tolist() == [2 ** 63 - 1]

    @pytest.mark.parametrize("ids,first", [
        ([2, 1.5, 2.5], 1), (["3", 4], 0), ([1, True], 1),
        (np.array([1, 0], dtype=bool), 0), (np.array([4.0, 2.0]), 0),
        ([float("nan")], 0)],
        ids=["float", "str", "bool", "bool-array", "float-array", "nan"])
    def test_non_integer_id_rejected(self, ids, first):
        # no id is coerced: 1.5 is not node 1, nor '3' node 3, nor True node 1
        named = re.escape(repr(ids[first]))
        for pos, neg in ((ids, [7]), ([7], ids)):
            with pytest.raises(InputError, match=f"^label node id {named} is not an integer$"):
                LabelSet(pos, neg)

    @pytest.mark.parametrize("pos,neg", [([2 ** 63], [3]), ([2], [0, 2 ** 64 - 1])],
                             ids=["pos", "neg"])
    def test_uint64_beyond_int64_rejected(self, pos, neg):
        with pytest.raises(InputError, match=r"must be below 2\*\*63"):
            LabelSet.of(_as_uint64(pos), _as_uint64(neg))
        top = LabelSet.of(_as_uint64([2 ** 63 - 1, 0]), _as_uint64([5]))
        assert top.positive_array().tolist() == [0, 2 ** 63 - 1]

    def test_empty_and_zero_ids_accepted(self):
        assert len(LabelSet.of([], [])) == 0
        assert len(LabelSet.of([0], [])) == len(LabelSet.of([], [0])) == 1

    @pytest.mark.parametrize("neg_form", ID_FORMS)
    @pytest.mark.parametrize("pos_form", ID_FORMS)
    def test_forms_compare_and_hash_equal(self, pos_form, neg_form):
        # unsorted, with repeats: the ids are what count
        ls = LabelSet(pos_form([9, 2, 5, 2, 9]), neg_form([7, 1, 7, 3]))
        want = LabelSet(frozenset({2, 5, 9}), frozenset({1, 3, 7}))
        assert ls == want and hash(ls) == hash(want)
        assert ls.positive_array().tolist() == [2, 5, 9]
        assert ls.negative_array().tolist() == [1, 3, 7]
        assert ls.positive_array().dtype == ls.negative_array().dtype == np.int64
        assert ls.positives == {2, 5, 9} and ls.negatives == {1, 3, 7}
        assert len(ls) == 6
        assert ls != LabelSet.of([2, 5], [1, 3, 7]) and ls != LabelSet.of([1, 3, 7], [2, 5, 9])
        assert ls != LabelSet.of([2, 5, 9], [1, 3, 7, 8])

    def test_stored_arrays_are_copies(self):
        ids = np.array([4, 1, 8])
        ls = LabelSet(ids, np.array([0, 2, 3]))
        ids[0] = 2
        assert ls.positive_array().tolist() == [1, 4, 8]
        sorted_ids = np.array([0, 2, 3])
        ls = LabelSet(np.array([5]), sorted_ids)
        assert not np.shares_memory(ls.negative_array(), sorted_ids)
        sorted_ids[0] = 9
        assert ls.negative_array().tolist() == [0, 2, 3]

    def test_exclude(self):
        ls = LabelSet.of([1, 2, 3], [4, 5])
        out = ls.exclude(LabelSet.of([2], [4]))
        assert out.positives == {1, 3} and out.negatives == {5}

    def test_exclude_drops_ids_of_both_classes(self):
        # other's classes need not match: a label flipped between the two
        # sets is dropped too
        ls = LabelSet.of(range(0, 20, 2), range(1, 20, 2))
        out = ls.exclude(LabelSet.of([1, 4, 30], [6, 7, 40]))
        assert out.positive_array().tolist() == [0, 2, 8, 10, 12, 14, 16, 18]
        assert out.negative_array().tolist() == [3, 5, 9, 11, 13, 15, 17, 19]
        assert ls.exclude(LabelSet.of([], [])) == ls
        assert len(ls.exclude(ls)) == 0
        assert len(LabelSet.of([], []).exclude(ls)) == 0

    def test_sorted_arrays_built_once_and_read_only(self):
        ls = LabelSet.of([9, 2, 5], [7, 1])
        pos, neg = ls.positive_array(), ls.negative_array()
        assert pos.tolist() == [2, 5, 9] and neg.tolist() == [1, 7]
        assert ls.positive_array() is pos and ls.negative_array() is neg
        for arr in (pos, neg):
            with pytest.raises(ValueError):
                arr[0] = 3
        assert ls == LabelSet.of([2, 5, 9], [1, 7])
        assert hash(ls) == hash(LabelSet.of([2, 5, 9], [1, 7]))
        empty = LabelSet.of([], [])
        assert empty.positive_array().dtype == np.int64
        assert empty.positive_array().size == empty.negative_array().size == 0
        for arr in (empty.positive_array(), ls.exclude(ls).negative_array()):
            with pytest.raises(ValueError):
                arr.sort()
            assert not arr.flags.writeable

    def test_check_bounds_reads_largest_id(self):
        ls = LabelSet.of([3, 12, 5], [9])
        ls.check_bounds(13)
        with pytest.raises(InputError, match="label node id 12 out of range for 12"):
            ls.check_bounds(12)
        with pytest.raises(InputError, match="label node id 9 out of range for 9"):
            LabelSet.of([], [9, 2]).check_bounds(9)
        LabelSet.of([], []).check_bounds(0)


class TestAssignPriors:
    def test_both_classes(self):
        q = assign_priors(LabelSet.of([0], [2]), 1.0, 3)
        assert list(q) == [1.0, 0.0, -1.0]

    def test_empty_labels_all_zero(self):
        q = assign_priors(LabelSet.of([], []), 1.0, 4)
        assert not q.any()

    def test_theta_scaling(self):
        q = assign_priors(LabelSet.of([1], []), 0.5, 2)
        assert list(q) == [0.0, 0.5]

    def test_out_of_range_id(self):
        with pytest.raises(InputError):
            assign_priors(LabelSet.of([5], []), 1.0, 3)

    def test_nonpositive_theta(self):
        # NaN passed the old sign test and gave NaN priors
        for theta in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InputError, match="^theta must be positive"):
                assign_priors(LabelSet.of([0], []), theta, 2)


class TestLbpUndirected:
    def test_zero_weights_return_priors(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=False)
        w = EdgeWeights.uniform(g, 0.0)
        q = np.array([1.0, 0.0, -1.0])
        assert np.array_equal(lbp_step_undirected(g, w, q, q), q)

    def test_two_node_edge(self):
        g = Graph.from_edges([(0, 1)], directed=False)
        w = EdgeWeights.uniform(g, 0.5)
        q = np.array([1.0, -1.0])
        p1 = lbp_step_undirected(g, w, q, q)
        assert np.allclose(p1, [0.5, -0.5], atol=1e-15)
        assert np.allclose(p1, dense_undirected_step(g, w, q, q), atol=1e-15)

    def test_star(self):
        g = Graph.from_edges([(0, 1), (0, 2)], directed=False)
        w = EdgeWeights.uniform(g, 0.5)
        q = np.array([0.0, 1.0, -1.0])
        p1 = lbp_step_undirected(g, w, q, q)
        assert np.allclose(p1, [0.0, 1.0, -1.0], atol=1e-15)
        assert np.allclose(p1, dense_undirected_step(g, w, q, q), atol=1e-15)

    def test_dimension_mismatch(self):
        g = Graph.from_edges([(0, 1)], directed=False)
        w = EdgeWeights.uniform(g, 0.5)
        with pytest.raises(InputError):
            lbp_step_undirected(g, w, np.zeros(3), np.zeros(2))
        with pytest.raises(InputError):
            lbp_step_undirected(g, EdgeWeights(np.zeros(5)), np.zeros(2), np.zeros(2))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 51))
            g = random_undirected_graph(rng, n)
            w = random_weights(rng, g)
            q = rng.uniform(-1, 1, n)
            p = rng.uniform(-1, 1, n)
            got = lbp_step_undirected(g, w, q, p)
            assert np.max(np.abs(got - dense_undirected_step(g, w, q, p))) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(1)
        g = random_undirected_graph(rng, 20)
        w = random_weights(rng, g)
        q = rng.uniform(-1, 1, 20)
        p1 = rng.uniform(-1, 1, 20)
        p2 = rng.uniform(-1, 1, 20)
        a, b = 0.7, -1.3
        zero = np.zeros(20)
        lhs = lbp_step_undirected(g, w, q, a * p1 + b * p2)
        rhs = (a * lbp_step_undirected(g, w, zero, p1)
               + b * lbp_step_undirected(g, w, zero, p2) + q)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(2)
        g = random_undirected_graph(rng, 15)
        w = random_weights(rng, g)
        q = rng.uniform(-1, 1, 15)
        p = rng.uniform(-1, 1, 15)
        assert np.allclose(lbp_step_undirected(g, w, -q, -p),
                           -lbp_step_undirected(g, w, q, p), atol=1e-14)


class TestLbpDirected:
    def test_single_edge_positive_sender(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        w = EdgeWeights.uniform(g, 0.5)
        q = np.array([0.0, 1.0])
        p1 = lbp_step_directed(g, w, q, q)
        assert np.allclose(p1, [0.5, 1.0], atol=1e-15)
        assert np.allclose(p1, dense_directed_step(g, w, q, q), atol=1e-15)

    def test_single_edge_negative_sender(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        w = EdgeWeights.uniform(g, 0.5)
        q = np.array([0.0, -1.0])
        p1 = lbp_step_directed(g, w, q, q)
        assert np.allclose(p1, [0.0, -1.0], atol=1e-15)

    def test_bidirectional_equals_undirected_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            gu = random_undirected_graph(rng, n)
            w = random_weights(rng, gu)
            gd = Graph.from_edges(
                np.concatenate([gu.edges, gu.edges[:, ::-1]]), directed=True,
                node_count=n)
            # mirror each undirected slot weight onto both ordered slots
            wd_vals = np.empty(gd.slot_count)
            for s, (u, v) in enumerate(gu.slot_ends):
                shared = w.values[s]
                wd_vals[gd.edge_slot(int(u), int(v))] = shared
                wd_vals[gd.edge_slot(int(v), int(u))] = shared
            q = rng.uniform(-1, 1, n)
            p = rng.uniform(-1, 1, n)
            du = lbp_step_undirected(gu, w, q, p)
            dd = lbp_step_directed(gd, EdgeWeights(wd_vals), q, p)
            assert np.array_equal(du, dd)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 51))
            g = random_directed_graph(rng, n)
            w = random_weights(rng, g)
            q = rng.uniform(-1, 1, n)
            p = rng.uniform(-1, 1, n)
            got = lbp_step_directed(g, w, q, p)
            assert np.max(np.abs(got - dense_directed_step(g, w, q, p))) < 1e-12

    def test_class_offsets_use_node_count(self):
        # class c's columns start at c * node_count; with isolated trailing
        # nodes that differs from c * (max id + 1)
        g = directed_graph_with_isolated_tail()
        assert set(g.pair_class.tolist()) == {BIDIRECTIONAL, UNI_INCOMING, UNI_OUTGOING}
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = random_weights(rng, g)
            q = rng.uniform(-1, 1, 7)
            p = rng.uniform(-1, 1, 7)
            got = lbp_step_directed(g, w, q, p)
            assert np.max(np.abs(got - dense_directed_step(g, w, q, p))) < 1e-12
            assert np.array_equal(got[4:], q[4:])

    def test_sign_symmetry_swaps_rectifiers(self):
        # negating scores sends the negative part onto minus the positive
        # part, which is the same computation with every edge reversed, so
        # the identity holds against the transposed graph
        rng = np.random.default_rng(6)
        g = random_directed_graph(rng, 15)
        g_rev = Graph.from_edges(g.edges[:, ::-1], directed=True,
                                 node_count=g.node_count)
        w = random_weights(rng, g)
        w_rev_vals = np.empty(g.slot_count)
        for s, (u, v) in enumerate(g.slot_ends):
            w_rev_vals[g_rev.edge_slot(int(u), int(v))] = w.values[s]
        q = rng.uniform(-1, 1, 15)
        p = rng.uniform(-1, 1, 15)
        assert np.allclose(lbp_step_directed(g_rev, EdgeWeights(w_rev_vals), -q, -p),
                           -lbp_step_directed(g, w, q, p), atol=1e-14)

    def test_wrong_directedness(self):
        g = Graph.from_edges([(0, 1)], directed=False)
        w = EdgeWeights.uniform(g, 0.5)
        with pytest.raises(InputError):
            lbp_step_directed(g, w, np.zeros(2), np.zeros(2))


class TestRwStep:
    def test_directed_graph_refused(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        with pytest.raises(InputError, match="^rw_step expects an undirected graph$"):
            rw_step(g, EdgeWeights.uniform(g, 0.5), np.zeros(2), np.zeros(2), "rw-b", 0.0)

    def test_pure_restart_returns_priors(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=False)
        w = random_weights(np.random.default_rng(0), g)
        q = np.array([1.0, 0.0, -1.0])
        p = np.array([5.0, -3.0, 2.0])
        out = rw_step(g, w, q, p, "rw-b", restart=1.0)
        assert np.allclose(out, q, atol=1e-15)

    def test_two_node_swap(self):
        g = Graph.from_edges([(0, 1)], directed=False)
        w = EdgeWeights.uniform(g, 0.5)
        q = np.zeros(2)
        p = np.array([1.0, -1.0])
        out = rw_step(g, w, q, p, "rw-b", restart=0.0)
        assert np.allclose(out, [-1.0, 1.0], atol=1e-15)

    def test_regular_graph_row_stochastic(self):
        # 4-cycle is 2-regular: receiver normalization gives A p / degree
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], directed=False)
        w = EdgeWeights.uniform(g, 0.3)
        q = np.zeros(4)
        p = np.array([1.0, 2.0, -1.0, 0.5])
        out = rw_step(g, w, q, p, "rw-b", restart=0.0)
        A = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], float)
        assert np.allclose(out, A @ p / 2.0, atol=1e-14)
        # total score is preserved across iterations on a regular graph
        assert np.sum(out) == pytest.approx(np.sum(p))

    def test_isolated_node_keeps_restart_share(self):
        g = Graph.from_edges([(0, 1)], directed=False, node_count=3)
        w = EdgeWeights.uniform(g, 0.5)
        q = np.array([0.0, 0.0, -1.0])
        p = np.array([1.0, 1.0, 4.0])
        out = rw_step(g, w, q, p, "rw-b", restart=0.2)
        assert out[2] == pytest.approx(0.2 * -1.0)

    def test_sender_vs_receiver_differ_on_irregular(self):
        # star: node 0 has weighted degree d_0 = 1.0, the leaves 0.5
        g = Graph.from_edges([(0, 1), (0, 2)], directed=False)
        w = EdgeWeights.uniform(g, 0.5)
        q = np.zeros(3)
        p = np.array([1.0, 2.0, 3.0])
        recv = rw_step(g, w, q, p, "rw-b", 0.0)
        send = rw_step(g, w, q, p, "rw-n", 0.0)
        assert not np.allclose(recv, send)
        # sender (rw-n): node 1 gets p_0 * w / d_0 with d_0 = 1.0
        assert send[1] == pytest.approx(1.0 * 0.5 / 1.0)
        # receiver (rw-b): node 1 gets p_0 * w / d_1 with d_1 = 0.5
        assert recv[1] == pytest.approx(1.0 * 0.5 / 0.5)

    def test_single_label_variants_use_sender_norm(self):
        # star: node 0 has weighted degree d_0 = 1.0, the leaves 0.5
        g = Graph.from_edges([(0, 1), (0, 2)], directed=False)
        w = EdgeWeights.uniform(g, 0.5)
        q = np.zeros(3)
        p = np.array([1.0, 2.0, 3.0])
        # sender: node i gets sum_j w * p_j / d_j
        send = [0.5 * 2.0 / 0.5 + 0.5 * 3.0 / 0.5, 0.5 * 1.0 / 1.0, 0.5 * 1.0 / 1.0]
        for variant in ("rw-n", "rw-p"):
            assert np.allclose(rw_step(g, w, q, p, variant, 0.0), send, atol=1e-14)
        # receiver (rw-b): node i gets sum_j w * p_j / d_i
        recv = rw_step(g, w, q, p, "rw-b", 0.0)
        assert np.allclose(recv, [(0.5 * 2.0 + 0.5 * 3.0) / 1.0, 0.5 * 1.0 / 0.5,
                                  0.5 * 1.0 / 0.5], atol=1e-14)

    def test_weighted_degree_uses_absolute_values(self):
        g = Graph.from_edges([(0, 1), (0, 2)], directed=False)
        w = EdgeWeights(np.array([0.5, -0.5]))
        assert list(_inverse_degrees(g, w)) == [1.0, 2.0, 2.0]

    def test_directed_graph_rejected(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        w = EdgeWeights.uniform(g, 0.5)
        with pytest.raises(InputError):
            rw_step(g, w, np.zeros(2), np.zeros(2), "rw-b", 0.15)

    def test_bad_restart(self):
        g = Graph.from_edges([(0, 1)], directed=False)
        w = EdgeWeights.uniform(g, 0.5)
        with pytest.raises(InputError):
            rw_step(g, w, np.zeros(2), np.zeros(2), "rw-b", 1.5)


def raw_pair_graphs(directed, count=200, seed=21):
    """Seeded random graphs from raw pairs: duplicate rows, reversed copies
    and self-loops; isolated nodes, and trailing ones past the largest id
    on every other graph.  The first graph is a single edge."""
    rng = np.random.default_rng(seed)
    yield Graph.from_edges([(0, 1)], directed)
    for trial in range(count - 1):
        n = int(rng.integers(2, 40))
        raw = rng.integers(0, n, size=(int(rng.integers(1, 100)), 2))
        extra = raw[rng.random(raw.shape[0]) < 0.3]
        raw = np.concatenate([raw, extra, extra[:, ::-1], [(0, 1)]])
        node_count = None if trial % 2 else n + int(rng.integers(1, 4))
        yield Graph.from_edges(raw, directed, node_count)


class TestPrebuiltCsrSteps:
    """The steps and the spectral-radius bound run on the graph's prebuilt
    CSR through raw sparsetools kernels; each must equal, bit for bit, the
    same product through a public scipy csr_matrix."""

    def test_undirected_steps_and_bound_match_scipy(self):
        rng = np.random.default_rng(22)
        for g in raw_pair_graphs(directed=False):
            n = g.node_count
            w = EdgeWeights(rng.uniform(-1.0, 1.0, g.slot_count))
            q = rng.uniform(-1, 1, n)
            p = rng.uniform(-1, 1, n)
            assert np.array_equal(lbp_step_undirected(g, w, q, p),
                                  scipy_undirected_step(g, w, q, p))
            for variant in RW_VARIANTS:
                assert np.array_equal(rw_step(g, w, q, p, variant, 0.15),
                                      scipy_rw_step(g, w, q, p, variant, 0.15))
            assert g.spectral_radius_bound() == scipy_spectral_radius_bound(g)

    def test_directed_step_and_bound_match_scipy(self):
        rng = np.random.default_rng(23)
        for g in raw_pair_graphs(directed=True):
            n = g.node_count
            w = EdgeWeights(rng.uniform(-1.0, 1.0, g.slot_count))
            q = rng.uniform(-1, 1, n)
            p = rng.uniform(-1, 1, n)
            assert np.array_equal(lbp_step_directed(g, w, q, p),
                                  scipy_directed_step(g, w, q, p))
            assert g.spectral_radius_bound() == scipy_spectral_radius_bound(g)

    def test_given_inverse_degrees_change_nothing(self):
        rng = np.random.default_rng(24)
        g = random_undirected_graph(rng, 25)
        w = random_weights(rng, g)
        q = rng.uniform(-1, 1, 25)
        p = rng.uniform(-1, 1, 25)
        inv = _inverse_degrees(g, w)
        for variant in RW_VARIANTS:
            assert np.array_equal(rw_step(g, w, q, p, variant, 0.15, inv),
                                  rw_step(g, w, q, p, variant, 0.15))
        with pytest.raises(InputError):
            rw_step(g, w, q, p, "rw-b", 0.15, inv[:-1])

    def test_weighted_degrees_match_bincount(self):
        rng = np.random.default_rng(25)
        for g in raw_pair_graphs(False):
            w = random_weights(rng, g)
            w.values[rng.random(g.slot_count) < 0.1] = 0.0
            d = bincount_weighted_degrees(g, w)
            want = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
            assert _inverse_degrees(g, w).tobytes() == want.tobytes()
        with pytest.raises(InputError):
            _inverse_degrees(g, EdgeWeights(np.ones(g.slot_count + 1)))
        gd = directed_graph_with_isolated_tail()
        with pytest.raises(InputError):
            _inverse_degrees(gd, EdgeWeights.uniform(gd, 0.5))

    def test_scratch_holds_absolute_weights(self):
        # the run passes its free gradient array as the |w| scratch
        rng = np.random.default_rng(26)
        for g in raw_pair_graphs(False, count=50):
            w = random_weights(rng, g)
            scratch = np.full(g.slot_count, np.nan)
            inv = _inverse_degrees(g, w, scratch)
            assert inv.tobytes() == _inverse_degrees(g, w).tobytes()
            assert scratch.tobytes() == np.abs(w.values).tobytes()

    def test_sparsetools_kernels_add_into_y(self):
        # The steps rely on both kernels adding onto y as it stands, row
        # i's terms one at a time in entry order, starting from y[i].
        # A = [[1, 2], [0, 3]] as CSR; the same arrays read as CSC are A^T.
        # The kernels are the ones graph.py loaded and calls.
        kernels = graph._sparsetools
        indptr = np.array([0, 2, 3], dtype=np.int32)
        indices = np.array([0, 1, 1], dtype=np.int32)
        data = np.array([1.0, 2.0, 3.0])
        x = np.array([1.0, 10.0])
        y = np.array([100.0, 200.0])
        kernels.csr_matvec(2, 2, indptr, indices, data, x, y)
        assert y.tolist() == [121.0, 230.0]
        y = np.array([100.0, 200.0])
        kernels.csc_matvec(2, 2, indptr, indices, data, x, y)
        assert y.tolist() == [101.0, 232.0]
        # Accumulation order: at 1e16 the float spacing is 2, so adding 1.0
        # twice onto y[0] rounds away both times, where adding 1.0 + 1.0
        # would not.  Here the CSR is one row with two entries, and the
        # CSC one column with two entries in row 0.
        ones = np.ones(2)
        two = np.array([0, 2], dtype=np.int32)
        y = np.array([1e16])
        kernels.csr_matvec(1, 2, two, np.array([0, 1], dtype=np.int32),
                           ones, ones, y)
        assert y.tolist() == [1e16]
        y = np.array([1e16, 0.0])
        kernels.csc_matvec(2, 1, two, np.array([0, 0], dtype=np.int32),
                           ones, ones[:1], y)
        assert y.tolist() == [1e16, 0.0]

    def test_index_dtype_choice(self):
        top = 2 ** 31 - 1
        assert csr_index_dtype(0, 1) is np.int32
        assert csr_index_dtype(top, top) is np.int32
        assert csr_index_dtype(top + 1, 10) is np.int64
        assert csr_index_dtype(10, top + 1) is np.int64
        assert csr_index_dtype(2 ** 40, 2 ** 40) is np.int64

    def test_graph_uses_chosen_index_dtype(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=False)
        d = Graph.from_edges([(0, 1), (1, 2)], directed=True)
        for graph in (g, d):
            assert graph._csr_indptr.dtype == np.int32
            assert graph._csr_indices.dtype == np.int32


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        ls = LabelSet.of([3, 1], [2, 9])
        f = tmp_path / "labels.tsv"
        write_labels(ls, f)
        assert read_labels(f) == ls

    def test_accepts_plus_prefix(self, tmp_path):
        f = tmp_path / "labels.tsv"
        f.write_text("4\t+1\n5\t-1\n")
        ls = read_labels(f)
        assert ls.positives == {4} and ls.negatives == {5}

    def test_bad_label_value(self, tmp_path):
        f = tmp_path / "labels.tsv"
        f.write_text("4\t2\n")
        with pytest.raises(InputError, match=":1:"):
            read_labels(f)
