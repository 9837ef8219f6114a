import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jwprop import (
    EdgeWeights,
    Graph,
    InputError,
    LabelSet,
    NumericalError,
    RegularizerKind,
    apply_gradient_step,
    consistency_value,
    grad_directed,
    grad_rw_undirected,
    grad_undirected,
    training_loss,
    truth_class_slots,
    weight_class_means,
)
from jwprop.learning import LabeledSlots, gradient_inf_norm

from _oracles import (
    bincount_weighted_degrees,
    directed_graph_with_isolated_tail,
    finite_difference_gradient,
    fsum_consistency,
    full_slot_grad_directed,
    full_slot_grad_rw_undirected,
    full_slot_grad_undirected,
    objective,
    random_directed_graph,
    random_labels,
    random_undirected_graph,
    random_weights,
    reference_graph_arrays,
    regularizer_term,
)

ALL_REGS = list(RegularizerKind)
GRADIENTS = [(False, grad_undirected), (True, grad_directed), (False, grad_rw_undirected)]


def relative_close(a, b, rtol=1e-5, atol=1e-9):
    return np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)) + atol)


class TestTrainingLoss:
    def test_perfect_fit_is_zero(self):
        p = np.array([1.0, -1.0, 0.3])
        assert training_loss(p, LabelSet.of([0], [1])) == 0.0

    def test_single_positive_at_zero(self):
        assert training_loss(np.zeros(1), LabelSet.of([0], [])) == pytest.approx(0.5)

    def test_mixed(self):
        p = np.array([0.5, -0.2])
        loss = training_loss(p, LabelSet.of([0], [1]))
        assert loss == pytest.approx(0.445)

    def test_empty_labels_rejected(self):
        with pytest.raises(InputError):
            training_loss(np.zeros(2), LabelSet.of([], []))


class TestConsistencyValue:
    def test_single_edge(self):
        g = Graph.from_edges([(0, 1)], directed=False)
        w = EdgeWeights(np.array([0.5]))
        assert consistency_value(g, w, np.array([1.0, -1.0])) == pytest.approx(-0.5)

    def test_zero_weights(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=False)
        w = EdgeWeights.uniform(g, 0.0)
        assert consistency_value(g, w, np.array([3.0, -2.0, 1.0])) == 0.0

    def test_triangle(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], directed=False)
        w = EdgeWeights.uniform(g, 0.5)
        p = np.array([1.0, 1.0, -1.0])
        assert consistency_value(g, w, p) == pytest.approx(-0.5)

    def test_directed_sums_per_ordered_pair(self):
        g = Graph.from_edges([(0, 1), (1, 0)], directed=True)
        w = EdgeWeights(np.array([0.2, 0.3]))
        p = np.array([1.0, -2.0])
        assert consistency_value(g, w, p) == pytest.approx(-2.0 * 0.2 - 2.0 * 0.3)

    def test_matches_fsum_of_slot_terms(self):
        # Random graphs with isolated nodes, weights of both signs, -0.0
        # weights and zero scores: the row-wise sum p . (U_w p) stays within
        # the rounding bound of the exactly summed per-slot terms.
        rng = np.random.default_rng(5)
        for directed in (False, True):
            for i in range(60):
                g, _, _ = graph_case(rng, i, directed)
                w = random_weights(rng, g, lo=-1.0, hi=1.0)
                w.values[rng.random(g.slot_count) < 0.1] = -0.0
                p = scores_with_zeros(rng, g.node_count) * 10.0 ** rng.integers(-3, 4)
                want, bound = fsum_consistency(g, w, p)
                assert abs(consistency_value(g, w, p) - want) <= bound


class TestGradUndirected:
    def test_unlabeled_edge_zero_without_regularizer(self):
        g = Graph.from_edges([(0, 1)], directed=False)
        w = EdgeWeights.uniform(g, 0.3)
        q = np.zeros(2)
        p = np.array([0.4, -0.2])
        grad = grad_undirected(g, w, q, p, LabelSet.of([], []), 0.0,
                               RegularizerKind.NONE)
        assert not grad.any()

    def test_worked_example(self):
        # labeled endpoint l=0 (positive), unlabeled v=1; weight and prior
        # chosen so the next score at l is exactly 0.5
        g = Graph.from_edges([(0, 1)], directed=False)
        w = EdgeWeights(np.array([0.2]))
        p_t = np.array([1.0, -0.5])
        q = np.array([0.5 - 0.2 * (-0.5), 0.0])
        labels = LabelSet.of([0], [])
        grad = grad_undirected(g, w, q, p_t, labels, 0.1, RegularizerKind.CONSISTENCY)
        assert grad[0] == pytest.approx(0.30)
        fd = finite_difference_gradient(
            objective(g, q, p_t, labels, 0.1, RegularizerKind.CONSISTENCY, False),
            w.values)
        assert grad[0] == pytest.approx(fd[0], rel=1e-6)

    @pytest.mark.parametrize("reg", ALL_REGS)
    def test_matches_finite_differences(self, reg):
        rng = np.random.default_rng(hash(reg) % 2**32)
        for _ in range(5):
            n = int(rng.integers(5, 21))
            g = random_undirected_graph(rng, n, density=0.25)
            w = random_weights(rng, g, min_abs=0.05)
            q = rng.uniform(-1, 1, n)
            p_t = rng.uniform(-1, 1, n)
            labels = random_labels(rng, n, 2, 2)
            lam = 0.3
            grad = grad_undirected(g, w, q, p_t, labels, lam, reg)
            fd = finite_difference_gradient(
                objective(g, q, p_t, labels, lam, reg, False), w.values)
            assert relative_close(grad, fd)

    def test_shared_slot_accumulates_both_endpoints(self):
        g = Graph.from_edges([(0, 1)], directed=False)
        w = EdgeWeights(np.array([0.5]))
        q = np.array([1.0, -1.0])
        p_t = q.copy()
        labels = LabelSet.of([0], [1])
        grad = grad_undirected(g, w, q, p_t, labels, 0.0, RegularizerKind.NONE)
        # p_next = (0.5, -0.5): (0.5-1)(-1) + (-0.5+1)(1) = 1.0
        assert grad[0] == pytest.approx(1.0)


class TestGradDirected:
    def test_unlabeled_row_zero(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        w = EdgeWeights.uniform(g, 0.3)
        q = np.array([0.0, 1.0])
        grad = grad_directed(g, w, q, q, LabelSet.of([1], []), 0.0,
                             RegularizerKind.NONE)
        # slot (0,1) has unlabeled row owner 0
        assert grad[g.edge_slot(0, 1)] == 0.0

    def test_worked_example(self):
        # bidirectional pair with row owner l=0 labeled negative
        g = Graph.from_edges([(0, 1), (1, 0)], directed=True)
        w05 = 0.5
        vals = np.zeros(2)
        vals[g.edge_slot(0, 1)] = w05
        vals[g.edge_slot(1, 0)] = 0.1
        w = EdgeWeights(vals)
        p_t = np.array([-1.0, 0.4])
        # next score at node 0 must be -0.2 = q_0 + w_{01} * p_t[1]
        q = np.array([-0.2 - w05 * 0.4, 0.0])
        labels = LabelSet.of([], [0])
        grad = grad_directed(g, w, q, p_t, labels, 0.1, RegularizerKind.CONSISTENCY)
        assert grad[g.edge_slot(0, 1)] == pytest.approx(0.36)
        fd = finite_difference_gradient(
            objective(g, q, p_t, labels, 0.1, RegularizerKind.CONSISTENCY, True),
            w.values)
        assert grad[g.edge_slot(0, 1)] == pytest.approx(fd[g.edge_slot(0, 1)], rel=1e-6)

    @pytest.mark.parametrize("reg", ALL_REGS)
    def test_matches_finite_differences(self, reg):
        rng = np.random.default_rng((hash(reg) + 17) % 2**32)
        for _ in range(5):
            n = int(rng.integers(5, 21))
            g = random_directed_graph(rng, n, density=0.2)
            w = random_weights(rng, g, min_abs=0.05)
            q = rng.uniform(-1, 1, n)
            p_t = rng.uniform(-1, 1, n)
            # keep rectifier arguments away from their kinks
            p_t[np.abs(p_t) <= 1e-3] = 0.1
            labels = random_labels(rng, n, 2, 2)
            lam = 0.3
            grad = grad_directed(g, w, q, p_t, labels, lam, reg)
            fd = finite_difference_gradient(
                objective(g, q, p_t, labels, lam, reg, True), w.values)
            assert relative_close(grad, fd)

    @pytest.mark.parametrize("reg", ALL_REGS)
    def test_isolated_tail_matches_finite_differences(self, reg):
        # every pair class, and a node count above max id + 1
        g = directed_graph_with_isolated_tail()
        rng = np.random.default_rng(23)
        w = random_weights(rng, g, min_abs=0.05)
        q = rng.uniform(-1, 1, 7)
        p_t = np.array([0.7, -0.4, 0.3, -0.9, 0.5, -0.6, 0.2])
        labels = LabelSet.of([0, 3, 5], [1, 2, 6])
        grad = grad_directed(g, w, q, p_t, labels, 0.3, reg)
        fd = finite_difference_gradient(
            objective(g, q, p_t, labels, 0.3, reg, True), w.values)
        assert relative_close(grad, fd)


class TestGradRwUndirected:
    def test_zero_without_labels_or_regularizer(self):
        g = Graph.from_edges([(0, 1)], directed=False)
        w = EdgeWeights.uniform(g, 0.3)
        grad = grad_rw_undirected(g, w, np.zeros(2), np.array([1.0, -1.0]),
                                  LabelSet.of([], []), 0.0, RegularizerKind.NONE)
        assert not grad.any()

    def test_receiver_scaling(self):
        # star: node 0 has weighted degree 1.0, leaves 0.5
        g = Graph.from_edges([(0, 1), (0, 2)], directed=False)
        w = EdgeWeights.uniform(g, 0.5)
        q = np.zeros(3)
        p_t = np.array([1.0, 2.0, 3.0])
        labels = LabelSet.of([0], [])
        grad = grad_rw_undirected(g, w, q, p_t, labels, 0.0, RegularizerKind.NONE,
                                  restart=0.0)
        p_next = np.array([0.5 * 2 + 0.5 * 3, 0.5 * 1 / 0.5, 0.5 * 1 / 0.5])
        err0 = p_next[0] - 1.0
        assert grad[g.edge_slot(0, 1)] == pytest.approx(err0 * 2.0 / 1.0)
        assert grad[g.edge_slot(0, 2)] == pytest.approx(err0 * 3.0 / 1.0)


class TestApplyGradientStep:
    def test_zero_gradient_identity(self):
        w = EdgeWeights(np.array([0.1, -0.3]))
        out = apply_gradient_step(w, np.zeros(2), 1.0)
        assert np.array_equal(out.values, w.values)

    def test_clamp_at_boundary(self):
        w = EdgeWeights(np.array([0.4]))
        out = apply_gradient_step(w, np.array([-0.3]), 1.0)
        assert out.values[0] == 0.5

    def test_interior_update(self):
        w = EdgeWeights(np.array([0.1]))
        out = apply_gradient_step(w, np.array([0.05]), 1.0)
        assert out.values[0] == pytest.approx(0.05)

    def test_non_finite_gradient_aborts(self):
        w = EdgeWeights(np.array([0.1]))
        with pytest.raises(NumericalError):
            apply_gradient_step(w, np.array([np.nan]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_non_finite_entry_named(self, bad, gamma):
        # also at gamma 0, and for an inf that the clip would turn into a
        # bound; a work array does not skip the check
        grad = np.array([0.1, -0.2, bad, bad, 0.3])
        work = grad.copy()
        for given in (grad, work):
            with pytest.raises(NumericalError, match="slot 2$"):
                apply_gradient_step(EdgeWeights(np.zeros(5)), given, gamma, work)

    def test_empty_gradient(self):
        out = apply_gradient_step(EdgeWeights(np.zeros(0)), np.zeros(0), 1.0)
        assert out.values.size == 0

    def test_step_written_to_work(self):
        # the scaled step goes to work, whatever gradient is given
        grad = np.array([0.1, -0.2, 0.3])
        work = np.empty(3)
        out = apply_gradient_step(EdgeWeights(np.zeros(3)), grad, 0.5, work)
        assert grad.tolist() == [0.1, -0.2, 0.3]
        assert np.array_equal(work, grad * 0.5)
        work[:] = grad
        scratch = apply_gradient_step(EdgeWeights(np.zeros(3)), work, 0.5, work)
        assert np.array_equal(work, grad * 0.5)
        assert np.array_equal(out.values, scratch.values)
        assert np.array_equal(out.values, -(grad * 0.5))
        plain = apply_gradient_step(EdgeWeights(np.zeros(3)), grad, 0.5)
        assert np.array_equal(plain.values, out.values)
        assert grad.tolist() == [0.1, -0.2, 0.3]

    @pytest.mark.parametrize("work", [np.empty(3, dtype=np.float32), np.empty(2)],
                             ids=["float32", "short"])
    def test_work_checked(self, work):
        # a float32 work array would round the step without a word
        with pytest.raises(InputError, match="^work must be"):
            apply_gradient_step(EdgeWeights(np.zeros(3)), np.array([0.1, 1e-9, 0.3]),
                                0.3333, work)

    @pytest.mark.parametrize("grad,norm", [([0.1, -0.4, 0.3], 0.4), ([0.5, -0.2], 0.5),
                                           ([-0.0], 0.0), ([], 0.0)])
    def test_gradient_inf_norm(self, grad, norm):
        got = gradient_inf_norm(np.array(grad, dtype=float))
        assert got == norm and math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gradient_inf_norm_names_slot(self, bad):
        with pytest.raises(NumericalError, match="slot 1$"):
            gradient_inf_norm(np.array([0.1, bad, bad]))

    def test_checked_skips_the_check(self):
        # the caller vouches for the gradient through gradient_inf_norm
        out = apply_gradient_step(EdgeWeights(np.zeros(2)), np.array([0.2, np.nan]),
                                  1.0, checked=True)
        assert out.values[0] == -0.2

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=10).map(np.asarray))
    def test_clamp_idempotent(self, vals):
        w = EdgeWeights(vals)
        once = apply_gradient_step(w, np.zeros(vals.size), 1.0)
        twice = apply_gradient_step(once, np.zeros(vals.size), 1.0)
        assert np.array_equal(once.values, twice.values)
        assert np.all(np.abs(once.values) <= 0.5)

    def test_consistency_step_increases_consistency_at_zero_loss(self):
        # fit the labels exactly so only the consistency force remains
        g = Graph.from_edges([(0, 1)], directed=False)
        w = EdgeWeights(np.array([0.3]))
        p_t = np.array([1.0, 1.0])
        q = np.array([0.7, -1.3])
        labels = LabelSet.of([0], [1])
        lam, gamma = 0.1, 1.0
        grad = grad_undirected(g, w, q, p_t, labels, lam, RegularizerKind.CONSISTENCY)
        assert grad[0] == pytest.approx(-lam)
        out = apply_gradient_step(w, grad, gamma)
        before = consistency_value(g, w, p_t)
        after = consistency_value(g, out, p_t)
        assert after > before
        assert np.sign(out.values[0] - w.values[0]) == np.sign(p_t[0] * p_t[1])


class TestSlotWork:
    """Gradients and the update step give the same bits with a reused, dirty
    slot-sized work array (the gradients' ``out``, the update's ``work``)
    as with fresh ones."""

    @staticmethod
    def _dirty(g):
        return np.full(g.slot_count, np.nan)

    @pytest.mark.parametrize("reg", ALL_REGS)
    @pytest.mark.parametrize("directed,fn", GRADIENTS)
    def test_dirty_work_gives_same_gradient(self, reg, directed, fn):
        rng = np.random.default_rng(8)
        g = random_directed_graph(rng, 12) if directed else random_undirected_graph(rng, 12)
        w = random_weights(rng, g)
        q = rng.normal(size=g.node_count)
        p_t = rng.normal(size=g.node_count)
        labels = random_labels(rng, g.node_count, 3, 3)
        fresh = fn(g, w, q, p_t, labels, 0.7, reg)
        work = self._dirty(g)
        reused = fn(g, w, q, p_t, labels, 0.7, reg, out=work)
        assert reused is work
        assert np.array_equal(fresh, reused)
        work = self._dirty(g)
        step = apply_gradient_step(w, fresh, 0.1)
        in_place = EdgeWeights(w.values.copy(), w.clamp_bound)
        out = apply_gradient_step(in_place, fresh, 0.1, work, out=in_place.values)
        assert out.values is in_place.values
        assert np.array_equal(step.values, out.values)

    @pytest.mark.parametrize("directed,fn", GRADIENTS)
    def test_score_vector_length_checked(self, directed, fn):
        # the gathers clip out-of-range indices instead of raising
        rng = np.random.default_rng(9)
        g = random_directed_graph(rng, 8) if directed else random_undirected_graph(rng, 8)
        w = random_weights(rng, g)
        short = np.ones(g.node_count - 1)
        labels = LabelSet.of([0], [1])
        with pytest.raises(InputError, match="score vector"):
            fn(g, w, np.zeros(g.node_count), short, labels, 1.0,
               p_next=np.zeros(g.node_count))
        for size in (g.node_count + 1, 2):  # a given p_next too
            with pytest.raises(InputError, match=f"score vector has length {size},"):
                fn(g, w, np.zeros(g.node_count), np.ones(g.node_count), labels, 1.0,
                   p_next=np.zeros(size))
        with pytest.raises(InputError, match="score vector"):
            consistency_value(g, w, short)


def graph_case(rng, i, directed):
    """Graph, labels and the mask of slots that carry loss signal.

    Cases cycle through: labeled isolated nodes next to random labels;
    both endpoints of some edges labeled; only isolated nodes labeled, so
    no slot carries loss signal; random labels.  The isolated nodes come
    last in every other round of four cases; in the others the node ids
    are shuffled, so rows that hold no slot sit anywhere in the step CSR."""
    n = int(rng.integers(4, 21))
    extra = int(rng.integers(1, 4))
    make = random_directed_graph if directed else random_undirected_graph
    base = make(rng, n, density=float(rng.uniform(0.05, 0.4)))
    ids = rng.permutation(n + extra) if (i // 4) % 2 else np.arange(n + extra)
    g = Graph.from_edges(ids[base.edges], directed=directed, node_count=n + extra)
    isolated = [int(x) for x in ids[n:]]
    case = i % 4
    if case == 0:
        picks = [int(x) for x in ids[rng.permutation(n)[:int(rng.integers(0, n // 2 + 1))]]]
        ids = picks + isolated
    elif case == 1:
        rows = rng.permutation(g.slot_count)[:int(rng.integers(1, 4))]
        ids = list(dict.fromkeys(int(x) for x in g.slot_ends[rows].ravel()))
    elif case == 2:
        ids = isolated
    else:
        ids = [int(x) for x in rng.permutation(n + extra)[:int(rng.integers(1, n))]]
    split = int(rng.integers(0, len(ids) + 1))
    labels = LabelSet.of(ids[:split], ids[split:])
    is_labeled = np.zeros(g.node_count, dtype=bool)
    is_labeled[ids] = True
    u, v = g.slot_ends[:, 0], g.slot_ends[:, 1]
    mask = is_labeled[u] if directed else is_labeled[u] | is_labeled[v]
    if case == 2:
        assert not mask.any()
    return g, labels, mask


def scores_with_zeros(rng, n):
    p = rng.normal(size=n)
    p[rng.random(n) < 0.2] = 0.0
    p[rng.random(n) < 0.1] = -0.0
    return p


def has_inner_empty_row(g):
    """Whether a row of the step CSR that holds no slot precedes one that
    holds some."""
    counts = np.diff(g._csr_indptr)
    return bool(np.any((counts[:-1] == 0) & (np.cumsum(counts[::-1])[::-1][1:] > 0)))


class TestGradientInputs:
    """What the gradients check and keep, called directly."""

    @staticmethod
    def _four_nodes(directed):
        edges = [(0, 1), (1, 0), (2, 3), (3, 1)] if directed else [(0, 1), (1, 2), (2, 3)]
        g = Graph.from_edges(edges, directed=directed)
        assert g.node_count == 4
        return g

    @pytest.mark.parametrize("directed,fn", GRADIENTS)
    def test_wrong_direction_names_the_gradient(self, directed, fn):
        g = self._four_nodes(not directed)
        w = EdgeWeights(np.full(g.slot_count, 0.1))
        kind = "a directed" if directed else "an undirected"
        for p_next in (None, np.zeros(4)):
            with pytest.raises(InputError, match=f"^{fn.__name__} expects {kind} graph$"):
                fn(g, w, np.zeros(4), np.zeros(4), LabelSet.of([0], [1]), 1.0,
                   p_next=p_next)

    @pytest.mark.parametrize("bad", ["short", "float32", "strided"])
    @pytest.mark.parametrize("directed,fn", GRADIENTS)
    def test_out_checked(self, directed, fn, bad):
        # the regularizer kernels write into out with no bounds checks
        g = self._four_nodes(directed)
        s = g.slot_count
        w = EdgeWeights(np.full(s, 0.1))
        out = {"short": np.zeros(s - 1), "float32": np.zeros(s, dtype=np.float32),
               "strided": np.zeros(2 * s)[::2]}[bad]
        with pytest.raises(InputError, match="^out must be"):
            fn(g, w, np.zeros(4), np.ones(4), LabelSet.of([0], [1]), 1.0, out=out)

    @pytest.mark.parametrize("directed,fn", GRADIENTS)
    def test_label_sets_switched_on_one_graph(self, directed, fn):
        # The labeled slots kept with the graph follow its latest label set:
        # A, B, then A again give the gradients of graphs never used before.
        rng = np.random.default_rng(14)
        g = random_directed_graph(rng, 14) if directed else random_undirected_graph(rng, 14)
        w = random_weights(rng, g)
        q, p_t = rng.normal(size=14), rng.normal(size=14)
        a, b = random_labels(rng, 14, 3, 3), random_labels(rng, 14, 2, 4)
        assert a != b
        for labels in (a, b, a):
            fresh = Graph.from_edges(g.edges, directed=directed, node_count=14)
            assert np.array_equal(fresh._csr_indices, g._csr_indices)
            assert (fn(g, w, q, p_t, labels, 0.7).tobytes()
                    == fn(fresh, w, q, p_t, labels, 0.7).tobytes())


def _label_entry_points():
    und = Graph.from_edges([(0, 1), (1, 2)], directed=False)
    dig = Graph.from_edges([(0, 1), (1, 2), (2, 0)], directed=True)
    w_und, w_dig = (EdgeWeights(np.full(g.slot_count, 0.1)) for g in (und, dig))
    z = np.zeros(3)
    return {
        "grad_undirected": lambda lab: grad_undirected(und, w_und, z, z, lab, 1.0),
        "grad_directed": lambda lab: grad_directed(dig, w_dig, z, z, lab, 1.0),
        "grad_rw_undirected": lambda lab: grad_rw_undirected(und, w_und, z, z, lab, 1.0),
        "LabeledSlots": lambda lab: LabeledSlots(und, lab),
        "LabeledSlots-directed": lambda lab: LabeledSlots(dig, lab),
        "truth_class_slots": lambda lab: truth_class_slots(und, lab),
        "weight_class_means": lambda lab: weight_class_means(dig, w_dig, lab),
        "training_loss": lambda lab: training_loss(z, lab),
    }


@pytest.mark.parametrize("entry", list(_label_entry_points()))
@pytest.mark.parametrize("labels", [LabelSet.of([0, 5], [1]), LabelSet.of([0], [5])],
                         ids=["positive", "negative"])
def test_out_of_range_label_id_is_input_error(entry, labels):
    # label id 5 on a 3-node graph
    with pytest.raises(InputError, match="label node id 5 out of range for 3 nodes"):
        _label_entry_points()[entry](labels)


class TestLabeledSlotGradients:
    """The gradients equal the full-slot formulas bit for bit on the slots
    that carry loss signal, and equal them in value elsewhere, where only
    the sign of a zero may differ; passing ``work``/``labeled`` in changes
    no bit."""

    @pytest.mark.parametrize("reg", ALL_REGS)
    @pytest.mark.parametrize("family", ["lbp-u", "lbp-d", "rw"])
    def test_matches_full_slot_formula(self, family, reg):
        rng = np.random.default_rng([7, ALL_REGS.index(reg), len(family)])
        directed = family == "lbp-d"
        for i in range(200):
            g, labels, mask = graph_case(rng, i, directed)
            n = g.node_count
            w = random_weights(rng, g)
            w.values[rng.random(g.slot_count) < 0.1] = -0.0
            q = rng.normal(size=n)
            p_t, p_next = scores_with_zeros(rng, n), rng.normal(size=n)
            lam = float(rng.uniform(0.1, 2.0))
            if family == "rw":
                restart = float(rng.choice([0.0, 0.15]))
                inv = np.zeros(n)
                d = bincount_weighted_degrees(g, w)
                inv[d > 0] = 1.0 / d[d > 0]
                want = full_slot_grad_rw_undirected(g, w, p_t, p_next, labels, lam,
                                                    reg, restart, inv)

                def grad(**kw):
                    return grad_rw_undirected(g, w, q, p_t, labels, lam, reg, restart,
                                              p_next, inv_degrees=inv, **kw).copy()
            else:
                oracle, fn = ((full_slot_grad_directed, grad_directed) if directed
                              else (full_slot_grad_undirected, grad_undirected))
                want = oracle(g, w, p_t, p_next, labels, lam, reg)

                def grad(**kw):
                    return fn(g, w, q, p_t, labels, lam, reg, p_next, **kw).copy()

            alone = grad()
            given = grad(out=np.full(g.slot_count, np.nan))
            assert alone.tobytes() == given.tobytes()
            assert alone[mask].tobytes() == want[mask].tobytes()
            assert np.array_equal(alone[~mask], want[~mask])

    @pytest.mark.parametrize("family", ["lbp-u", "lbp-d", "rw"])
    def test_consistency_term_is_the_slot_product(self, family):
        # With no label on any slot the gradient is the consistency term
        # alone: (-lam * p_u) * p_v per slot, zeros' signs included, also on
        # graphs whose step CSR has empty rows before nonempty ones.
        rng = np.random.default_rng([11, len(family)])
        directed = family == "lbp-d"
        no_labels = LabelSet.of([], [])
        inner_empty = 0
        for i in range(120):
            g, _, _ = graph_case(rng, i, directed)
            inner_empty += has_inner_empty_row(g)
            n = g.node_count
            w = random_weights(rng, g)
            q, p_next = rng.normal(size=n), rng.normal(size=n)
            p_t = scores_with_zeros(rng, n)
            if i % 3 == 0:  # signed zeros only
                p_t = np.where(rng.random(n) < 0.5, 0.0, -0.0)
            lam = 0.0 if i % 5 == 0 else float(rng.uniform(0.1, 2.0))
            reg = RegularizerKind.CONSISTENCY
            if family == "rw":
                got = grad_rw_undirected(g, w, q, p_t, no_labels, lam, reg,
                                         p_next=p_next)
            else:
                fn = grad_directed if directed else grad_undirected
                got = fn(g, w, q, p_t, no_labels, lam, reg, p_next)
            assert got.tobytes() == regularizer_term(g, w, p_t, reg, lam).tobytes()
        assert inner_empty >= 20

    @pytest.mark.parametrize("directed", [False, True])
    def test_labeled_slots(self, directed):
        rng = np.random.default_rng(31)
        for i in range(40):
            g, labels, mask = graph_case(rng, i, directed)
            lab = LabeledSlots(g, labels)
            assert np.array_equal(lab.idx, np.flatnonzero(mask))
            assert np.array_equal(lab.u, g.slot_ends[mask, 0])
            assert np.array_equal(lab.v, g.slot_ends[mask, 1])
            if directed:
                ref = reference_graph_arrays(g.edges, True, g.node_count)
                assert np.array_equal(lab.col, ref["class_col"][mask])
            else:
                assert lab.col is None
