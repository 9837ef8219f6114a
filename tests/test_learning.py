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
    directed_sample,
    gen_pa,
    grad_directed,
    grad_rw_undirected,
    grad_undirected,
    training_loss,
    weight_class_means,
)
from jwprop.engine import _class_mean_slots
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

    @pytest.mark.parametrize("restart", [np.nan, 5.0, -0.1])
    def test_restart_checked_with_p_next(self, restart):
        # With p_next given no step runs, and the gradient once took any
        # restart: NaN gave NaN on the labeled slots, and 5.0 scaled their
        # loss term by -4.
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)], directed=False)
        w = EdgeWeights.uniform(g, 0.3)
        p = np.array([0.5, 0.1, -0.1, -0.5])
        for p_next in (None, p):
            with pytest.raises(InputError, match=r"^restart probability must lie in \[0, 1\]$"):
                grad_rw_undirected(g, w, np.zeros(4), p, LabelSet.of([0], [3]), 1.0,
                                   restart=restart, p_next=p_next)


class TestApplyGradientStep:
    def test_zero_gradient_identity(self):
        w = EdgeWeights(np.array([0.1, -0.3]))
        assert apply_gradient_step(w, np.zeros(2), 1.0) == 0.0
        assert w.values.tolist() == [0.1, -0.3]

    def test_clamp_at_boundary(self):
        w = EdgeWeights(np.array([0.4]))
        assert apply_gradient_step(w, np.array([-0.3]), 1.0) == 0.3
        assert w.values[0] == 0.5

    def test_interior_update(self):
        w = EdgeWeights(np.array([0.1]))
        assert apply_gradient_step(w, np.array([0.05]), 1.0) == 0.05
        assert w.values[0] == pytest.approx(0.05)

    def test_updates_in_place_and_returns_inf_norm(self):
        w = EdgeWeights(np.array([0.1, 0.2, -0.3]))
        values = w.values
        grad = np.array([0.4, -0.8, 0.2])
        expected = np.clip(values - 0.5 * grad, -0.5, 0.5)
        assert apply_gradient_step(w, grad, 0.5) == 0.8
        assert w.values is values
        assert np.array_equal(values, expected)

    def test_step_written_to_work(self):
        # the scaled step goes to the gradient's own array, which is
        # engine.run's work array
        grad = np.array([0.1, -0.2, 0.3])
        apply_gradient_step(EdgeWeights(np.zeros(3)), grad, 0.5)
        assert np.array_equal(grad, np.array([0.1, -0.2, 0.3]) * 0.5)

    def test_non_finite_gradient_aborts(self):
        w = EdgeWeights(np.array([0.1]))
        with pytest.raises(NumericalError):
            apply_gradient_step(w, np.array([np.nan]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_non_finite_entry_named(self, bad, gamma):
        # also at gamma 0, and for an inf that the clip would turn into a bound
        grad = np.array([0.1, -0.2, bad, bad, 0.3])
        with pytest.raises(NumericalError, match="slot 2$"):
            apply_gradient_step(EdgeWeights(np.zeros(5)), grad, gamma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_leaves_weights(self, bad):
        # the check runs before anything is written, the gradient included
        w = EdgeWeights(np.array([0.1, -0.2, 0.3, 0.4]))
        before = w.values.tobytes()
        grad = np.array([0.3, -0.1, 0.2, bad])
        grad_before = grad.tobytes()
        with pytest.raises(NumericalError, match="slot 3$"):
            apply_gradient_step(w, grad, 0.5)
        assert w.values.tobytes() == before
        assert grad.tobytes() == grad_before

    @pytest.mark.parametrize("name", ["work", "out"])
    @pytest.mark.parametrize("bad", [np.zeros(3, dtype=np.float32), np.zeros(4),
                                     np.zeros(3, dtype=np.int64), np.zeros(6)[::2]],
                             ids=["float32", "long", "int64", "strided"])
    def test_slot_arrays_checked(self, name, bad):
        # the step's two slot arrays: the gradient is its work array and the
        # weights' values its out array.  A long gradient gave numpy's
        # broadcast error and an int64 one a UFuncTypeError; a bad one is
        # refused by name before either array is written
        w = EdgeWeights(np.array([0.1, -0.2, 0.3]))
        written = {"work": bad, "out": w.values}[name]
        before = written.tobytes()
        with pytest.raises(InputError, match="^grad must be a contiguous float64 array"):
            apply_gradient_step(w, bad, 0.1)
        assert written.tobytes() == before

    @pytest.mark.parametrize("grad", [np.array([0.1, 1e-9, 0.3], dtype=np.float32),
                                      np.array([0.1, 1e-9])],
                             ids=["float32", "short"])
    def test_work_checked(self, grad):
        # the gradient is the step's work array: a float32 one would round
        # the step without a word
        with pytest.raises(InputError, match="^grad must be"):
            apply_gradient_step(EdgeWeights(np.zeros(3)), grad, 0.3333)

    def test_read_only_weights_rejected(self):
        values = np.array([0.1, 0.2])
        values.flags.writeable = False
        w = EdgeWeights(values)
        grad = np.array([0.3, 0.4])
        with pytest.raises(InputError, match="^weights must be writeable"):
            apply_gradient_step(w, grad, 0.1)
        assert values.tolist() == [0.1, 0.2] and grad.tolist() == [0.3, 0.4]

    @pytest.mark.parametrize("view", [lambda v: v, lambda v: v.view()],
                             ids=["same", "view"])
    def test_grad_aliasing_weights_rejected(self, view):
        w = EdgeWeights(np.array([0.1, -0.2, 0.3]))
        with pytest.raises(InputError, match="^grad must not share memory"):
            apply_gradient_step(w, view(w.values), 0.1)
        assert w.values.tolist() == [0.1, -0.2, 0.3]

    @pytest.mark.parametrize("gamma", [-0.1, np.nan, np.inf])
    def test_learning_rate_checked(self, gamma):
        # NaN passed the old sign test and gave NaN weights, and so did an
        # infinite rate wherever the gradient is 0
        with pytest.raises(InputError, match="^learning rate must be nonnegative"):
            apply_gradient_step(EdgeWeights(np.zeros(2)), np.array([0.0, 0.1]), gamma)

    @pytest.mark.parametrize("bound", [np.nan, -1.0, np.inf, -np.inf])
    def test_clamp_bound_checked(self, bound):
        # A NaN bound once gave all-NaN weights, and -1.0 weights of -1.0,
        # outside the |w| <= bound the clip promises.
        with pytest.raises(InputError, match="^clamp_bound must be nonnegative and finite"):
            apply_gradient_step(EdgeWeights(np.zeros(3), bound), np.zeros(3), 1.0)
        with pytest.raises(InputError, match="^clamp_bound must be nonnegative and finite"):
            EdgeWeights(np.zeros(3), bound)

    def test_zero_clamp_bound_accepted(self):
        w = EdgeWeights(np.zeros(2), 0.0)
        assert apply_gradient_step(w, np.array([0.5, -0.5]), 1.0) == 0.5
        assert w.values.tolist() == [0.0, 0.0] and w.clamp_bound == 0.0

    def test_empty_gradient(self):
        w = EdgeWeights(np.zeros(0))
        assert apply_gradient_step(w, np.zeros(0), 1.0) == 0.0
        assert w.values.size == 0

    @pytest.mark.parametrize("grad,norm", [([0.1, -0.4, 0.3], 0.4), ([0.5, -0.2], 0.5),
                                           ([-0.0], 0.0), ([], 0.0)])
    def test_gradient_inf_norm(self, grad, norm):
        got = gradient_inf_norm(np.array(grad, dtype=float))
        assert got == norm and math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gradient_inf_norm_names_slot(self, bad):
        with pytest.raises(NumericalError, match="slot 1$"):
            gradient_inf_norm(np.array([0.1, bad, bad]))

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=10).map(np.asarray))
    def test_clamp_idempotent(self, vals):
        w = EdgeWeights(vals)
        apply_gradient_step(w, np.zeros(vals.size), 1.0)
        once = w.values.copy()
        apply_gradient_step(w, np.zeros(vals.size), 1.0)
        assert np.array_equal(once, w.values)
        assert np.all(np.abs(once) <= 0.5)

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
        before, w_before = consistency_value(g, w, p_t), w.values[0]
        assert apply_gradient_step(w, grad, gamma) == pytest.approx(lam)
        after = consistency_value(g, w, p_t)
        assert after > before
        assert np.sign(w.values[0] - w_before) == np.sign(p_t[0] * p_t[1])


class TestSlotWork:
    """Gradients give the same bits with a reused, dirty slot-sized work
    array (their ``out``) as with a fresh one, and the update step applied
    to the gradient held there gives the bits of w - gamma * grad, clipped."""

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
        expected = np.clip(w.values - 0.1 * fresh, -w.clamp_bound, w.clamp_bound)
        assert apply_gradient_step(w, reused, 0.1) == np.abs(fresh).max()
        assert np.array_equal(w.values, expected)

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
    def test_regularizer_by_value(self, directed, fn):
        # a string regularizer once fell through to no regularizer at all
        g = self._four_nodes(directed)
        w = EdgeWeights(np.linspace(-0.3, 0.4, g.slot_count))
        args = (g, w, np.zeros(4), np.linspace(-1.0, 1.0, 4), LabelSet.of([0], [1]), 0.7)
        for kind in RegularizerKind:
            assert fn(*args, kind.value).tobytes() == fn(*args, kind).tobytes()
        assert not np.array_equal(fn(*args, "l2"), fn(*args, RegularizerKind.NONE))
        with pytest.raises(InputError, match="^unknown regularizer 'L2'$"):
            fn(*args, "L2")

    @pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
    @pytest.mark.parametrize("directed,fn", GRADIENTS)
    def test_lam_checked(self, directed, fn, lam):
        # the gradients once took any lam, and NaN gave a NaN gradient
        g = self._four_nodes(directed)
        w = EdgeWeights(np.full(g.slot_count, 0.1))
        with pytest.raises(InputError, match="^lam must be nonnegative and finite"):
            fn(g, w, np.zeros(4), np.ones(4), LabelSet.of([0], [1]), lam)

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
        "_class_mean_slots": lambda lab: _class_mean_slots(und, lab),
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
            # the slot's step column: v, or pair_class * n + v when directed
            if directed:
                ref = reference_graph_arrays(g.edges, True, g.node_count)
                assert np.array_equal(lab.col, ref["class_col"][mask])
            else:
                assert np.array_equal(lab.col, g.slot_ends[mask, 1])
            assert lab.col.dtype == np.int64
            assert sorted(vars(lab)) == ["col", "idx", "u"]

    @pytest.mark.parametrize("directed", [False, True])
    def test_labeled_slots_match_mask_build(self, directed):
        # The row-pointer build gives the bytes of the mask build it
        # replaced: a slot-sized mask over the rows, or'ed with one over the
        # columns when undirected.
        rng = np.random.default_rng(32)
        for i in range(120):
            g, labels, _ = graph_case(rng, i, directed)
            is_labeled = np.zeros(g.node_count, dtype=bool)
            is_labeled[labels.positive_array()] = True
            is_labeled[labels.negative_array()] = True
            mask = np.repeat(is_labeled, np.diff(g._csr_indptr))
            if not directed:
                mask |= np.take(is_labeled, g._csr_indices)
            idx = np.flatnonzero(mask)
            u, col = g._rows_and_columns(idx)
            lab = LabeledSlots(g, labels)
            for got, want in ((lab.idx, idx), (lab.u, u), (lab.col, col)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    # Traced peak of the build in bytes per slot, 100 + 100 labels on the
    # gen_pa(15000, 10) graph or its 0.6-keep arc sample.  The mask build
    # peaked at 10.1 B undirected (np.take copied the int32 indices to
    # int64) and 1.78 B directed (the row mask).
    PEAK_PER_SLOT = {False: 3.0, True: 1.0}

    @pytest.mark.parametrize("directed", [False, True])
    def test_labeled_slots_peak(self, directed):
        import tracemalloc

        base = gen_pa(15000, 10, seed=11)
        g = directed_sample(base, 0.6, seed=11) if directed else base
        picks = np.random.default_rng(1).permutation(g.node_count)[:200]
        labels = LabelSet.of(np.sort(picks[:100]), np.sort(picks[100:]))
        tracemalloc.start()
        try:
            lab = LabeledSlots(g, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lab.idx.size > 0
        assert peak / g.slot_count <= self.PEAK_PER_SLOT[directed], peak / g.slot_count
