import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jwprop import InputError, LabelSet, auc, auc_of_rows, rank_and_write, read_scores
from jwprop.metrics import AucReport

from _oracles import brute_force_auc, brute_force_auc_counts


class TestAuc:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        report = auc(scores, LabelSet.of([0, 1], [2, 3]))
        assert report.auc == 1.0
        assert report.tie_pairs == 0

    def test_all_tied_is_half(self):
        scores = np.full(6, 0.3)
        report = auc(scores, LabelSet.of([0, 1, 2], [3, 4, 5]))
        assert report.auc == 0.5
        assert report.tie_pairs == 9

    def test_mixed_example(self):
        scores = np.array([0.9, 0.2, 0.4, 0.6])
        report = auc(scores, LabelSet.of([0, 1], [2, 3]))
        assert report.auc == 0.5

    def test_one_class_rejected(self):
        with pytest.raises(InputError):
            auc(np.array([1.0, 2.0]), LabelSet.of([0, 1], []))

    @pytest.mark.parametrize("truth", [([0, 4], [1]), ([0], [1, 9])],
                             ids=["pos", "neg"])
    def test_truth_id_out_of_range_rejected(self, truth):
        with pytest.raises(InputError, match="out of range for 4 nodes"):
            auc(np.array([0.9, 0.8, 0.1, 0.2]), LabelSet.of(*truth))

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 200))
            n_pos = int(rng.integers(1, k))
            scores = np.round(rng.uniform(0, 1, k), 1)  # force ties
            ids = rng.permutation(k)
            truth = LabelSet.of(ids[:n_pos], ids[n_pos:])
            report = auc(scores, truth)
            pos = scores[truth.positive_array()]
            neg = scores[truth.negative_array()]
            greater, ties = brute_force_auc_counts(pos, neg)
            assert report.tie_pairs == ties
            assert report.auc == brute_force_auc(pos, neg)

    @given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=40,
                    unique=True))
    def test_invariant_under_monotone_transform(self, vals):
        # integer grid keeps the transform strictly increasing in float64
        scores = np.asarray(vals, dtype=float) / 100.0
        k = len(vals)
        truth = LabelSet.of(range(k // 2), range(k // 2, k))
        a = auc(scores, truth).auc
        b = auc(np.exp(scores * 0.5) + 3.0, truth).auc
        assert a == pytest.approx(b)

    def test_nan_on_a_truth_node_rejected(self):
        # NaN once sorted above every other score: AUC 1 here
        scores = np.array([np.nan, 0.5, -0.5, np.inf])
        for truth, node in ((LabelSet.of([0], [1, 2, 3]), 0), (LabelSet.of([1], [2, 0]), 0)):
            with pytest.raises(InputError, match=f"^node {node} has a NaN score$"):
                auc(scores, truth)

    def test_infinite_scores_and_nan_off_truth_allowed(self):
        scores = np.array([np.inf, 0.5, -np.inf, np.nan])
        assert auc(scores, LabelSet.of([0, 1], [2])).auc == 1.0
        assert auc(scores, LabelSet.of([2], [0, 1])).auc == 0.0

    def test_signed_zeros_tie(self):
        scores = np.array([-0.0, 0.0, 0.0, -0.0, -1.0])
        report = auc(scores, LabelSet.of([0, 1], [2, 3, 4]))
        assert report.tie_pairs == 4
        assert report.auc == (2 + 0.5 * 4) / 6

    def test_one_node_per_class(self):
        scores = np.array([0.1, 0.7, 0.1])
        assert auc(scores, LabelSet.of([1], [0])) == AucReport(1.0, 0)
        assert auc(scores, LabelSet.of([0], [1])) == AucReport(0.0, 0)
        assert auc(scores, LabelSet.of([2], [0])) == AucReport(0.5, 1)

    @pytest.mark.parametrize("truth", [([], [3, 7]), ([3, 7], [])], ids=["pos", "neg"])
    def test_empty_class_through_rows_rejected(self, truth):
        with pytest.raises(InputError, match="^AUC needs at least one positive "
                                             "and one negative test node$"):
            auc_of_rows(np.array([7, 3]), np.array([0.2, 0.9]), LabelSet.of(*truth))

    def test_negate_scores_and_swap_labels(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=30)
        truth = LabelSet.of(range(10), range(10, 30))
        swapped = LabelSet.of(range(10, 30), range(10))
        assert auc(scores, truth).auc == pytest.approx(auc(-scores, swapped).auc)


class TestAucOfRows:
    def test_matches_dense_scores(self):
        # rows in any order, extra unlabeled rows, ties
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(3, 200))
            scores = np.round(rng.normal(size=n), 1)
            labeled = rng.permutation(n)[:int(rng.integers(2, n + 1))]
            half = labeled.size // 2
            truth = LabelSet.of(labeled[:half], labeled[half:])
            rows = rng.permutation(n)
            assert auc_of_rows(rows, scores[rows], truth) == auc(scores, truth)

    def test_nan_on_a_truth_node_rejected(self):
        ids = np.array([7, 3, 2 ** 40, 5])
        vals = np.array([0.5, np.nan, np.inf, np.nan])
        with pytest.raises(InputError, match="^node 3 has a NaN score$"):
            auc_of_rows(ids, vals, LabelSet.of([3], [7, 2 ** 40]))
        assert auc_of_rows(ids, vals, LabelSet.of([2 ** 40], [7])).auc == 1.0

    def test_sparse_ids(self):
        ids = np.array([10 ** 12, 3, 2 ** 40])
        report = auc_of_rows(ids, np.array([0.9, 0.1, 0.5]),
                             LabelSet.of([10 ** 12], [3, 2 ** 40]))
        assert report.auc == 1.0


class TestRankAndWrite:
    def test_descending_order(self, tmp_path):
        f = tmp_path / "scores.tsv"
        rank_and_write(np.array([0.5, -0.5]), None, f)
        ids, vals, preds = read_scores(f)
        assert list(ids) == [0, 1]
        assert list(vals) == [0.5, -0.5]
        assert list(preds) == [1, -1]

    def test_ties_broken_by_ascending_id(self, tmp_path):
        f = tmp_path / "scores.tsv"
        rank_and_write(np.array([0.3, 0.7, 0.3]), None, f)
        ids, _, _ = read_scores(f)
        assert list(ids) == [1, 0, 2]

    def test_zero_scores_classified_negative(self, tmp_path):
        f = tmp_path / "scores.tsv"
        rank_and_write(np.array([0.0, 0.1]), None, f)
        ids, _, preds = read_scores(f)
        assert dict(zip(ids, preds)) == {1: 1, 0: -1}

    def test_remap_translates_ids(self, tmp_path):
        f = tmp_path / "scores.tsv"
        rank_and_write(np.array([0.9, 0.1]), np.array([41, 7]), f)
        ids, _, _ = read_scores(f)
        assert list(ids) == [41, 7]

    def test_rows_match_per_row_format(self, tmp_path):
        rng = np.random.default_rng(4)
        p = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40),
                            [0.0, -0.0, 0.1, 1 / 3, 5e-324, -1.7976931348623157e308]])
        ids = rng.permutation(1000)[:p.size]
        f = tmp_path / "scores.tsv"
        rank_and_write(p, ids, f)
        order = np.lexsort((ids, -p))
        want = "".join(f"{ids[i]}\t{float(p[i])!r}\t{1 if p[i] > 0 else -1}\n"
                       for i in order)
        assert f.read_bytes() == want.encode()

    def test_bytes_match_per_row_label_formula(self, tmp_path):
        # Labels from p > 0 per row, as the writer computed them before it
        # wrote the two label blocks: ties, signed zeros, NaN, infinities,
        # vectors with one block only, and remapped ids.
        def per_row(p, remap):
            ids = np.arange(p.size) if remap is None else remap
            pred = np.where(p > 0, 1, -1).astype(np.int64)
            order = np.lexsort((ids, -p))
            rows = zip(ids[order].tolist(), p[order].tolist(), pred[order].tolist())
            return "".join(f"{i}\t{x!r}\t{c}\n" for i, x, c in rows).encode()

        rng = np.random.default_rng(13)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324]
        f = tmp_path / "scores.tsv"
        for k in range(60):
            n = int(rng.integers(0, 40))
            p = np.round(rng.normal(size=n), 1)  # ties likely
            if k % 3:
                hits = rng.random(n) < 0.3
                p[hits] = rng.choice(special, size=int(hits.sum()))
            if k % 7 == 1:
                p = np.abs(p) + 1.0
            elif k % 7 == 2:
                p = -np.abs(p)
            remap = rng.permutation(10 ** 6)[:n] if k % 2 else None
            rank_and_write(p, remap, f)
            assert f.read_bytes() == per_row(p, remap)

    def test_rewrite_is_idempotent(self, tmp_path):
        rng = np.random.default_rng(2)
        p = np.round(rng.normal(size=50), 2)  # duplicated values likely
        f1 = tmp_path / "a.tsv"
        rank_and_write(p, None, f1)
        ids, vals, _ = read_scores(f1)
        # re-rank the parsed scores under their original ids
        dense = np.empty(50)
        dense[ids] = vals
        f2 = tmp_path / "b.tsv"
        rank_and_write(dense, None, f2)
        assert f1.read_text() == f2.read_text()
